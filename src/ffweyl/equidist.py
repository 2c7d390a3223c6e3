"""Empirical equidistribution evidence: cylinder counts, twisted-sum scans,
and the prime-field coefficient collapse.

"Equidistributed" is never reported as a boolean.  A scan produces decaying
normalized sups (evidence) or a witness twist whose sum is exactly full (a
finite disproof certificate at that N); only the latter is ever definitive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import PRINT_DIGITS, check_budget, gn_size, poly_from_index, power_count
from .contfrac import rationality_probe
from .errors import DomainError, PrecisionError
from .exponents import cal_i
from .expsum import ExpPoly, count_rows, fractional_digit_rows, stacked_sums
from .kinfty import RationalK, kadd, tmap


#: At most this many twists are stacked into one sum, so that a large q^D
#: never holds every twisted polynomial at once.
TWIST_STACK = 1 << 10


@dataclass(frozen=True)
class CylinderTable:
    depth: int
    total: int
    counts: dict  # digit prefix tuple (c_1..c_depth) -> count

    def count(self, prefix):
        return self.counts.get(tuple(prefix), 0)


def allowed_depth(f, N):
    """Deepest digit count the coefficient floors support over G_N."""
    depth = None
    for r, c in f.terms:
        if isinstance(c, RationalK):
            continue
        here = -c.floor - r * max(N - 1, 0)
        depth = here if depth is None else min(depth, here)
    return depth


def cylinder_counts(f, N, depth=None, method=None, budget=None):
    """Counts of the first `depth` fractional digits of f(x) over G_N.

    When depth is omitted it defaults to min(3, what the precision allows).
    """
    if depth is None:
        limit = allowed_depth(f, N)
        depth = 3 if limit is None else min(3, limit)
        if depth < 1:
            raise PrecisionError("coefficient floors allow no digit at all")
    rows = fractional_digit_rows(f, N, depth, method=method, budget=budget)
    prefixes, sizes = count_rows(rows, np.ones(len(rows), dtype=np.int64))
    counts = dict(zip(map(tuple, prefixes.tolist()), sizes.tolist()))
    return CylinderTable(depth, len(rows), counts)


def refine_to_parent(table):
    """Sum a depth-d table back to depth d-1; consistency helper."""
    if table.depth < 2:
        raise DomainError("cannot refine a depth-1 table")
    counts = {}
    for prefix, c in table.counts.items():
        counts[prefix[:-1]] = counts.get(prefix[:-1], 0) + c
    return CylinderTable(table.depth - 1, table.total, counts)


def discrepancy(table, q):
    """max over all depth-d prefixes of |count/total - q^-d|, exact.

    The maximum runs over every prefix, including those with zero count.
    Each term is |count q^d - total| / (total q^d), so the maximum is taken
    over the integer numerators and divided once.
    """
    cells = q ** table.depth
    worst = max((abs(c * cells - table.total) for c in table.counts.values()), default=0)
    if len(table.counts) < cells:
        worst = max(worst, table.total)  # some prefix has count zero
    return Fraction(worst, table.total * cells)


@dataclass(frozen=True)
class ScanRow:
    N: int
    sup: float
    witness: str | None          # a twist m with an exactly full sum, if any
    discrepancy: Fraction | None


@dataclass(frozen=True)
class Verdict:
    rows: tuple
    flags: dict

    @property
    def failure_certificate(self):
        return any(r.witness is not None for r in self.rows)


def weyl_scan(f, N_list, D, depth=None, budget=None):
    """Per-N sup over nonzero twists m in G_D of |sum e(m f)| / q^N.

    A decreasing sup profile is evidence for equidistribution; a twist with
    an exactly full histogram certifies failure at that N and is recorded as
    a witness.  Before any sum, the digit rows of the largest N are charged
    as fractional_digit_rows charges them, and a depth whose q^depth has
    PRINT_DIGITS digits or more is refused: a discrepancy's reduced
    denominator can be q^depth, too long to print.
    """
    if D < 1:
        raise DomainError("the twist bound D must be positive")
    field = f.field
    points = sum(gn_size(field, N, budget, "twist scan") for N in N_list)
    check_budget(points * (power_count(field.q, D, budget, "twist scan") - 1),
                 budget, "twist scan")
    if depth:
        widest = gn_size(field, max(N_list, default=0), budget, "cylinder count")
        check_budget(widest * depth * field.m, budget, "cylinder count")
        # q >= 2 and 2^(4k) > 10^k, so the capped power decides the same
        if field.q ** min(depth, 4 * PRINT_DIGITS) >= 10 ** (PRINT_DIGITS - 1):
            raise DomainError(f"the depth-{depth} discrepancy denominator "
                              f"{field.q}^{depth} has at least {PRINT_DIGITS} digits")
    rows = []
    for N in sorted(N_list):
        sup = 0.0
        witness = None
        for start in range(1, field.q ** D, TWIST_STACK):
            # these twist indices are the members of one stacked sum over G_N
            twists = range(start, min(start + TWIST_STACK, field.q ** D))
            for mi, hist in zip(twists, stacked_sums([f], N, budget=budget, twists=twists)):
                sup = max(sup, hist.normalized())
                if witness is None and hist.is_full():
                    witness = str(poly_from_index(field, mi, D))
        disc = None
        if depth:
            disc = discrepancy(cylinder_counts(f, N, depth, budget=budget), q=field.q)
        rows.append(ScanRow(N, sup, witness, disc))
    flags = {"failure_certificate": any(r.witness is not None for r in rows)}
    return Verdict(tuple(rows), flags)


@dataclass(frozen=True)
class QPReduction:
    indices: frozenset        # exponents coprime to p reachable from the support
    collapsed: dict           # index k -> collapsed coefficient
    reduced: ExpPoly


def reduce_qp(f):
    """Collapse p-power exponents onto their coprime cores (prime fields only).

    Raising x to the p-th power permutes nothing new in the character: the
    digit-sampling map converts each coefficient of u^(p^v k) into a
    coefficient of u^k, and the reduced polynomial has identical character
    values pointwise (the tests enforce this).
    """
    field = f.field
    if field.m != 1:
        raise DomainError("the reduction requires q = p")
    p = field.p
    support = f.support()
    indices = cal_i(support, p)
    top = max(support, default=0)
    collapsed = {}
    for k in sorted(indices):
        acc = RationalK(field.poly_zero)
        term, v = k, 0
        while term <= top:
            if term in support:
                acc = kadd(acc, tmap(f.coeff(term), v))
            term *= p
            v += 1
        collapsed[k] = acc
    reduced = ExpPoly(field, {**collapsed, 0: f.constant()})
    return QPReduction(frozenset(indices), collapsed, reduced)


@dataclass(frozen=True)
class ObstructionEntry:
    m: str
    status: str   # "rational" | "zero" | "cf-match" | "clear" | "inconclusive"
    detail: str


@dataclass(frozen=True)
class Cor53Report:
    k: int
    entries: tuple

    @property
    def obstructions(self):
        return tuple(e for e in self.entries
                     if e.status in ("rational", "zero", "cf-match"))

    @property
    def clear(self):
        return not self.obstructions


def cor53_probe(f, k, m_bound, cf_bound=8, kappa=2, max_terms=96):
    """Scan twists m for rational structure in the collapsed coefficient at k.

    Any hit is a potential obstruction to the irrationality condition; a
    clean scan is only "no obstruction found up to bounds", never a verdict.
    """
    field = f.field
    if field.m != 1:
        raise DomainError("the probe requires q = p")
    if k not in cal_i(f.support(), field.p):
        raise DomainError(f"{k} is not an index of the reduction")
    entries = []
    for mi in range(1, field.q ** m_bound):
        m = poly_from_index(field, mi, m_bound)
        collapsed = reduce_qp(f.scale_poly(m)).collapsed[k]
        if isinstance(collapsed, RationalK):
            entries.append(ObstructionEntry(str(m), "rational", str(collapsed)))
            continue
        if collapsed.is_zero_to_floor():
            entries.append(ObstructionEntry(
                str(m), "zero", f"zero down to floor {collapsed.floor}"))
            continue
        report = rationality_probe(collapsed, kappa,
                                   range(2, cf_bound + 1), max_terms=max_terms)
        if report.all_hit:
            entries.append(ObstructionEntry(
                str(m), "cf-match", "small-denominator match at every tested N"))
        elif any(e.status == "miss" for e in report.entries):
            entries.append(ObstructionEntry(str(m), "clear", ""))
        else:
            entries.append(ObstructionEntry(str(m), "inconclusive",
                                            "precision exhausted"))
    return Cor53Report(k, tuple(entries))
