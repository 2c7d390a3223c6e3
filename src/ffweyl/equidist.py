"""Empirical equidistribution evidence: cylinder counts, twisted-sum scans,
and the coefficient collapse of p-power exponents.

"Equidistributed" is never reported as a boolean.  A scan produces decaying
normalized sups (evidence) or a witness twist whose sum is exactly full (a
finite disproof certificate at that N); only the latter is ever definitive.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (PRINT_DIGITS, check_budget, check_power, gn_size, poly_from_index,
                      power_count)
from .contfrac import rationality_probe
from .errors import DomainError, PrecisionError
from .exponents import cal_i
from .expsum import (BLOCK, CharSum, ExpPoly, _check_floor, _digit_row_blocks, _key_rows,
                     _members, _packing, _pass_checks, _point_keys, _split_blocks, count_rows,
                     count_stream, prefix_segments)
from .kinfty import RationalK, kadd, tmap


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


def _table(depth, total, counted):
    prefixes, sizes = counted
    return CylinderTable(depth, total, dict(zip(map(tuple, prefixes.tolist()), sizes.tolist())))


def cylinder_counts(f, N, depth=None, method=None, budget=None):
    """Counts of the first `depth` fractional digits of f(x) over G_N.

    When depth is omitted it defaults to min(3, what the precision allows).
    The rows are counted block by block as they stream, into one dense
    table of q^depth cells while that fits in BLOCK (count_stream).
    """
    if depth is None:
        limit = allowed_depth(f, N)
        depth = 3 if limit is None else min(3, limit)
        if depth < 1:
            raise PrecisionError("coefficient floors allow no digit at all")
    total, blocks = _digit_row_blocks(f, N, depth, method=method, budget=budget)
    return _table(depth, total, count_stream(((rows, None) for _, rows in blocks), f.field.q))


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
    Each term is |count q^d - total| / (total q^d), and |c q^d - total| is
    largest at the largest or the smallest count c, so only those two are
    read; a prefix with no entry in table.counts counts 0.  table.counts is
    the dict of cylinder_counts, or an int64 array of the counts of some of
    the cells, as weyl_scan passes it.
    """
    cells = q ** table.depth
    counts = table.counts
    if isinstance(counts, dict):
        counts = np.array(list(counts.values()), dtype=np.int64)
    high = int(counts.max()) if len(counts) else 0
    low = int(counts.min()) if len(counts) == cells else 0  # else some prefix has count zero
    worst = max(abs(c * cells - table.total) for c in (low, high))
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


def _twist_indicators(cells, p):
    """The twist-residue indicator of every twist t < p^w, in index order from
    0, in blocks: row t p + r of a block holds 1 at the cells, the rows of
    cells (w columns), where twist t has residue r.  Twist t has coordinates
    floor(t / p^b) mod p, and its residue at a cell is their dot product with
    the cell's members, mod p.  A block holds the p^c twists that share their
    higher coordinates, with c as large as keeps its residues within BLOCK,
    so the lower part of the residues is one product for every block.
    """
    w = low = cells.shape[1]
    while low and p ** low * len(cells) > BLOCK:
        low -= 1
    base = np.arange(p ** low)[:, None] // p ** np.arange(low) % p @ cells[:, :low].T
    for a in range(p ** (w - low)):
        high = np.array([a // p ** c % p for c in range(w - low)], dtype=np.int64)
        res = (base + cells[:, low:] @ high) % p  # [twist, cell]
        yield (res[:, None] == np.arange(p)[:, None]).reshape(-1, len(cells))


def _twist_histograms(cells, sizes, p):
    """The histograms of every twist t < p^w, in index order from 0, in
    blocks of rows, at points in the cells, the rows of cells, with sizes
    points each: one product of each block's indicator with the sizes."""
    for indicator in _twist_indicators(cells, p):
        yield (indicator @ sizes).reshape(-1, p)


@functools.lru_cache(maxsize=8)
def _every_twist_indicator(p, w):
    """The read-only int64 twist-residue indicator of every twist t < p^w at
    every cell c < p^w, its w members the base-p digits of c, the first most
    significant, in one block; for p^(2w+1) <= BLOCK."""
    cells = _key_rows(np.arange(p ** w), [p] * w, np.int64)
    indicator = np.concatenate(list(_twist_indicators(cells, p))).astype(np.int64)
    indicator.flags.writeable = False
    return indicator


def _scan_row(field, N, D, depth, hists, cylinders):
    """The ScanRow of G_N, from the histograms of every twist of G_D, in
    blocks in index order from 0, and with depth, the counts of G_N's
    nonempty depth-`depth` cylinders (and maybe of some empty ones)."""
    total = field.q ** N
    distinct = set()  # every histogram of a nonzero twist
    witness = None
    start = 0  # the twist of the block's first row
    for block in hists:
        rows = block.tolist()
        if not start:  # the zero twist is not scanned
            rows, start = rows[1:], 1
        if witness is None:  # a full histogram holds the total
            full = next((i for i, row in enumerate(rows) if total in row), None)
            if full is not None:
                witness = str(poly_from_index(field, start + full, D))
        distinct.update(map(tuple, rows))
        start += len(rows)
    sup = max(CharSum(field.p, row).normalized() for row in distinct)
    disc = None
    if depth is not None:
        disc = discrepancy(CylinderTable(depth, total, cylinders), q=field.q)
    return ScanRow(N, sup, witness, disc)


def weyl_scan(f, N_list, D, depth=None, budget=None):
    """Per-N sup over nonzero twists m in G_D of |sum e(m f)| / q^N.

    A decreasing sup profile is evidence for equidistribution; a twist with
    an exactly full histogram certifies failure at that N and is recorded as
    a witness.  Before any sum, the scan is charged the work of its one
    pass, q^(max N) (q^D - 1) points (every nonzero twist over the largest
    N), the digit rows of the largest N are charged as fractional_digit_rows
    charges them, and a depth whose q^depth has PRINT_DIGITS digits or more
    is refused: a discrepancy's reduced denominator can be q^depth, too long
    to print.

    Every N is checked before any sum, in ascending order: the floors of its
    twists in index order, then its depth, then the rest of its engine
    pass, so the scan raises as twisted_sum and then cylinder_counts would
    N by N.  One engine pass over G_{max N} then reads the basis twists
    e_k t^s with s < max(D, depth), and prefix_segments cuts it at each q^N.
    A point's traces of those twists, entries below p, name its cell, and
    its first D m and depth m traces its twist cell and its cylinder (the
    trace form is nondegenerate, so they name the digits one to one).

    While the p^width cells fit in BLOCK, each block's cell keys are counted
    by one bincount into a running table, so each N's counts are the
    previous N's plus its segment's; its twist cells and cylinders are sums
    of the table over the cells that share their most significant members.
    Wider rows are counted segment by segment into running distinct rows by
    count_stream's sort and merge.  Each N then reads every twist histogram
    as one product of the twist-residue indicator with the twist cells'
    counts (_twist_histograms; one cached matrix over every twist cell when
    that fits in BLOCK), and its discrepancy off the cylinder counts.
    """
    if D < 1:
        raise DomainError("the twist bound D must be positive")
    if depth is not None and depth < 1:
        raise DomainError("depth must be at least 1")
    field = f.field
    p, m = field.p, field.m
    twists = power_count(field.q, D, budget, "twist scan") - 1
    for N in N_list:  # the one pass over G_{max N}, refused at the first N it cannot cover
        check_budget(gn_size(field, N, budget, "twist scan") * twists, budget, "twist scan")
    if depth is not None:
        widest = gn_size(field, max(N_list, default=0), budget, "cylinder count")
        check_budget(widest * depth * m, budget, "cylinder count")
        # q >= 2 and 2^(4k) > 10^k, so the capped power decides the same
        if field.q ** min(depth, 4 * PRINT_DIGITS) >= 10 ** (PRINT_DIGITS - 1):
            raise DomainError(f"the depth-{depth} discrepancy denominator "
                              f"{field.q}^{depth} has at least {PRINT_DIGITS} digits")
    width = max(D, depth or 1) * m
    for N in sorted(N_list):
        for d in range(D):  # the twists of degree d read d digits deeper
            for r, c in f.terms:
                _check_floor(c, r, N, 1, d)
        if depth is not None:
            for r, c in f.terms:
                _check_floor(c, r, N, depth)
        values = _pass_checks(f, width, N, 0, field.q ** N, budget)
    Ns = sorted(set(N_list))
    found = {}
    table = np.zeros(p ** width if p ** width <= BLOCK else 0, dtype=np.int64)
    counted = []  # without a table: the distinct group-key rows so far, and their counts
    cylinders = None
    if Ns:
        g = _packing(p, values, width)[1]  # group keys lie below p^g
        blocks = _split_blocks(f, width, Ns[-1], 0, field.q ** Ns[-1], budget)
        for N, segment in zip(Ns, prefix_segments(blocks, [field.q ** N for N in Ns])):
            if len(table):
                for block in segment:
                    table += np.bincount(_point_keys(block, width, p), minlength=len(table))
                twists = table.reshape(field.q ** D, -1).sum(axis=1)
                if p ** (2 * D * m + 1) <= BLOCK:
                    hists = [(_every_twist_indicator(p, D * m) @ twists).reshape(-1, p)]
                else:
                    keys = np.flatnonzero(twists)
                    hists = _twist_histograms(_key_rows(keys, [p] * (D * m), np.int64),
                                              twists[keys], p)
                if depth is not None:
                    cylinders = table.reshape(field.q ** depth, -1).sum(axis=1)
            else:
                counted = [count_stream(itertools.chain(counted, ((b, None) for b in segment)),
                                        p ** g)]
                rows, sizes = counted[0]
                rows = _members(rows, width, p)
                hists = _twist_histograms(rows[:, :D * m], sizes, p)
                if depth is not None:
                    cylinders = count_rows(rows[:, :depth * m], sizes)[1]
            found[N] = _scan_row(field, N, D, depth, hists, cylinders)
    rows = tuple(found[N] for N in sorted(N_list))
    flags = {"failure_certificate": any(r.witness is not None for r in rows)}
    return Verdict(rows, flags)


@dataclass(frozen=True)
class QPReduction:
    indices: frozenset        # exponents coprime to p reachable from the support
    collapsed: dict           # index k -> collapsed coefficient
    reduced: ExpPoly


def reduce_qp(f):
    """Collapse p-power exponents onto their coprime cores.

    Raising x to the p-th power permutes nothing new in the character: the
    digit-sampling map converts each coefficient of u^(p^v k) into a
    coefficient of u^k, and the reduced polynomial has identical character
    values pointwise at every q (the tests enforce this).
    """
    field = f.field
    p = field.p
    support = f.support()
    indices = cal_i(support, p)
    top = max(support, default=0)
    collapsed = {}
    for k in sorted(indices):
        acc, term, v = None, k, 0
        while term <= top:  # k came from the support, so acc gets a term
            if term in support:
                c = tmap(f.coeff(term), v)
                acc = c if acc is None else kadd(acc, c)
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
    The q^m_bound twists are charged against the default budget.
    """
    field = f.field
    if k not in cal_i(f.support(), field.p):
        raise DomainError(f"{k} is not an index of the reduction")
    entries = []
    for mi in range(1, check_power(field.q, m_bound, what="twist walk")):
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
