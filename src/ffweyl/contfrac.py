"""Continued fractions over F_q((1/t)).

Quotients live in F_q[t] and, past the first, have positive order, so the
expansion of a rational is the Euclidean algorithm and terminates; the
expansion of a truncated series stops with an explicit marker when the
precision is spent, never silently.  Convergent numerators and denominators
follow the standard two-term recursion seeded by (0, 1) and (1, 0); the
determinant identity g_n*a_{n-1} - a_n*g_{n-1} = (-1)^n is recomputed at
every step as a self-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import NEG_INF, Poly
from .errors import DomainError, PrecisionError
from .kinfty import RationalK, TruncSeries, kadd, kmul_poly


@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients plus the reason the expansion stopped.

    stopped is None when the input was rational and the Euclidean algorithm
    ran to completion; otherwise "precision" (digits ran out) or "max-terms".
    """

    quotients: tuple
    stopped: str | None

    @property
    def complete(self):
        return self.stopped is None

    @property
    def exhausted_at(self):
        return len(self.quotients) if self.stopped == "precision" else None


@dataclass(frozen=True)
class ConvergentTable:
    pairs: tuple  # pairs[n] = (a_n, g_n)

    def __len__(self):
        return len(self.pairs)


def _series_invert(s):
    """1/s for a series with certified order n; result floor is floor - 2n.

    A perturbation of s below its floor moves 1/s by at most q^(floor-1-2n),
    so digits of the inverse above floor - 2n are trustworthy and nothing
    deeper is emitted.
    """
    field = s.field
    n = s.ord()
    out_floor = s.floor - 2 * n
    inv_lead = field.inv(s.digit(n))
    mul, add, neg = field.mul, field.add, field.neg
    sdigits = [(e, s.digit(e)) for e in range(s.floor, n + 1) if s.digit(e)]
    rem = {0: 1}
    out = {}
    keep = out_floor + n  # remainder positions below this are never read
    for e in range(-n, out_floor - 1, -1):
        c = mul(rem.get(e + n, 0), inv_lead)
        out[e] = c
        if c:
            for j, sj in sdigits:
                pos = e + j
                if pos >= keep:
                    rem[pos] = add(rem.get(pos, 0), neg(mul(c, sj)))
    return TruncSeries.from_digits(field, out_floor, out)


def cf_expand(alpha, max_terms=64):
    """Continued-fraction quotients of alpha.

    Rationals expand completely; truncated series stop at max_terms or when
    the next quotient can no longer be certified from known digits.
    """
    if isinstance(alpha, RationalK):
        quotients = []
        num, den = alpha.num, alpha.den
        while True:
            b, r = divmod(num, den)
            quotients.append(b)
            if r.is_zero():
                return CFExpansion(tuple(quotients), None)
            num, den = den, r
    if alpha.floor > 0:
        raise PrecisionError("floor above 0; not even the first quotient is known")
    cur = alpha
    quotients = []
    stopped = None
    while True:
        if len(quotients) == max_terms:
            stopped = "max-terms"
            break
        if cur.floor > 0:
            stopped = "precision"
            break
        quotients.append(cur.poly_part())
        if cur.floor > -1:
            stopped = "precision"
            break
        tail = cur.frac()
        if tail.is_zero_to_floor():
            # could be an exact zero tail or digits hiding below the floor
            stopped = "precision"
            break
        cur = _series_invert(tail)
    return CFExpansion(tuple(quotients), stopped)


def convergents(cf):
    """Numerator/denominator table with the determinant identity enforced."""
    if not cf.quotients:
        raise DomainError("empty expansion")
    field = cf.quotients[0].field
    a_pp, g_pp = field.poly_zero, field.poly_one
    a_p, g_p = field.poly_one, field.poly_zero
    pairs = []
    for n, b in enumerate(cf.quotients):
        a = b * a_p + a_pp
        g = b * g_p + g_pp
        det = g * a_p - a * g_p
        want = field.poly_one if n % 2 == 0 else -field.poly_one
        if det != want:
            raise ArithmeticError(f"determinant identity failed at index {n}")
        pairs.append((a, g))
        a_pp, g_pp, a_p, g_p = a_p, g_p, a, g
    return ConvergentTable(tuple(pairs))


def cf_value(cf):
    """The rational value of a (finite) expansion: its last convergent."""
    a, g = convergents(cf).pairs[-1]
    return RationalK(a, g)


def quality_bound(alpha, a, g):
    """Certified information about ord(g*alpha - a).

    Returns ("exact", e) with e an int or NEG_INF, or ("below", fl) meaning
    every known digit vanishes and the order is at most fl - 1.
    """
    delta = kadd(kmul_poly(alpha, g), RationalK(-a))
    kind, val = delta.ord_bound()
    return kind, val


def _tail_quality(alpha, table, n):
    """ord(g_n*alpha - a_n), certified; uses the next convergent when present.

    Every completion of a truncated series shares the certified quotients, so
    when convergent n+1 exists the order equals -ord g_{n+1} exactly.
    """
    a, g = table.pairs[n]
    kind, val = quality_bound(alpha, a, g)
    if n + 1 < len(table.pairs):
        expected = -table.pairs[n + 1][1].deg
        if kind == "exact" and val != expected:
            raise ArithmeticError("approximation quality disagrees with the table")
        return expected
    if kind == "exact":
        return val
    raise PrecisionError("approximation quality is below the certified digits")


def approx_quality(alpha, n, cf=None, max_terms=64):
    """ord(g_n*alpha - a_n), which equals -ord g_{n+1}."""
    cf = cf if cf is not None else cf_expand(alpha, max_terms)
    table = convergents(cf)
    if not (0 <= n < len(table.pairs)):
        raise DomainError(f"no convergent with index {n}")
    return _tail_quality(alpha, table, n)


def legendre_recover(alpha, a, g, max_terms=64):
    """Locate a/g among the convergents of alpha, or report the hypothesis fails.

    Returns the convergent index when ord(g*alpha - a) < -ord g, else None.
    """
    if g.is_zero():
        raise DomainError("zero denominator")
    kind, val = quality_bound(alpha, a, g)
    if kind == "exact":
        hyp = val < -g.deg
    else:
        if val > -g.deg:
            raise PrecisionError("cannot settle the approximation hypothesis")
        hyp = True  # ord <= val - 1 < -ord g
    if not hyp:
        return None
    target = RationalK(a, g)
    cf = cf_expand(alpha, max_terms)
    for n, (an, gn) in enumerate(convergents(cf).pairs):
        if RationalK(an, gn) == target:
            return n
    if cf.stopped is not None:
        raise PrecisionError("expansion stopped before the qualifying pair")
    raise ArithmeticError("qualifying pair missing from a complete table")


def dirichlet_approx(alpha, k, M, max_terms=128):
    """Coprime (a, g) with ord(g*alpha - a) < -kM and ord g <= kM.

    Realized by the last convergent whose denominator stays within the bound.
    """
    if k < 1 or M < 1:
        raise DomainError("k and M must be positive")
    bound = k * M
    cf = cf_expand(alpha, max_terms)
    table = convergents(cf)
    best = None
    for n, (a, g) in enumerate(table.pairs):
        if g.deg <= bound:
            best = n
        else:
            break
    if best is None:
        raise ArithmeticError("no convergent within the denominator bound")
    if best + 1 >= len(table.pairs) and cf.stopped is not None:
        # cannot see the next denominator; certify the quality digit-wise
        kind, val = quality_bound(alpha, *table.pairs[best])
        if kind == "exact":
            if not (val is NEG_INF or val < -bound):
                raise ArithmeticError("Dirichlet quality bound failed")
        elif val > -bound:
            raise PrecisionError("cannot certify the Dirichlet quality bound")
    quality = _tail_quality(alpha, table, best) if best + 1 < len(table.pairs) else None
    if quality is not None and not (quality is NEG_INF or quality < -bound):
        raise ArithmeticError("Dirichlet quality bound failed")
    return table.pairs[best]


@dataclass(frozen=True)
class ProbeEntry:
    N: int
    status: str  # "hit" | "miss" | "undecided"
    index: int | None
    a: Poly | None
    g: Poly | None
    quality: object  # int, NEG_INF, or None when not certifiable


@dataclass(frozen=True)
class RationalityReport:
    kappa: Fraction
    entries: tuple

    @property
    def all_hit(self):
        return all(e.status == "hit" for e in self.entries)


def rationality_probe(alpha, kappa, N_list, max_terms=128):
    """Search, per N, for (a, g) with ord(g*alpha - a) <= -kappa*N and
    ord g <= N, walking the convergents.

    All-N success is evidence of rational structure at the tested precision;
    a single certified miss rules it out at that N.  The denominator bound is
    taken non-strictly so that an exact convergent hit at ord g = N counts.
    """
    kappa = Fraction(kappa)
    if kappa <= 1:
        raise DomainError("kappa must exceed 1")
    cf = cf_expand(alpha, max_terms)
    table = convergents(cf)
    entries = []
    for N in sorted(N_list):
        if N < 1:
            raise DomainError("N must be positive")
        threshold = -kappa * N
        nstar = None
        for n, (a, g) in enumerate(table.pairs):
            if g.deg <= N:
                nstar = n
            else:
                break
        a, g = table.pairs[nstar]
        if nstar + 1 < len(table.pairs):
            quality = -table.pairs[nstar + 1][1].deg
            status = "hit" if Fraction(quality) <= threshold else "miss"
            entries.append(ProbeEntry(N, status, nstar, a, g, quality))
            continue
        kind, val = quality_bound(alpha, a, g)
        if kind == "exact" and (val is NEG_INF or Fraction(val) <= threshold):
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val))
        elif kind == "below" and Fraction(val - 1) <= threshold:
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val - 1))
        else:
            # a deeper convergent could still qualify; not decidable here
            entries.append(ProbeEntry(N, "undecided", nstar, a, g, None))
    return RationalityReport(kappa, tuple(entries))
