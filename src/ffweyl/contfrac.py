"""Continued fractions over F_q((1/t)).

Quotients live in F_q[t] and, past the first, have positive order, so the
expansion of a rational is the Euclidean algorithm and terminates.  A
truncated series with floor f <= 0 is P / t^(-f), P the polynomial of its
digit list, and expands by the same Euclidean pass on (P, t^(-f)) with a
floor carried along.  After the remainder r of num by den, let
n = deg r - deg den: the tail r/den cannot be told from zero when r = 0 or
n < floor; otherwise its inverse den/r is certified down to floor - 2n, the
next floor, since a change of the tail below its floor moves the inverse by
at most q^(floor - 1 - 2n).  The expansion of a series stops with an
explicit marker when the precision is spent, never silently.  Convergent
numerators and denominators follow the standard two-term recursion seeded by
(0, 1) and (1, 0); the determinant identity g_n*a_{n-1} - a_n*g_{n-1} =
(-1)^n is recomputed at every step as a self-check.

The quotients come from one generator, one Euclidean step per quotient
drawn.  cf_expand draws all of them, for the cf command, dirichlet_approx,
approx_quality and legendre_recover.  rationality_probe draws them lazily
and builds convergents only up to the first denominator of ord above every
N it tests, the last one any N reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly
from .errors import DomainError, PrecisionError
from .kinfty import RationalK, kadd, kmul_poly, ord_vs


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


def cf_expand(alpha, max_terms=64):
    """Continued-fraction quotients of alpha.

    Rationals expand completely; truncated series stop at max_terms or when
    the next quotient can no longer be certified from known digits.
    """
    quotients = []
    steps = _quotients(alpha, max_terms)
    while True:
        try:
            quotients.append(next(steps))
        except StopIteration as end:
            return CFExpansion(tuple(quotients), end.value)


def _quotients(alpha, max_terms):
    """The quotients of cf_expand, one Euclidean step per quotient drawn; the
    generator returns the reason the expansion stopped, as CFExpansion
    records it."""
    field = alpha.field
    if isinstance(alpha, RationalK):
        num, den, floor, max_terms = alpha.num, alpha.den, None, None
    elif alpha.floor > 0:
        raise PrecisionError("floor above 0; not even the first quotient is known")
    else:
        num, den, floor = (Poly(field, alpha.coeffs), field.poly_one.shift(-alpha.floor),
                           alpha.floor)
    count = 0
    while True:
        if count == max_terms:
            return "max-terms"
        if floor is not None and floor > 0:
            break
        b, r = divmod(num, den)
        yield b
        count += 1
        if r.is_zero():
            # for a series: an exact zero tail or digits hiding below the floor
            break
        if floor is not None:
            n = r.deg - den.deg
            if floor > -1 or n < floor:
                break
            floor -= 2 * n
        num, den = den, r
    return None if floor is None else "precision"


def convergents(cf):
    """Numerator/denominator table with the determinant identity enforced."""
    if not cf.quotients:
        raise DomainError("empty expansion")
    return ConvergentTable(tuple(_pairs(cf.quotients[0].field, cf.quotients)))


def _pairs(field, quotients):
    """The convergents (a_n, g_n) of a stream of quotients, one per quotient
    drawn, each checked by the determinant identity."""
    a_pp, g_pp = field.poly_zero, field.poly_one
    a_p, g_p = field.poly_one, field.poly_zero
    for n, b in enumerate(quotients):
        a = b * a_p + a_pp
        g = b * g_p + g_pp
        det = g * a_p - a * g_p
        want = field.poly_one if n % 2 == 0 else -field.poly_one
        if det != want:
            raise ArithmeticError(f"determinant identity failed at index {n}")
        yield a, g
        a_pp, g_pp, a_p, g_p = a_p, g_p, a, g


def cf_value(cf):
    """The rational value of a (finite) expansion: its last convergent."""
    a, g = convergents(cf).pairs[-1]
    return RationalK(a, g)


def approx_gap(alpha, a, g):
    """g*alpha - a, whose order measures how well a/g approximates alpha."""
    return kadd(kmul_poly(alpha, g), RationalK(-a))


def quality_bound(alpha, a, g):
    """Certified information about ord(g*alpha - a).

    Returns ("exact", e) with e an int or NEG_INF, or ("below", fl) meaning
    every known digit vanishes and the order is at most fl - 1.
    """
    return approx_gap(alpha, a, g).ord_bound()


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
    if ord_vs(approx_gap(alpha, a, g), -g.deg) == "at_or_above":
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
    best = _last_within(table, bound)
    if best + 1 < len(table.pairs):
        below = _tail_quality(alpha, table, best) < -bound
    else:
        # the next denominator is unseen; certify the quality digit-wise
        below = ord_vs(approx_gap(alpha, *table.pairs[best]), -bound) == "below"
    if not below:
        if cf.stopped is not None:  # a later convergent would qualify, but is unseen
            raise PrecisionError(
                f"expansion stopped ({cf.stopped}) before a convergent with "
                f"ord(g*alpha - a) < {-bound}")
        raise ArithmeticError("Dirichlet quality bound failed")
    return table.pairs[best]


def _last_within(table, bound):
    """Index of the last convergent whose denominator has ord <= bound."""
    return max(n for n, (_, g) in enumerate(table.pairs) if g.deg <= bound)


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
    # no N reads past the first convergent with ord g above every N
    top = max(N_list, default=0)
    pairs = []
    for a, g in _pairs(alpha.field, _quotients(alpha, max_terms)):
        pairs.append((a, g))
        if g.deg > top:
            break
    if not pairs:
        raise DomainError("empty expansion")
    table = ConvergentTable(tuple(pairs))
    entries = []
    for N in sorted(N_list):
        if N < 1:
            raise DomainError("N must be positive")
        threshold = -kappa * N
        nstar = _last_within(table, N)
        a, g = table.pairs[nstar]
        if nstar + 1 < len(table.pairs):
            quality = -table.pairs[nstar + 1][1].deg
            status = "hit" if quality <= threshold else "miss"
            entries.append(ProbeEntry(N, status, nstar, a, g, quality))
            continue
        kind, val = quality_bound(alpha, a, g)
        if kind == "exact" and val <= threshold:
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val))
        elif kind == "below" and val - 1 <= threshold:
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val - 1))
        else:
            # a deeper convergent could still qualify; not decidable here
            entries.append(ProbeEntry(N, "undecided", nstar, a, g, None))
    return RationalityReport(kappa, tuple(entries))
