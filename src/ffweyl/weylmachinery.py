"""Shift identities, spacing, the large sieve, and power-class splitting.

Everything here is a checkable statement: shift checks compare residue-engine
histograms, spacing checks certify pairwise torus gaps, the sieve check
evaluates both sides of the inequality, and violated hypotheses raise
HypothesisError so they are never mistaken for failed conclusions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (Poly, check_budget, check_power, enumerate_GN, is_irreducible,
                      poly_gcd, power_count)
from .contfrac import approx_gap, dirichlet_approx, quality_bound
from .errors import DomainError, HypothesisError, PrecisionError
from .exponents import ktilde, maximal_elements
from .expsum import CharSum, ExpPoly, weyl_residues, weyl_sum
from .kinfty import kadd, kmul_poly, ord_vs


def weyl_shift_check(f, shifts, N, budget=None):
    """Exact histogram form of the averaging-over-shifts identity.

    The histogram of f over G_N, scaled by the multiset size, must equal the
    joint histogram of f(y - x) over (x, y) in G_N x shifts: y - x sweeps G_N
    bijectively for each y.  Both sides are residue-engine histograms: f(y - x)
    is the polynomial f.substitute(-1, y) in x.
    """
    if not shifts:
        raise DomainError("empty shift multiset")
    field = f.field
    check_budget(power_count(field.q, N, budget, "shift check") * len(shifts), budget,
                 "shift check")
    lhs = weyl_sum(f, N, budget=budget).scale(len(shifts))
    rhs = CharSum(field.p, (0,) * field.p)
    for y in shifts:
        rhs += weyl_sum(f.substitute(-field.poly_one, y), N, budget=budget)
    return lhs == rhs


@dataclass(frozen=True)
class ShiftExpansion:
    """f(y - x) rewritten as lead*y^k + sum of gamma_j y^j + constant."""

    k: int
    lead: object
    gammas: tuple          # ((j, coefficient), ...) with j != k
    constant: object

    def gamma_map(self):
        return dict(self.gammas)

    def as_exppoly(self, field):
        coeffs = {self.k: self.lead, 0: self.constant}
        for j, c in self.gammas:
            coeffs[j] = c
        return ExpPoly(field, coeffs)


def shift_expand(f, x, k):
    """Expand f(y - x) in powers of y around a maximal exponent k.

    Binomials enter mod p, so only exponents in the shadow of the support can
    appear, and maximality of k pins its coefficient to the original one.
    """
    support = f.support()
    if k not in maximal_elements(support, f.field.p):
        raise DomainError(f"{k} is not maximal in the support {sorted(support)}")
    expanded = f.substitute(f.field.poly_one, -x)
    gammas = tuple((j, c) for j, c in expanded.terms if j not in (0, k))
    return ShiftExpansion(k, expanded.coeff(k), gammas, expanded.constant())


def _frac_gap(delta):
    """Certified ord of the fractional part of delta (int or NEG_INF)."""
    kind, val = delta.frac().ord_bound()
    if kind == "below":
        raise PrecisionError("pair gap is below the certified digits")
    return val


def spacing_check(alpha_k, k, g, a, M, N, points):
    """Pairwise torus gaps of alpha_k * l^k over a power-split family.

    Validates the full hypothesis list first (raising HypothesisError), then
    returns (min_gap, ok) where ok means every gap meets
    min(-ord g, k(M-N)).
    """
    field = g.field
    p = field.p
    if k % p == 0:
        raise HypothesisError(f"p = {p} divides k = {k}")
    if not (1 <= M <= N):
        raise HypothesisError("need 1 <= M <= N")
    if g.is_zero():
        raise HypothesisError("zero modulus")
    if poly_gcd(a, g) != field.poly_one:
        raise HypothesisError("a and g share a factor")
    delta = approx_gap(alpha_k, a, g)
    if ord_vs(delta, -k * M) == "at_or_above":
        raise HypothesisError(f"ord(g*alpha - a) = {delta.ord()} is not below {-k * M}")
    if g.deg <= M and ord_vs(delta, M - k * N) == "below":
        raise HypothesisError(
            "with ord g <= M the approximation order must be >= M - kN")
    for l in points:
        if l.deg != M or l.lead() != 1 or not is_irreducible(l):
            raise HypothesisError(f"{l} is not a monic irreducible of degree {M}")
    # equal residues give equal k-th powers, so the powers follow the residues
    # one to one exactly when there are as many distinct powers as residues
    if len({l.mod_pow(k, g) for l in points}) != len({l % g for l in points}):
        raise HypothesisError("power-class property fails for the family")
    bound = min(-g.deg, k * (M - N))
    min_gap = math.inf
    ok = True
    powers = [l ** k for l in points]
    for i, l1 in enumerate(powers):
        for l2 in powers[i + 1:]:
            gap = _frac_gap(kmul_poly(alpha_k, l1 - l2))
            if gap < bound:
                ok = False
            min_gap = min(min_gap, gap)
    return min_gap, ok


@dataclass(frozen=True)
class SpacedFamily:
    points: tuple
    gap: object  # certified min pairwise fractional-part order; inf if < 2 points


def space_family(points):
    points = tuple(points)
    gap = math.inf
    for i, g1 in enumerate(points):
        for g2 in points[i + 1:]:
            gap = min(gap, _frac_gap(kadd(g1, -g2)))
    return SpacedFamily(points, gap)


@dataclass(frozen=True)
class LargeSieveReport:
    lhs: float
    rhs: float
    passed: bool
    gap: object


#: The relative slack of large_sieve_check's verdict lhs <= rhs (1 + REL_TOL).
REL_TOL = 1e-6


def large_sieve_check(family, weights, N, K, budget=None):
    """Evaluate sum of |S(gamma)|^2 against max(q^N, q^(K-1)) * sum |b_x|^2.

    family may be a SpacedFamily or a plain point list (certified here);
    weights align with the enumeration order of G_N.

    The spacing hypothesis is strict: a family qualifies for parameter K only
    when every pairwise fractional difference has order >= 1 - K, that is,
    the points sit strictly more than q^-K apart.  With non-strict spacing
    the q^(K-1) bound is false: over F_2 the full packet {a/t^2} with N = 1
    and unit weights reaches 8 against a would-be bound of 4.  The packet
    qualifies at K = 3, where the bound is met with equality.
    """
    if not isinstance(family, SpacedFamily):
        family = space_family(family)
    if K < 1:
        raise HypothesisError("K must be a positive integer")
    if family.gap < 1 - K:
        raise HypothesisError(
            f"family gap {family.gap} is not strictly finer than q^-{K}")
    field = family.points[0].field if family.points else None
    if field is None:
        raise DomainError("empty point family")
    total = check_power(field.q, N, budget, "sieve evaluation")
    weights = list(weights)
    if len(weights) != total:
        raise DomainError("weight vector must cover G_N")
    angles = [2 * math.pi * r / field.p for r in range(field.p)]
    z_re, z_im = np.array([[math.cos(a) for a in angles], [math.sin(a) for a in angles]])
    w = np.array(weights, dtype=complex)
    nonzero = np.flatnonzero(w)
    b_re, b_im = w.real[nonzero], w.imag[nonzero]
    lhs = 0.0
    for gamma in family.points:
        r = weyl_residues(ExpPoly(field, {1: gamma}), N, budget=budget)[nonzero]
        # s = 0j; s += b * zeta^r over the points in order: each part of each
        # term as a Python complex product forms it, then one running sum
        re = np.add.accumulate(np.r_[0.0, b_re * z_re[r] - b_im * z_im[r]])[-1]
        im = np.add.accumulate(np.r_[0.0, b_re * z_im[r] + b_im * z_re[r]])[-1]
        lhs += abs(complex(re, im)) ** 2
    rhs = max(field.q ** N, field.q ** (K - 1)) * sum(abs(b) ** 2 for b in weights)
    return LargeSieveReport(lhs, rhs, lhs <= rhs * (1 + REL_TOL), family.gap)


def split_by_kth_power(elems, g, k):
    """Partition polynomials so that, within a class, k-th powers agree mod g
    exactly when the elements themselves do.

    Same residue mod g may share a class; same k-th power with different
    residue may not, so those split greedily across classes.
    """
    if g.is_zero():
        raise DomainError("zero modulus")
    groups = {}
    for l in sorted(elems, key=lambda v: v.code()):
        groups.setdefault(l.mod_pow(k, g), {}).setdefault(l % g, []).append(l)
    classes = []
    for power_key in sorted(groups, key=lambda v: v.code()):
        residues = groups[power_key]
        for slot, res_key in enumerate(sorted(residues, key=lambda v: v.code())):
            while len(classes) <= slot:
                classes.append([])
            classes[slot].extend(residues[res_key])
    return [sorted(c, key=lambda v: v.code()) for c in classes]


def kth_power_classes(g, k, budget=None):
    """Split the residues coprime to g by the k-th power rule."""
    if g.is_zero():
        raise DomainError("zero modulus")
    field = g.field
    check_power(field.q, max(g.deg, 0), budget, "residue split")
    units = [x for x in enumerate_GN(field, max(g.deg, 0), budget)
             if poly_gcd(x, g) == field.poly_one]
    return [tuple(c) for c in split_by_kth_power(units, g, k)]


@dataclass(frozen=True)
class ApproxEntry:
    M: int
    a: Poly
    g: Poly
    quality_kind: str   # "exact" | "below"
    quality: object     # int or NEG_INF; for "below" an upper bound ord <= quality
    ord_g: object


@dataclass(frozen=True)
class MinorArcReport:
    histogram: CharSum
    magnitude: float
    threshold: float
    triggered: bool
    entries: tuple
    best: ApproxEntry | None


def minor_arc_probe(f, k, N, eta, M_list=None, budget=None):
    """Diagnostic mirror of the large-sum conclusion: when the sum magnitude
    reaches q^(N-eta), decided exactly (CharSum.reaches), sweep denominator
    bounds and report the rational approximation data for the coefficient
    at k.  The reported magnitude and threshold are floats, for display.

    No pass/fail semantics: the asymptotic statement has unspecified
    constants, so the (approximation order, denominator order) pairs are the
    output.  A sweep the coefficient's digits cannot certify for every M
    raises PrecisionError rather than stopping early, so the report never
    depends on digits below a series floor.
    """
    field = f.field
    p = field.p
    if k not in ktilde(f.support(), p):
        raise DomainError(f"{k} is not in the peeled core of {sorted(f.support())}")
    hist = weyl_sum(f, N, budget=budget)
    mag = hist.magnitude()
    threshold = float(field.q) ** (N - eta)
    if not hist.reaches(Fraction(field.q) ** (N - eta)):
        return MinorArcReport(hist, mag, threshold, False, (), None)
    alpha_k = f.coeff(k)
    entries = []
    for M in (M_list if M_list is not None else range(1, N + 1)):
        a, g = dirichlet_approx(alpha_k, k, M)
        kind, val = quality_bound(alpha_k, a, g)
        if kind == "below":
            val = val - 1
        entries.append(ApproxEntry(M, a, g, kind, val, g.deg))
    best = min(entries, key=lambda e: (e.quality, e.ord_g), default=None)
    return MinorArcReport(hist, mag, threshold, True, tuple(entries), best)
