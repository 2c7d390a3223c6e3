"""Difference-set experiments: the all-monic modulus, congruence-average
sums, and witness searches for polynomial-image differences.

The modulus g_M is the product of every monic polynomial of degree below M
(the sole degree-0 monic is 1 and contributes nothing).  Its degree explodes
quickly, so a squarefree-kernel mode (product of the distinct monic
irreducibles below M) is available; outputs always say which modulus was
used.  Roots are found per prime-power factor by direct enumeration and
recombined by CRT, so square factors need no lifting step.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (Poly, check_budget, check_power, enumerate_GN,
                      exceeds_unprintably, gn_size, irreducibles, poly_crt, roots_mod)
from .errors import BudgetError, DomainError, HypothesisError
from .expsum import (CharSum, ExpPoly, _check_range, _pass_checks, _split_blocks,
                     prefix_segments)
from .kinfty import kmul_poly

#: Default cap on deg g_M for the literal product.
GM_DEGREE_BUDGET = 64


@dataclass(frozen=True)
class DenseSet:
    field: object
    N: int
    elems: frozenset

    def __post_init__(self):
        for x in self.elems:
            if x.coeffs and x.deg >= self.N:
                raise DomainError("element outside G_N")

    @classmethod
    def full(cls, field, N):
        return cls(field, N, frozenset(enumerate_GN(field, N)))

    @classmethod
    def from_elems(cls, field, N, elems):
        return cls(field, N, frozenset(elems))

    @classmethod
    def from_residues(cls, field, N, g, residues, budget=None):
        """All x in G_N congruent mod g to one of the listed residues."""
        rset = {r % g for r in residues}
        return cls(field, N, frozenset(
            x for x in enumerate_GN(field, N, budget) if (x % g) in rset))

    def density(self):
        return Fraction(len(self.elems), gn_size(self.field, self.N))


def density(A):
    """Exact density of A inside its ambient G_N."""
    return A.density()


@dataclass(frozen=True)
class GMBuild:
    modulus: Poly
    root: Poly | None
    factors: tuple        # ((irreducible, exponent), ...) of the modulus
    mode: str             # "literal" | "squarefree"
    reason: str | None    # set when no root exists, naming the failing factor


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gm_degree(q, M, mode="literal"):
    """deg g_M, from closed formulas and without enumerating any irreducible.

    The monics of degree D multiply to degree D * q^D; the monic irreducibles
    of degree d multiply to degree sum over k | d of mu(k) * q^(d/k).
    """
    if mode == "literal":
        return sum(D * q ** D for D in range(1, M))
    return sum(_mobius(k) * q ** (d // k)
               for d in range(1, M) for k in range(1, d + 1) if d % k == 0)


def gm_build(field, M, phi=None, mode="literal", degree_budget=None,
             budget=None):
    """The all-monic modulus below degree M and, given phi, a root mod it.

    M = 1 gives the empty product 1 with root 0.  Roots are resolved factor
    by factor (prime powers included) and merged by CRT; if some factor has
    no root the build reports it instead of a root.
    """
    if M < 1:
        raise DomainError("M must be positive")
    if mode not in ("literal", "squarefree"):
        raise DomainError(f"unknown mode {mode!r}")
    limit = GM_DEGREE_BUDGET if degree_budget is None else degree_budget
    # deg g_M >= q^(M-2) in either mode, so a huge M is refused before the sum
    if M > 2 and exceeds_unprintably(field.q, M - 2, limit):
        raise BudgetError(f"deg g_M >= {field.q}^{M - 2} exceeds the budget {limit}")
    total_deg = gm_degree(field.q, M, mode)
    if total_deg > limit:
        raise BudgetError(f"deg g_M = {total_deg} exceeds the budget {limit}")
    factors = {}
    for d in range(1, M):
        # l of degree d divides q^(D - jd) monics of degree D at least j times
        e = 1 if mode == "squarefree" else sum(
            field.q ** (D - j * d) for j in range(1, (M - 1) // d + 1)
            for D in range(j * d, M))
        for l in irreducibles(field, d):
            factors[l] = e
    fact = tuple(sorted(factors.items(), key=lambda kv: kv[0].code()))
    modulus = field.poly_one
    for l, e in fact:
        modulus = modulus * l ** e
    if phi is None:
        return GMBuild(modulus, None, fact, mode, None)
    if M == 1:
        return GMBuild(modulus, field.poly_zero, fact, mode, None)
    congruences = []
    for l, e in fact:
        prime_power = l ** e
        found = roots_mod(phi, prime_power, budget=budget)
        if not found:
            return GMBuild(modulus, None, fact, mode,
                           f"no root modulo {prime_power}")
        congruences.append((found[0], prime_power))
    return GMBuild(modulus, poly_crt(congruences), fact, mode, None)


@dataclass(frozen=True)
class TmnResult:
    histogram: CharSum
    normalized: float
    exact_one: bool
    modulus_degree: int
    mode: str


def t_mn(phi, alpha, M, N, field, gm=None, mode="literal", budget=None):
    """Normalized character average of alpha * phi(g_M x + root) over G_N.

    The composition is expanded in x (ExpPoly.substitute) and summed by the
    residue engine; this is t_mn_rows at the one N.

    Exactly 1 (all residues 0) whenever alpha is rational with denominator
    dividing g_M; in particular for any monic denominator of degree < M in
    literal mode, since every such polynomial is one of the factors.
    """
    return t_mn_rows(phi, alpha, M, [N], field, gm, mode, budget)[0]


def t_mn_rows(phi, alpha, M, N_list, field, gm=None, mode="literal", budget=None):
    """t_mn at every N of N_list, in list order.

    The composition is expanded once.  Every N is checked before any sum,
    in list order, as t_mn would check it, so the first failing N raises;
    then one engine pass over G_{max N} is cut at each q^N by
    prefix_segments and counted into one running histogram.  G_0 = {0}
    reads the constant term alone, so N = 0 checks only the constant's
    floor, and a list whose largest N is 0 sums the constant alone.
    """
    if gm is None:
        gm = gm_build(field, M, phi, mode=mode, budget=budget)
    if gm.root is None:
        raise HypothesisError(f"modulus has no root: {gm.reason}")
    f = None

    def at(N):  # the polynomial summed over G_N
        return f if N else ExpPoly(field, {0: f.constant()})

    for N in N_list:
        check_power(field.q, N, budget, "congruence average")
        if f is None:
            f = ExpPoly(field, {r: kmul_poly(alpha, c) for r, c in phi.items()})
            f = f.substitute(gm.modulus, gm.root)
        _check_range(field, N, 0, None, None, budget, "character sum")
        _pass_checks(at(N), 1, N, 0, field.q ** N, budget)
    Ns = sorted(set(N_list))
    blocks = _split_blocks(at(Ns[-1]), 1, Ns[-1], 0, field.q ** Ns[-1], budget)
    counts = np.zeros(field.p, dtype=np.int64)
    found = {}
    for N, segment in zip(Ns, prefix_segments(blocks, [field.q ** N for N in Ns])):
        for block in segment:
            counts += np.bincount(block[:, 0], minlength=field.p)
        hist = CharSum(field.p, tuple(counts.tolist()))
        exact_one = hist.is_full() and hist.full_residue() == 0
        found[N] = TmnResult(hist, hist.normalized(), exact_one, gm.modulus.deg, gm.mode)
    return [found[N] for N in N_list]


@dataclass(frozen=True)
class IntersectiveWitness:
    a: Poly
    a_prime: Poly
    x: Poly
    value: Poly

    def verify(self):
        return (self.a - self.a_prime == self.value
                and not self.value.is_zero())


def difference_search(A, phi, x_bound, budget=None):
    """First (a, a', x) with a - a' = phi(x) != 0, or None within the bound.

    Scan order is deterministic: x in enumeration order, then a by code.
    A None is a bounded-search report, not a disproof.  The budget is
    charged the |A| * q^x_bound pair tests.
    """
    if len(A.elems) < 2:
        raise DomainError("the dense set needs at least two elements")
    field = A.field
    check_budget(len(A.elems) * gn_size(field, x_bound, budget, "difference search"),
                 budget, "difference search")
    elems = sorted(A.elems, key=lambda v: v.code())
    elem_set = A.elems
    exps = sorted(r for r in phi if r >= 1 and not phi[r].is_zero())
    const = phi.get(0, field.poly_zero)
    for x in enumerate_GN(field, x_bound, budget):
        val = const
        for r in exps:
            val = val + phi[r] * x ** r
        if val.is_zero():
            continue
        for a in elems:
            a_prime = a - val
            if a_prime in elem_set:
                return IntersectiveWitness(a, a_prime, x, val)
    return None
