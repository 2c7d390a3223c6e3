"""The base-p digit partial order on positive integers and the derived
exponent-set calculus: shadows, the coprime core K*, the stripped index set,
and the iterated-peeling closure.

All functions are pure and work on plain ints and frozensets; p must be prime.
"""
from __future__ import annotations

from typing import NamedTuple

from .algebra import _is_prime
from .errors import DomainError


def preceq(j, r, p):
    """True iff every base-p digit of j is <= the matching digit of r.

    Equivalent to p not dividing binom(r, j).
    """
    if j < 0 or r < 0:
        raise DomainError("digit order is defined on nonnegative integers")
    while j or r:
        if j % p > r % p:
            return False
        j //= p
        r //= p
    return True


def lucas_binom(r, j, p):
    """binom(r, j) mod p via the digitwise product; 0 when j > r."""
    if j < 0 or r < 0:
        raise DomainError("negative binomial arguments")
    out = 1
    while j or r:
        rd, jd = r % p, j % p
        if jd > rd:
            return 0
        num = 1
        den = 1
        for i in range(jd):
            num = (num * (rd - i)) % p
            den = (den * (i + 1)) % p
        out = (out * num * pow(den, p - 2, p)) % p
        r //= p
        j //= p
    return out


def shadow(K, p):
    """All j >= 1 sitting digitwise below some element of K."""
    K = frozenset(K)
    top = max(K, default=0)
    return frozenset(j for j in range(1, top + 1)
                     if any(preceq(j, r, p) for r in K))


def kstar(K, p):
    """Elements of K coprime to p with no p-power multiple inside the shadow.

    The multiplier range is finite: the shadow is bounded by max(K), so only
    p^v k <= max shadow can ever land inside it.  This makes the check exact,
    not an approximation.
    """
    K = frozenset(K)
    sh = shadow(K, p)
    top = max(sh, default=0)
    out = set()
    for k in K:
        if k % p == 0:
            continue
        mult = k * p
        while mult <= top and mult not in sh:
            mult *= p
        if mult > top:
            out.add(k)
    return frozenset(out)


def sprime(K, p):
    """Indices coprime to p whose p-power multiples meet the shadow (v >= 0)."""
    return cal_i(shadow(K, p), p)


def cal_i(K, p):
    """Indices coprime to p whose p-power multiples meet K itself (v >= 0)."""
    out = set()
    for j in frozenset(K):
        while j % p == 0:
            j //= p
        out.add(j)
    return frozenset(out)


def maximal_elements(K, p):
    """Elements of K maximal under the digit order."""
    K = frozenset(K)
    return frozenset(k for k in K
                     if not any(preceq(k, r, p) and r != k for r in K))


def ktilde(K, p):
    """Union of the cores along the peeling K_n = K_{n-1} minus its core.

    Terminates because the set strictly shrinks while the core is nonempty.
    """
    current = frozenset(K)
    out = set()
    while current:
        star = kstar(current, p)
        if not star:
            break
        out |= star
        current -= star
    return frozenset(out)


class DerivedSets(NamedTuple):
    shadow: frozenset
    kstar: frozenset
    sprime: frozenset
    ktilde: frozenset
    maximal: frozenset


def derived_sets(K, p):
    """Every derived set of K, after checking that p is prime and K positive."""
    if not _is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if any(r < 1 for r in K):
        raise DomainError("the digit order is defined on positive integers")
    return DerivedSets(shadow(K, p), kstar(K, p), sprime(K, p),
                       ktilde(K, p), maximal_elements(K, p))
