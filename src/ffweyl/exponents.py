"""The base-p digit partial order on positive integers and the derived
exponent-set calculus: shadows, the coprime core K*, the stripped index set,
and the iterated-peeling closure.

All functions are pure and work on plain ints and frozensets; p must be prime.
"""
from __future__ import annotations

from typing import NamedTuple

from .algebra import _is_prime, check_budget
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
    """All j >= 1 sitting digitwise below some element of K.

    The downward closure of K: from each element, lower one nonzero base-p
    digit by one at a time.
    """
    if any(r < 0 for r in K):
        raise DomainError("digit order is defined on nonnegative integers")
    out = set()
    todo = list(K)
    while todo:
        j = todo.pop()
        if j in out:
            continue
        out.add(j)
        power, rest = 1, j
        while rest:
            if rest % p and j - power not in out:
                todo.append(j - power)
            rest //= p
            power *= p
    out.discard(0)
    return frozenset(out)


def _powers(p, top):
    """The powers 1, p, p^2, ... that do not exceed top."""
    power = 1
    while power <= top:
        yield power
        power *= p


def below_count(r, p):
    """prod_i (d_i(r) + 1), the number of j digitwise below r (0 and r included)."""
    count = 1
    while r:
        count *= r % p + 1
        r //= p
    return count


def _shadow_bound(K, p):
    """An upper bound on the size of the shadow of K, without building it:
    r has below_count(r, p) elements digitwise below it, and the shadow lies
    in [1, max K], so the sum stops once it reaches max K."""
    top, total = max(K, default=0), 0
    for r in K:
        total += below_count(r, p)
        if total >= top:
            return top
    return total


def kstar(K, p):
    """Elements of K coprime to p with no p-power multiple inside the shadow.

    The multiplier range is finite: the shadow is bounded by max(K), so only
    p^v k <= max shadow can ever land inside it.  This makes the check exact,
    not an approximation.
    """
    K = frozenset(K)
    return _core(K, p, shadow(K, p))


def _core(K, p, sh):
    """kstar of the frozenset K, given its shadow sh."""
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
    """Elements of K maximal under the digit order.

    k lies below another element of K iff raising one digit of k below p - 1
    by one lands in the shadow of K.
    """
    K = frozenset(K)
    return _maximal(K, p, shadow(K, p))


def _maximal(K, p, sh):
    """maximal_elements of the frozenset K, given its shadow sh."""
    top = max(K, default=0)
    return frozenset(k for k in K if not any(
        (k // power) % p < p - 1 and k + power in sh for power in _powers(p, top - k)))


def ktilde(K, p):
    """Union of the cores along the peeling K_n = K_{n-1} minus its core.

    Terminates because the set strictly shrinks while the core is nonempty.
    """
    return _peel(frozenset(K), p, kstar(K, p))


def _peel(current, p, star):
    """ktilde of the frozenset current, given its core star."""
    out = set()
    while star:
        out |= star
        current -= star
        star = kstar(current, p)
    return frozenset(out)


class DerivedSets(NamedTuple):
    shadow: frozenset
    kstar: frozenset
    sprime: frozenset
    ktilde: frozenset
    maximal: frozenset


def check_positive(K):
    """DomainError unless every element of K is a positive integer."""
    if any(r < 1 for r in K):
        raise DomainError("the digit order is defined on positive integers")


def derived_sets(K, p, budget=None):
    """Every derived set of K, after checking that p is prime, K positive, and
    the shadow bound within the budget."""
    if not _is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    check_positive(K)
    check_budget(_shadow_bound(K, p), budget, "shadow")
    K = frozenset(K)
    sh = shadow(K, p)
    star = _core(K, p, sh)
    return DerivedSets(sh, star, cal_i(sh, p), _peel(K, p, star), _maximal(K, p, sh))
