import math
import random

import pytest

from ffweyl import exponents
from ffweyl.errors import BudgetError, DomainError
from ffweyl.exponents import (cal_i, derived_sets, kstar, ktilde, lucas_binom,
                              maximal_elements, preceq, shadow, sprime)


def test_preceq_examples():
    assert preceq(7, 7, 2)
    assert preceq(1, 9, 2)       # binom(9,1) = 9 is odd
    assert preceq(3, 5, 3)       # binom(5,3) = 10 = 1 mod 3
    assert not preceq(2, 9, 2)   # binom(9,2) = 36 is even
    with pytest.raises(DomainError):
        preceq(-1, 3, 2)


def test_lucas_binom_examples():
    assert lucas_binom(9, 0, 2) == 1
    assert lucas_binom(9, 2, 2) == 0
    assert lucas_binom(6, 1, 5) == 1
    assert lucas_binom(3, 5, 7) == 0  # j > r


def test_binomial_oracle():
    for p in (2, 3, 5):
        for r in range(65):
            for j in range(68):
                c = math.comb(r, j) % p
                assert lucas_binom(r, j, p) == c
                if 1 <= j:
                    assert preceq(j, r, p) == (c != 0)


def test_partial_order_axioms_exhaustive():
    for p in (2, 3, 5):
        rng_range = range(1, 129)
        for a in rng_range:
            assert preceq(a, a, p)
        for a in range(1, 65):
            for b in range(1, 65):
                if preceq(a, b, p) and preceq(b, a, p):
                    assert a == b
                if preceq(a, b, p):
                    assert a <= b
        # transitivity on a thinner grid
        for a in range(1, 33):
            for b in range(1, 33):
                if not preceq(a, b, p):
                    continue
                for c in range(1, 33):
                    if preceq(b, c, p):
                        assert preceq(a, c, p)


def test_shadow_examples():
    assert shadow({1}, 2) == {1}
    assert shadow({9}, 2) == {1, 8, 9}
    for p in (2, 3, 5):
        assert shadow({p}, p) == {p}
    assert shadow(set(), 3) == frozenset()


def test_kstar_examples():
    assert kstar({9, 5, 3, 1}, 2) == {3, 5, 9}
    assert kstar({1, 3, 16}, 5) == {16}
    assert kstar({3, 20}, 5) == frozenset()


def test_sprime_examples():
    assert sprime({1}, 2) == {1}
    assert sprime({9}, 2) == {1, 9}
    assert sprime({2}, 2) == {1}


def test_ktilde_examples():
    assert ktilde({1, 3, 16}, 5) == {1, 3, 16}
    assert ktilde({3, 20}, 5) == frozenset()
    # all elements coprime to p: the peeling returns everything
    assert ktilde({1, 2, 4, 7}, 5) == {1, 2, 4, 7}
    assert ktilde({1, 3, 5}, 2) == {1, 3, 5}


def test_maximal_examples():
    assert maximal_elements({7}, 2) == {7}
    assert maximal_elements({9, 5, 3, 1}, 2) == {9, 5, 3}
    assert maximal_elements({4, 1}, 3) == {4}


def test_cal_i_examples():
    assert cal_i({3}, 3) == {1}
    assert cal_i({1}, 5) == {1}
    assert cal_i({3, 9, 2}, 3) == {1, 2}


def test_shadow_idempotent_and_lemma_fuzz():
    rng = random.Random(20)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        K = frozenset(rng.sample(range(1, 41), rng.randrange(1, 9)))
        sh = shadow(K, p)
        assert shadow(sh, p) == sh
        # maximality carries over to the shadow
        assert maximal_elements(K, p) <= maximal_elements(sh, p)
        # the core embeds in the shadow's core
        assert kstar(K, p) <= kstar(sh, p)
        # the core is upward closed inside K
        ks = kstar(K, p)
        for k in ks:
            for j in K:
                if preceq(k, j, p):
                    assert j in ks


def test_empty_inputs():
    for fn in (shadow, kstar, sprime, ktilde, maximal_elements, cal_i):
        assert fn(frozenset(), 3) == frozenset()


def _shadow_by_scan(K, p):
    """The shadow by its definition: every j in [1, max K] below some r in K."""
    return frozenset(j for j in range(1, max(K, default=0) + 1)
                     if any(preceq(j, r, p) for r in K))


def _maximal_by_pairs(K, p):
    """Maximal elements by their definition: below no other element of K."""
    return frozenset(k for k in K if not any(preceq(k, r, p) and r != k for r in K))


def test_shadow_and_maximal_match_their_definitions():
    rng = random.Random(1515)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        K = frozenset(rng.sample(range(1, rng.choice((20, 200, 2000))),
                                 rng.randrange(0, 12)))
        assert shadow(K, p) == _shadow_by_scan(K, p), (K, p)
        assert maximal_elements(K, p) == _maximal_by_pairs(K, p), (K, p)


def test_derived_sets_charge_the_shadow_bound():
    # the bound is min(max K, sum over r in K of the count of j <= r digitwise, 0 included)
    with pytest.raises(BudgetError, match="shadow of 7 points exceeds budget 6"):
        derived_sets({7}, 2, budget=6)
    assert derived_sets({7}, 2, budget=7).shadow == set(range(1, 8))
    with pytest.raises(BudgetError, match="shadow of 1073741823 points"):
        derived_sets({2 ** 30 - 1}, 2)
    # the digit count, not max K, binds a sparse set: 2 + 2 for 1 and 2^40
    with pytest.raises(BudgetError, match="shadow of 4 points exceeds budget 3"):
        derived_sets({1, 2 ** 40}, 2, budget=3)
    assert derived_sets({1, 2 ** 40}, 2, budget=4).shadow == {1, 2 ** 40}


def test_shadow_bound_stops_at_max_k(monkeypatch):
    calls = []
    real = exponents.below_count
    monkeypatch.setattr(exponents, "below_count", lambda r, p: calls.append(r) or real(r, p))
    assert exponents._shadow_bound(range(1, 100001), 2) == 100000
    assert len(calls) < 100000
    rng = random.Random(18)
    for p in (2, 3, 5):
        for _ in range(50):
            K = set(rng.sample(range(1, 3000), rng.randrange(1, 6)))
            assert exponents._shadow_bound(K, p) == \
                min(max(K), sum(real(r, p) for r in K))


def test_derived_sets_build_one_shadow_and_match_the_parts(monkeypatch):
    rng = random.Random(17)
    calls = []
    real = exponents.shadow
    monkeypatch.setattr(exponents, "shadow", lambda K, p: calls.append(1) or real(K, p))
    for p in (2, 3, 5):
        for _ in range(25):
            K = set(rng.sample(range(1, 300), rng.randrange(1, 12)))
            del calls[:]
            ds = derived_sets(K, p)
            built = len(calls)
            assert ds == (shadow(K, p), kstar(K, p), sprime(K, p), ktilde(K, p),
                          maximal_elements(K, p))
            # one shadow for the lot, and one more per nonempty core of the peeling
            rounds, current = 0, frozenset(K)
            while star := kstar(current, p):
                rounds, current = rounds + 1, current - star
            assert built == 1 + rounds


def test_derived_sets_bundle():
    ds = derived_sets({9, 5, 3, 1}, 2)
    assert ds.kstar == {3, 5, 9} and ds.maximal == {3, 5, 9}
    assert ds.shadow == {1, 2, 3, 4, 5, 8, 9}
    assert ds.ktilde >= ds.kstar
