import time
import tracemalloc

import pytest

from ffweyl import meanvalue
from ffweyl.errors import BudgetError, DomainError
from ffweyl.exponents import sprime
from ffweyl.meanvalue import growth_table, js_histogram, js_naive, profile

from helpers import field

# Golden values recorded from the naive 2s-tuple oracle (plus, for the
# q=2 K={1,2} case, an independent xor-sum recount).  The s=3 values, beyond
# the oracle's budget, were recorded from a walk over all s-tuples that
# bucketed them by their power sums in polynomial arithmetic.
GOLDEN = {
    (2, (1, 2), 2, 2): 64,
    (2, (1, 3), 2, 2): 40,
    (3, (2,), 2, 1): 15,
    (3, (2,), 2, 2): 153,
    (3, (1, 3), 2, 2): 729,
    (2, (1, 2, 3), 3, 5): 484352,
    (2, (1, 2, 3), 3, 6): 4086784,
}


def test_profile_examples():
    pr = profile({1}, 2)
    assert (pr.psi, pr.phi, pr.kappa, pr.s_min) == (1, 1, 1, 2)
    pr = profile({9}, 2)
    assert (pr.psi, pr.phi, pr.kappa, pr.s_min) == (2, 9, 10, 20)
    pr = profile({3}, 3)
    assert (pr.psi, pr.phi, pr.kappa, pr.s_min) == (1, 1, 1, 2)
    with pytest.raises(DomainError):
        profile(set(), 3)


def test_js_closed_forms():
    F2, F3 = field(2), field(3)
    assert js_naive({1}, 1, 1, F2) == 2                # the diagonal u = v
    assert js_naive({1}, 1, 1, F3) == 3
    assert js_naive({2}, 1, 1, F2) == 2                # squaring injective, p = 2
    assert js_histogram({1}, 1, 2, F2) == 4            # q^N
    assert js_histogram({1}, 2, 1, F3) == 27           # q^3: one linear equation


def test_js_independent_recount_q2():
    # third, structure-free oracle: F_2[t] codes add as xor
    els = range(4)
    by_xor = sum(1 for u1 in els for u2 in els for v1 in els for v2 in els
                 if (u1 ^ u2) == (v1 ^ v2))
    assert js_naive({1, 2}, 2, 2, field(2)) == by_xor == GOLDEN[(2, (1, 2), 2, 2)]


def test_oracle_equivalence_sweep():
    instances = 0
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (8, None),
                       (9, None), (9, "x^2+x+2")):
        F = field(q, modulus)
        for K in ({1}, {2}, {1, 2}, {1, 3}):
            for s in (1, 2):
                for N in (1, 2):
                    if q ** (2 * s * N) > 10 ** 4:
                        continue  # keeps the oracle's scans short
                    a = js_naive(K, s, N, F)
                    b = js_histogram(K, s, N, F)
                    assert a == b, (q, K, s, N)
                    assert a >= q ** (s * N)  # the diagonal lower bound
                    key = (q, tuple(sorted(K)), s, N)
                    if key in GOLDEN:
                        assert a == GOLDEN[key]
                    instances += 1
    assert instances == 92


def test_golden_beyond_the_oracle():
    for (q, K, s, N), want in GOLDEN.items():
        if s == 3:
            assert js_histogram(set(K), s, N, field(q)) == want


def test_histogram_memory_bound():
    # measured peak 8.1 MB (tracemalloc, numpy allocations included)
    tracemalloc.start()
    try:
        js_histogram({1, 2, 3}, 3, 6, field(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10 ** 6


def test_histogram_streams_its_power_table():
    # measured peak 3.5 MB; the whole power table of G_14 peaked at 27 MB
    tracemalloc.start()
    try:
        assert js_histogram({1, 2, 3}, 1, 14, field(2)) == 2 ** 14
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


@pytest.mark.parametrize("block", [1, 40])
def test_histogram_row_blocks_match_the_oracles(monkeypatch, block):
    # a block of one row, and blocks that end inside G_N
    monkeypatch.setattr(meanvalue, "BLOCK", block)
    for (q, K, s, N), want in GOLDEN.items():
        assert js_histogram(set(K), s, N, field(q)) == want, (q, K, s, N)
    for F in (field(4), field(8, "x^3+x^2+1"), field(9, "x^2+x+2")):
        for K in ({1, 2}, {1, 3}):
            assert js_histogram(K, 1, 2, F) == js_naive(K, 1, 2, F), (F, K)


def test_monotone_in_N():
    F2 = field(2)
    for K in ({1}, {1, 2}, {1, 3}):
        values = [js_histogram(K, 2, N, F2) for N in (1, 2, 3)]
        assert values[0] <= values[1] <= values[2]


def test_growth_table():
    F2 = field(2)
    rows = growth_table({1}, 1, [1, 2, 3], F2)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(r[2] == 1 for r in rows)  # J = q^N and 2s - kappa = 1
    rows = growth_table({1, 2}, 2, [1, 2], F2)
    assert rows[0][1] == js_histogram({1, 2}, 2, 1, F2)


def test_budget_errors():
    F3 = field(3)
    with pytest.raises(BudgetError):
        js_naive({1}, 3, 3, F3)  # 3^18 far beyond the naive budget
    with pytest.raises(BudgetError):
        js_histogram({1}, 2, 3, F3, budget=10)


def test_int64_count_guard():
    F2 = field(2)
    # 2^63 tuples would overflow an int64 count, whatever the budget
    with pytest.raises(DomainError, match="int64"):
        js_histogram({1}, 3, 21, F2, budget=1 << 70)
    # 2^62 passes the guard and is refused by the G_31 enumeration instead
    with pytest.raises(BudgetError, match="enumeration"):
        js_histogram({1}, 2, 31, F2, budget=1 << 70)


def test_bad_arguments_raise_domain_errors():
    F2 = field(2)
    for K, s, N in (({1}, -1, 1), ({1}, 1, -1), ({0}, 1, 1), ({-3}, 1, 1),
                    ({0, 1}, 1, 1), (set(), 1, 1)):
        for fn in (js_naive, js_histogram):
            with pytest.raises(DomainError):
                fn(K, s, N, F2)
    for K in ({0}, {-3, 2}):
        with pytest.raises(DomainError):
            profile(K, 2)


def test_reduced_exponents_drive_the_system():
    # the counted system only involves the coprime representatives
    F2 = field(2)
    assert sprime({2}, 2) == {1}
    assert js_naive({2}, 2, 1, F2) == js_naive({1}, 2, 1, F2)


def test_growth_table_checks_every_n_before_any_count():
    F2 = field(2)
    start = time.perf_counter()
    # 2^25 tuples at N = 25 exceed the budget; a list of the range would not fit
    with pytest.raises(BudgetError, match="^histogram mean-value scan of 33554432 points"):
        growth_table(frozenset({1, 2}), 1, range(1, 10 ** 12), F2)
    assert time.perf_counter() - start < 1
    with pytest.raises(DomainError, match="s and N must be nonnegative"):
        growth_table(frozenset({1, 2}), 1, [3, -1, 30], F2)
    assert [row[:2] for row in growth_table(frozenset({1}), 1, range(3, 0, -1), F2)] == \
        [(1, 2), (2, 4), (3, 8)]


def test_js_charges_its_power_table():
    # K' = {1, 3} at p = 2 and N = 18: 2^18 rows of x^0..x^3, 1 + 18 + 35 + 52 coefficients
    with pytest.raises(BudgetError,
                       match="^power table of 27787264 points exceeds budget 16777216"):
        js_histogram([1, 2, 3], 1, 18, field(2))
