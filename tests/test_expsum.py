import json
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ffweyl import equidist, expsum, sieve
from ffweyl.algebra import Poly, enumerate_GN, parse_poly, poly_from_index
from ffweyl.equidist import cylinder_counts, discrepancy, weyl_scan
from ffweyl.errors import BudgetError, DomainError, PrecisionError
from ffweyl.expsum import (CharSum, ExpPoly, count_rows, e_of, fractional_digit_rows,
                           orthogonality, twisted_sum, weyl_residues, weyl_sum)
from ffweyl.exponents import lucas_binom
from ffweyl.kinfty import RationalK, TruncSeries, kernel_element, parse_kelem

from helpers import (ax_katz_exponent, dense_power_table, direct_traces, every_field, field,
                     rand_completion, rand_exppoly, rand_monic, rand_nonzero_poly, rand_poly, rand_rational,
                     rand_series, substitute_oracle, t_mn_loop, weyl_scan_loop)


def lin(F, alpha):
    return ExpPoly(F, {1: alpha})


def ax_katz_holds(counts, f, N, depth=None):
    """Whether p^ax_katz_exponent(f, N, depth) divides every count."""
    unit = f.field.p ** ax_katz_exponent(f, N, depth)
    return all(int(c) % unit == 0 for c in counts)


def test_charsum_basics():
    s = CharSum(3, (4, 4, 4))
    assert s.is_zero() and not s.is_full()
    assert s.magnitude() < 1e-12
    f = CharSum(3, (0, 9, 0))
    assert f.is_full() and f.full_residue() == 1
    assert (s + f).counts == (4, 13, 4)
    assert s.scale(2).counts == (8, 8, 8)
    with pytest.raises(DomainError):
        CharSum(3, (1, 2))


def test_charsum_reaches_decides_ties_exactly():
    # at p = 2 and 3, |S|^2 is an integer: one below the bound, and a full
    # sum whose float magnitude reads one ulp low
    assert not CharSum(2, (5, 1)).reaches(5) and CharSum(2, (5, 1)).reaches(4)
    full = CharSum(3, (0, 27, 0))
    assert full.magnitude() < 27 and full.reaches(27)
    assert not full.reaches(Fraction(27) + Fraction(1, 10 ** 12))
    # exact ties at p = 5 and 7, some of whose magnitudes read low, others high
    ties = ((5, (1, 1, 0, 1, 1), 1), (5, (0, 0, 0, 3, 0), 3),
            (7, (0, 0, 2, 3, 3, 0, 3), 4), (7, (1, 0, 0, 2, 1, 1, 0), 2))
    for p, counts, size in ties:
        s = CharSum(p, counts)
        assert s.reaches(size) and s.reaches(Fraction(size) - Fraction(1, 10 ** 9))
        assert not s.reaches(Fraction(size) + Fraction(1, 10 ** 9)), counts
    assert {CharSum(p, c).magnitude() < size for p, c, size in ties} == {True, False}
    # no tie: |2 + zeta| = 2.497... at p = 5
    assert CharSum(5, (2, 1, 0, 0, 0)).reaches(2)
    assert not CharSum(5, (2, 1, 0, 0, 0)).reaches(Fraction(5, 2))


def test_e_of_examples():
    F2, F3 = field(2), field(3)
    assert e_of(RationalK(F2.poly_zero)) == 0
    assert e_of(RationalK(F2.poly_one, F2.poly_t)) == 1
    al = TruncSeries.from_digits(F3, -4, {-1: 2, -2: 1})
    assert e_of(al) == 2
    with pytest.raises(PrecisionError):
        e_of(TruncSeries(F3, 0, (1,)))


def test_weyl_sum_paper_values():
    F3 = field(3)
    s = weyl_sum(lin(F3, RationalK(F3.poly_one, parse_poly(F3, "t^3"))), 2)
    assert s.counts == (9, 0, 0)
    s = weyl_sum(lin(F3, RationalK(F3.poly_one, F3.poly_t)), 1)
    assert s.counts == (1, 1, 1) and s.is_zero()
    s = weyl_sum(ExpPoly(F3, {}), 2)
    assert s.counts == (9, 0, 0)


def test_twisted_sum_examples():
    F2 = field(2)
    f = lin(F2, RationalK(F2.poly_one, parse_poly(F2, "t^2")))
    assert twisted_sum(f, F2.poly_one, 2).counts == weyl_sum(f, 2).counts
    assert twisted_sum(f, F2.poly_zero, 2).counts == (4, 0)
    assert twisted_sum(f, F2.poly_t, 1).counts == (1, 1)
    # the zero twist reads no digit, so a series too shallow for N is no error
    shallow = ExpPoly(F2, {3: TruncSeries.from_digits(F2, -2, {-1: 1})})
    with pytest.raises(PrecisionError):
        twisted_sum(shallow, F2.poly_one, 3)
    assert twisted_sum(shallow, F2.poly_zero, 3).counts == (8, 0)
    assert twisted_sum(shallow, F2.poly_zero, 3, 2, 7).counts == (5, 0)


def test_orthogonality_exhaustive_small():
    for q in (2, 3):
        F = field(q)
        for dg in range(0, 4):
            for gi in range(F.q ** dg):
                low = poly_from_index(F, gi, dg).coeffs
                g = Poly(F, list(low) + [0] * (dg - len(low)) + [1])
                n_as = F.q ** dg if dg else 1
                for ai in range(n_as):
                    a = poly_from_index(F, ai, dg) if dg else F.poly_zero
                    al = RationalK(a, g)
                    for N in (1, 2, 3):
                        verdict = orthogonality(al, N)
                        s = weyl_sum(lin(F, al), N)
                        if verdict == "full":
                            assert s.counts[0] == F.q ** N
                        else:
                            assert s.is_zero()


def test_orthogonality_series_certification():
    F2 = field(2)
    s = TruncSeries.from_digits(F2, -4, {-3: 1})
    assert orthogonality(s, 3) == "zero"   # the digit at -3 is inside the window
    assert orthogonality(s, 2) == "full"   # digits -1, -2 vanish
    assert orthogonality(TruncSeries.from_digits(F2, -4, {}), 4) == "full"
    with pytest.raises(PrecisionError):
        orthogonality(TruncSeries.from_digits(F2, -4, {}), 6)


def test_histogram_conservation_fuzz():
    rng = random.Random(30)
    for _ in range(40):
        F = field(rng.choice((2, 3, 5)))
        N = rng.randrange(0, 4)
        f = rand_exppoly(rng, F)
        assert weyl_sum(f, N).total == F.q ** N


def _slices(rng, q, N):
    """Index slices of G_N: empty, one row, one across a q^(N//2) block edge, random."""
    total, block = q ** N, q ** (N // 2)
    out = [(0, 0), (total - 1, total)]
    if total > block:
        edge = block * rng.randrange(1, total // block)
        out.append((edge - 1, edge + 1))
    lo = rng.randrange(total + 1)
    out.append((lo, rng.randrange(lo, total + 1)))
    return out


def test_split_vs_direct_vs_evaluate():
    rng = random.Random(31)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for N in range(6 if q <= 5 else 4):
            f = rand_exppoly(rng, F, max_exp=rng.choice((4, 6, 9)))
            rs = weyl_residues(f, N)
            assert (rs == weyl_residues(f, N, method="direct")).all()
            assert ax_katz_holds(np.bincount(rs, minlength=F.p), f, N)
            for lo, hi in _slices(rng, q, N):
                part = weyl_residues(f, N, lo, hi)
                assert (part == rs[lo:hi]).all()
                assert (weyl_residues(f, N, lo, hi, method="direct") == part).all()
                for i in range(lo, min(hi, lo + 2)):
                    x = poly_from_index(F, i, N)
                    assert e_of(f.evaluate(x)) == int(part[i - lo])
            # every point of G_N for N <= 2, the first q^2 points beyond
            for x, r in zip(enumerate_GN(F, min(N, 2)), rs):
                assert e_of(f.evaluate(x)) == int(r)


def test_evaluation_method_and_range_checks():
    F3 = field(3)
    f = lin(F3, RationalK(F3.poly_one, F3.poly_t))
    for bad in ("table", "split", ""):
        with pytest.raises(DomainError):
            weyl_residues(f, 2, method=bad)
        with pytest.raises(DomainError):
            fractional_digit_rows(f, 2, 1, method=bad)
    for call in (lambda: weyl_residues(f, -1), lambda: fractional_digit_rows(f, -1, 1),
                 lambda: weyl_residues(f, 2, 5, 4), lambda: fractional_digit_rows(f, 2, 1, 0, 10)):
        with pytest.raises(DomainError):
            call()


def test_twist_linearity_pointwise():
    rng = random.Random(32)
    F2 = field(2)
    for _ in range(20):
        N = rng.randrange(1, 4)
        f = rand_exppoly(rng, F2, floor=-50)
        m1 = rand_poly(rng, F2, 2)
        m2 = rand_poly(rng, F2, 2)
        r1 = weyl_residues(f.scale_poly(m1), N)
        r2 = weyl_residues(f.scale_poly(m2), N)
        r12 = weyl_residues(f.scale_poly(m1 + m2), N)
        assert ((r1 + r2) % F2.p == r12).all()


def test_partition_merge_determinism():
    rng = random.Random(33)
    F3 = field(3)
    f = rand_exppoly(rng, F3, floor=-60)
    N = 3
    whole = weyl_sum(f, N)
    for _ in range(10):
        cuts = sorted(rng.sample(range(1, 27), 3))
        parts = []
        lo = 0
        for hi in cuts + [27]:
            parts.append(weyl_sum(f, N, lo=lo, hi=hi))
            lo = hi
        merged = parts[0]
        for part in parts[1:]:
            merged = merged + part
        assert merged == whole


def test_precision_and_budget_errors():
    F2 = field(2)
    shallow = TruncSeries.from_digits(F2, -2, {-1: 1})
    with pytest.raises(PrecisionError):
        weyl_sum(ExpPoly(F2, {3: shallow}), 3)
    with pytest.raises(BudgetError):
        weyl_sum(ExpPoly(F2, {}), 24, budget=1 << 10)


def test_digit_rows_charge_each_digit_coordinate():
    F4 = field(4)
    f = ExpPoly(F4, {1: rand_rational(random.Random(40), F4, 2)})
    shallow = ExpPoly(F4, {2: TruncSeries.from_digits(F4, -2, {-1: 1})})
    for method in (None, "direct"):
        # q^N * depth * log_p(q) = 16 * 3 * 2, charged before any floor is read
        for g in (f, shallow):
            with pytest.raises(BudgetError) as err:
                fractional_digit_rows(g, 2, 3, method=method, budget=95)
            assert str(err.value) == "cylinder count of 96 points exceeds budget 95"
        assert fractional_digit_rows(f, 2, 3, method=method, budget=96).shape == (16, 3)


def test_kernel_certificate():
    # sampled-digit zeros force the full sum at the characteristic exponent
    for q in (2, 3):
        F = field(q)
        al = kernel_element(F, -40, 3)
        f = ExpPoly(F, {q: al})
        for N in range(1, 7):
            assert weyl_sum(f, N).counts[0] == q ** N


def test_fractional_digit_rows_paths_agree():
    rng = random.Random(34)
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                       (9, None), (8, "x^3+x^2+1"), (9, "x^2+x+2")):
        F = field(q, modulus)
        for _ in range(6):
            N = rng.randrange(1, 4 if q <= 4 else 3)
            f = rand_exppoly(rng, F, max_exp=4, floor=-50)
            a = fractional_digit_rows(f, N, 3)
            b = fractional_digit_rows(f, N, 3, method="direct")
            assert a.shape == b.shape == (F.q ** N, 3) and a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
            lo = rng.randrange(len(a) + 1)
            hi = rng.randrange(lo, len(a) + 1)
            assert np.array_equal(fractional_digit_rows(f, N, 3, lo, hi), a[lo:hi])
            # digit 1 of the rows matches the residue source of e_of
            for row, x in zip(a[:16], enumerate_GN(F, N)):
                assert row[0] == f.evaluate(x).digit(-1)
        # q^70 is past int64, where twist indices beta_c q^s no longer fit
        f = rand_exppoly(rng, F, max_exp=4, floor=-90, with_const=1)
        deep = fractional_digit_rows(f, 2, 70)
        assert deep.dtype == np.int64 and deep.shape == (F.q ** 2, 70)
        assert deep.tobytes() == fractional_digit_rows(f, 2, 70, method="direct").tobytes()
    # q^depth above 2^63: the rows' packed int64 keys need a rank step
    F = field(9)
    for _ in range(3):
        f = ExpPoly(F, {r: rand_rational(rng, F, 3) for r in (1, 2, 4)})
        direct = fractional_digit_rows(f, 2, 20, method="direct")
        tab = cylinder_counts(f, 2, 20)
        assert tab.counts == cylinder_counts(f, 2, 20, method="direct").counts
        assert tab.counts == Counter(map(tuple, direct.tolist()))
        assert all(type(c) is int for key in tab.counts for c in key)


def _counter_oracle(rows, weights):
    counts = Counter()
    for row, w in zip(rows.tolist(), weights.tolist()):
        counts[tuple(row)] += w
    return sorted(counts.items())


def _rows_from_pool(rng, q, n, width, dtype, pool):
    """n rows drawn from `pool` random rows, so that most rows repeat."""
    distinct = rng.integers(0, q, size=(pool, width))
    return distinct[rng.integers(0, pool, size=n)].astype(dtype)


@pytest.mark.parametrize("q, width, dtype, rank_steps", [
    (2, 3, np.int64, 0),     # one key
    (7, 22, np.int64, 0),    # 7^22 < 2^63: still one key
    (127, 9, np.int8, 0),
    (9, 24, np.int64, 1),    # 9^20 > 2^63: one rank step
    (9, 21, np.int8, 1),
    (2, 200, np.int8, 3),    # p = 2, several rank steps
    (2, 89, np.int64, 1),
])
def test_count_rows_matches_a_counter(monkeypatch, q, width, dtype, rank_steps):
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    rng = np.random.default_rng(q * 1000 + width)
    for trial in range(6):
        n = int(rng.integers(200, 400))
        pool = 150 if trial == 0 else int(rng.integers(1, 150))
        rows = _rows_from_pool(rng, q, n, width, dtype, pool)
        if trial % 2:
            rows[:, rng.integers(0, width)] = 0  # an all-zero column
        weights = rng.integers(0, 1 << 40, size=n)
        calls.clear()
        distinct, sums = count_rows(rows, weights)
        oracle = _counter_oracle(rows, weights)
        assert distinct.dtype == rows.dtype and sums.dtype == np.int64
        assert [tuple(r) for r in distinct.tolist()] == [r for r, _ in oracle]
        assert sums.tolist() == [w for _, w in oracle]
        # a column of zeros or a pool of one row can make rows narrower than q^width
        assert len(calls) <= rank_steps
        if trial == 0:
            assert len(calls) == rank_steps


def test_count_rows_small_cases():
    w = np.array([1 << 40], dtype=np.int64)
    one = np.array([[3, 0, 5]], dtype=np.int8)
    distinct, sums = count_rows(one, w)
    assert distinct.tolist() == [[3, 0, 5]] and sums.tolist() == [1 << 40]
    same = np.repeat(one, 1000, axis=0)
    distinct, sums = count_rows(same, np.full(1000, 1 << 40, dtype=np.int64))
    assert distinct.tolist() == [[3, 0, 5]] and sums.tolist() == [1000 << 40]
    zeros = np.zeros((5, 4), dtype=np.int64)
    distinct, sums = count_rows(zeros, np.arange(5, dtype=np.int64))
    assert distinct.tolist() == [[0, 0, 0, 0]] and sums.tolist() == [10]


@pytest.mark.parametrize("q, width, dtype", [
    (2, 1, np.int64), (2, 3, np.int64), (7, 4, np.int8), (3, 12, np.int64), (2, 70, np.int8)])
def test_unweighted_count_rows_matches_a_counter(q, width, dtype):
    rng = np.random.default_rng(q * 100 + width)
    for pool in (1, 5, 300):
        rows = _rows_from_pool(rng, q, 400, width, dtype, pool)
        distinct, sizes = count_rows(rows)
        oracle = _counter_oracle(rows, np.ones(len(rows), dtype=np.int64))
        assert distinct.dtype == rows.dtype and sizes.dtype == np.int64
        assert [tuple(r) for r in distinct.tolist()] == [r for r, _ in oracle]
        assert sizes.tolist() == [w for _, w in oracle]


def test_count_stream_matches_one_count(monkeypatch):
    sorts = []
    for name in ("argsort", "unique"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, **k: sorts.append(1) or _real(*a, **k))
    rng = np.random.default_rng(41)
    big = (1 << 50) + 1  # 1000 of them sum past 2^53, where float64 is inexact
    # 3^5 = 243 cells: BLOCK 50 merges as well as waiting chunks, 242 is just
    # below the dense table and 243 at it
    for block in (50, 242, 243):
        monkeypatch.setattr(expsum, "BLOCK", block)
        for weighted in (False, True):
            for pool in (1, 3, 40, 2000):
                chunks = [_rows_from_pool(rng, 3, int(rng.integers(1, 120)), 5, np.int64, pool)
                          for _ in range(int(rng.integers(1, 30)))]
                weights = [rng.integers(1, 1 << 30, size=len(c)) if weighted else None
                           for c in chunks]
                if weighted and pool == 1:
                    chunks = np.split(np.repeat(chunks[0][:1], 1000, axis=0), [1, 400])
                    weights = [np.full(len(c), big, dtype=np.int64) for c in chunks]
                sorts.clear()
                distinct, sums = expsum.count_stream(zip(chunks, weights), 3)
                assert not sorts if block >= 243 else sorts
                rows = np.concatenate(chunks)
                want = count_rows(rows, np.concatenate(weights) if weighted else None)
                assert np.array_equal(distinct, want[0]) and np.array_equal(sums, want[1])
                assert distinct.dtype == rows.dtype and sums.dtype == np.int64
                if weighted and pool == 1:
                    assert sums.tolist() == [1000 * big]


def test_weyl_scan_makes_one_engine_pass_at_max_n(monkeypatch):
    seen = []
    _record_blocks(monkeypatch, seen)
    rng = random.Random(42)
    for q, D, depth in ((2, 3, 2), (4, 1, 3), (9, 2, None), (3, 2, 5)):
        F = field(q)
        f = ExpPoly(F, {1: rand_rational(rng, F, 3), 3: rand_rational(rng, F, 2)})
        seen.clear()
        weyl_scan(f, [3, 1, 2], D, depth)
        assert [(N, width) for _, N, width, _ in seen] == [(3, max(D, depth or 1) * F.m)]


def test_scan_and_cylinder_counts_memory_bound():
    F2 = field(2)
    f = ExpPoly(F2, {3: kernel_element(F2, -80, 1),
                     1: RationalK(F2.poly_one, parse_poly(F2, "t^3+t+1"))})
    results = []
    for call in (lambda: weyl_scan(f, [20], 2, depth=3).rows[0].discrepancy,
                 lambda: discrepancy(cylinder_counts(f, 20, 3), 2)):
        call()
        tracemalloc.start()
        try:
            results.append(call())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 3.8 and 4.3 MB; 2^20 rows of three int64 digits alone take 24 MB
        assert peak < 8 << 20, peak
    assert results == [Fraction(1, 1024)] * 2


def test_deep_digit_rows_memory_bound():
    F2 = field(2)
    f = ExpPoly(F2, {1: RationalK(parse_poly(F2, "t+1"), parse_poly(F2, "t^5+t^2+1")),
                     3: RationalK(F2.poly_one, parse_poly(F2, "t^7+t+1"))})
    direct = fractional_digit_rows(f, 3, 2000, method="direct")
    tracemalloc.start()
    try:
        rows = fractional_digit_rows(f, 3, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, direct)
    # measured peak 1.0 MB; a (depth x depth) int64 array alone would be 32 MB
    assert peak < 4 << 20, peak


def test_cylinder_counts_memory_bound():
    F2 = field(2)
    f = ExpPoly(F2, {3: kernel_element(F2, -80, 1)})
    cylinder_counts(f, 16, 3)
    tracemalloc.start()
    try:
        tab = cylinder_counts(f, 16, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.total == 2 ** 16 and discrepancy(tab, 2) == Fraction(5, 2048)
    # measured peak 4.0 MB (4.5 MB with a column-wise lexsort)
    assert peak < 8 << 20, peak


def test_trace_codes_invert_the_basis_traces():
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                       (9, None), (8, "x^3+x^2+1"), (9, "x^2+x+2")):
        F = field(q, modulus)
        codes = expsum._trace_codes(F)
        assert len(codes) == F.q and sorted(codes.tolist()) == list(F.elements())
        for d in F.elements():
            traces = [F.trace(F.mul(F.p ** k, d)) for k in range(F.m)]
            assert codes[F.from_coords(traces)] == d
        if F.m == 1:
            assert codes.tolist() == list(F.elements())


def test_digit_rows_name_the_requested_depth():
    F3 = field(3)
    f = ExpPoly(F3, {2: parse_kelem(F3, "t^-1 + 2*t^-3 + O(t^-6)")})
    text = "coefficient of u^2 has floor -6; needs -9 for depth-3 evaluation over G_4"
    for method in (None, "direct"):
        with pytest.raises(PrecisionError) as err:
            fractional_digit_rows(f, 4, 3, method=method)
        assert str(err.value) == text
        with pytest.raises(PrecisionError) as err:
            cylinder_counts(f, 4, 3, method=method)
        assert str(err.value) == text


def test_lucas_pairs_match_the_binomial_loop():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for r in list(range(40)) + [rng.randrange(40, 3000) for _ in range(30)]:
            want = tuple((j, c) for j in range(r + 1) if (c := lucas_binom(r, j, p)))
            assert expsum._lucas_pairs(r, p) == want, (r, p)


def table_keys(exps, p):
    """The powers _power_table returns: 0, 1 and every e digitwise below an
    exponent of exps that is no power p^i, i >= 1, which the table builds
    only as a step toward higher powers."""
    below = {j for r in exps for j in range(r + 1) if lucas_binom(r, j, p)}
    return {0, 1} | {e for e in below if expsum._p_power(e, p) is None}


def test_power_table_matches_the_dense_oracle():
    rng = random.Random(17)
    fields = [field(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [
        field(4, "x^2+x+1"), field(8, "x^3+x^2+1"), field(9, "x^2+x+2")]
    for F in fields:
        for n in range(4):
            rows = min(F.q ** n, 40)
            for _ in range(4):
                exps = [0] + rng.sample(range(1, 60), rng.randrange(1, 4))
                table = expsum._power_table(F, n, exps, rows)
                assert set(table) == table_keys(exps, F.p), (F, n, exps)
                dense, starts = dense_power_table(F, n, max(exps), rows)
                for e, block in table.items():
                    assert np.array_equal(block, dense[:, starts[e]:starts[e + 1]]), (F, n, e)


def test_power_table_matches_poly_powers():
    # p-powers are placed, and checked through the products built on them
    # (x^(p+1), x^(2p), x^(p^2+2p+1)); products at q = p are int64
    # multiply-adds: all against x ** e in Poly arithmetic, over a count and
    # an index array of rows
    rng = random.Random(19)
    for F in every_field() + [field(4, "x^2+x+1")]:
        p, q, m = F.p, F.q, F.m
        sets = [[p], [p * p], [q], [p + 1], [2 * p], [4, 3, 1], [p * p + 2 * p + 1, q + 1]]
        for n in range(5):
            deg = max(n - 1, 0)
            picked = np.array(sorted(rng.sample(range(q ** n), min(q ** n, 6))))
            for exps in sets:
                for rows in (min(q ** n, 6), picked):
                    table = expsum._power_table(F, n, exps, rows)
                    assert set(table) == table_keys(exps, p), (F, n, exps)
                    for row, i in enumerate(np.arange(rows) if np.ndim(rows) == 0 else rows):
                        x = poly_from_index(F, int(i), n)
                        for e, block in table.items():
                            codes = list((x ** e).coeffs) + [0] * (e * deg + 1)
                            want = [c // p ** k % p for c in codes[:e * deg + 1] for k in range(m)]
                            assert block[row].tolist() == want, (F, n, exps, int(i), e)


def test_slices_build_only_the_rows_they_read(monkeypatch):
    built = []
    power_table = expsum._power_table

    def spy(field, n, exps, rows):
        table = power_table(field, n, exps, rows)
        built.append(len(table[0]))
        return table

    monkeypatch.setattr(expsum, "_power_table", spy)
    rng = random.Random(20)
    for F, N in ((field(2), 7), (field(3), 5), (field(4), 5), (field(9), 3)):
        f = rand_exppoly(rng, F, max_exp=4, floor=-40)
        qh, total = F.q ** (N // 2), F.q ** N
        third = total // 3
        for lo, hi in ((0, third), (third, 2 * third), (2 * third, total), (total - 1, total)):
            built.clear()
            assert np.array_equal(weyl_residues(f, N, lo, hi),
                                  weyl_residues(f, N, lo, hi, method="direct")), (F, N, lo)
            first, last = lo // qh, -(-hi // qh)
            assert built == [qh + last - first if first > qh else max(qh, last)], (F, N, lo)
        assert first > qh  # the last slices lie past x_lo


def test_power_table_builds_only_the_shadow():
    # 4000 has six nonzero binary digits: 64 powers, not 4001, and the six
    # powers of 2 among them are steps the table does not return
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = expsum._power_table(field(2), 2, [4000], 4)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 0.02-0.06 s and 8 MB; the dense table to x^4000 took 3 s and 490 MB
    assert elapsed < 0.5 and peak < 32 << 20, (elapsed, peak)
    assert len(table) == 59 and table[4000].shape == (4, 4001)


def test_high_powers_match_the_direct_path():
    rng = random.Random(18)
    for q, r in ((2, 2048), (3, 487), (4, 256), (5, 126), (9, 82)):
        F = field(q)
        f = ExpPoly(F, {r: rand_rational(rng, F, 3), 1: rand_rational(rng, F, 2)})
        assert list(weyl_residues(f, 3)) == list(weyl_residues(f, 3, method="direct")), (q, r)


def test_power_table_is_charged_before_it_is_built():
    F2 = field(2)
    c = RationalK(F2.poly_one, parse_poly(F2, "t+1"))
    # u^(2^20 - 1) reads 2^20 powers; x^0..x^(2^20 - 1) have 2^19 (2^20 + 1) coefficients
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^power table of 2199025352704 points"):
        weyl_sum(ExpPoly(F2, {(1 << 20) - 1: c}), 3)
    assert time.perf_counter() - start < 0.5
    # over G_3, 4 rows: u^3 is charged x^0..x^3, 1 + 2 + 3 + 4 coefficients,
    # and u^8 its 2 powers x^0 and x^8, each charged as wide as x^8
    for r, entries in ((3, 40), (8, 72)):
        with pytest.raises(BudgetError, match=f"^power table of {entries} points"):
            weyl_sum(ExpPoly(F2, {r: c}), 3, budget=entries - 1)
        assert weyl_sum(ExpPoly(F2, {r: c}), 3, budget=entries).total == 8


def test_substitute_matches_the_binomial_loop():
    rng = random.Random(32)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for _ in range(6):
            f = rand_exppoly(rng, F, max_exp=30, floor=-30)
            a, b = rand_poly(rng, F, 2), rand_poly(rng, F, 2)
            assert f.substitute(a, b) == substitute_oracle(f, a, b)


def test_substitute_time_follows_the_shadow():
    # one binomial per j <= r took 0.5-1.1 s for r = 2^20 on a 2-vCPU Xeon VM;
    # the shadow has 2 elements
    F = field(2)
    f = ExpPoly(F, {2 ** 20: RationalK(F.poly_one, parse_poly(F, "t^3+t+1"))})
    t0 = time.perf_counter()
    g = f.substitute(-F.poly_one, F.poly_zero)
    assert time.perf_counter() - t0 < 0.1
    assert g == f


def test_exppoly_json_roundtrip():
    F3 = field(3)
    f = ExpPoly(F3, {
        3: RationalK(F3.poly_one, parse_poly(F3, "t^2+1")),
        1: TruncSeries.from_digits(F3, -20, {-1: 2, -7: 1}),
        0: RationalK(parse_poly(F3, "t"), parse_poly(F3, "t^2+t+1")),
    })
    back = ExpPoly.from_json(json.loads(json.dumps(f.to_json())))
    assert back == f
    kern = ExpPoly.from_json({"field": "q=2", "terms": [
        {"exp": 2, "coeff": {"kernel": {"floor": -20, "seed": 5}}}]})
    assert kern.coeff(2) == kernel_element(field(2), -20, 5)
    with pytest.raises(DomainError):
        ExpPoly.from_json({"field": "q=2", "terms": [
            {"exp": 1, "coeff": {"bogus": 1}}]})
    for broken in ({"field": "q=2"}, {"terms": []},
                   {"field": "q=2", "terms": [{"coeff": {"rat": ["1", "t"]}}]},
                   {"field": "q=2", "terms": [{"exp": 1}]},
                   {"field": "q=2", "terms": [{"exp": 1, "coeff": {"kernel": {}}}]}):
        with pytest.raises(DomainError):
            ExpPoly.from_json(broken)


def test_exppoly_drops_exact_zero_and_rejects_negative():
    F2 = field(2)
    f = ExpPoly(F2, {2: RationalK(F2.poly_zero), 1: RationalK(F2.poly_one)})
    assert f.support() == {1}
    with pytest.raises(DomainError):
        ExpPoly(F2, {-1: RationalK(F2.poly_one)})


def _record_blocks(monkeypatch, seen):
    """Wrap the engine, at every import site, so that each call appends
    (q^(N//2), N, width, blocks) to seen, each block as (start, columns, points)."""
    engine = expsum._split_blocks

    def recording(f, width, N, lo, hi, budget=None):
        blocks = []
        seen.append((f.field.q ** (N // 2), N, width, blocks))
        for start, block in engine(f, width, N, lo, hi, budget):
            blocks.append((start, block.shape[1], len(block)))
            yield start, block

    for module in (expsum, equidist):
        monkeypatch.setattr(module, "_split_blocks", recording)


@pytest.mark.parametrize("block", [1, 7, 64, expsum.BLOCK])
def test_engine_matches_the_direct_oracle(monkeypatch, block):
    monkeypatch.setattr(expsum, "BLOCK", block)
    seen = []
    _record_blocks(monkeypatch, seen)
    rng = random.Random(35)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for N in range(7 if q <= 3 else 4 if q <= 5 else 3):
            top = rng.choice((1, 2, 3, 5))
            fs = [rand_exppoly(rng, F, max_exp=top, max_terms=min(top, 3), floor=-60)
                  for _ in range(rng.randrange(1, 6))]
            slices = _slices(rng, q, N)
            for f in fs:
                direct = weyl_residues(f, N, method="direct")
                residues = weyl_residues(f, N)
                assert residues.shape == (q ** N,) and residues.dtype == np.int64
                assert np.array_equal(residues, direct)
                hist = weyl_sum(f, N)
                assert hist == CharSum.from_residues(F.p, direct)
                assert ax_katz_holds(hist.counts, f, N)
                for lo, hi in slices:
                    assert np.array_equal(weyl_residues(f, N, lo, hi), direct[lo:hi])
                    assert weyl_sum(f, N, lo, hi) == CharSum.from_residues(F.p, direct[lo:hi])
            rows = fractional_digit_rows(fs[0], N, 3)
            assert np.array_equal(rows, fractional_digit_rows(fs[0], N, 3, method="direct"))
            assert ax_katz_holds(np.unique(rows, axis=0, return_counts=True)[1], fs[0], N, 3)
            lo, hi = _slices(rng, q, N)[-1]
            assert np.array_equal(fractional_digit_rows(fs[0], N, 3, lo, hi), rows[lo:hi])
    # every block carries every member in the same columns, and outgrows the
    # block size only within one row of x_hi, which holds q^h points
    for qh, _, width, blocks in seen:
        assert len({columns for _, columns, _ in blocks}) <= 1
        assert all(width * points <= block or start // qh == (start + points - 1) // qh
                   for start, _, points in blocks)
    if block in (7, 64):
        # the small sizes split the 3m members of digit rows into several row blocks
        assert any(len(blocks) > 1 and width > 1 for _, _, width, blocks in seen)


@pytest.mark.parametrize("q, N, exps, depth, g", [
    (2, 18, (1, 2, 3), 3, 3), (2, 20, (1, 2, 3), 2, 2), (2, 22, (3, 5, 6), 1, 1),
    (3, 12, (1, 2, 3), 2, 2), (3, 13, (3, 5, 6), 2, 1), (3, 14, (5,), 1, 1)])
def test_large_passes_keep_the_ax_katz_divisibility(q, N, exps, depth, g):
    """Passes over many blocks, too large for the direct path, at every
    packing g the engine takes there: p^ax_katz_exponent divides every
    histogram count and every cylinder cell, a law one moved point breaks."""
    rng = random.Random(41 * q + N)
    F = field(q)
    f = ExpPoly(F, {r: RationalK(rand_nonzero_poly(rng, F, 2), rand_monic(rng, F, 3))
                    if rng.random() < 0.7 else rand_series(rng, F, expsum.required_floor(r, N, depth))
                    for r in exps})
    values = expsum._pass_checks(f, depth * F.m, N, 0, q ** N)
    assert expsum._packing(F.p, values, depth * F.m)[1] == g
    assert q ** N >= 4 * expsum.BLOCK and ax_katz_exponent(f, N) >= 2
    assert ax_katz_holds(weyl_sum(f, N).counts, f, N)
    assert ax_katz_exponent(f, N, depth) >= 1
    assert ax_katz_holds(cylinder_counts(f, N, depth).counts.values(), f, N, depth)


@pytest.mark.parametrize("q, modulus", [
    (2, None), (3, None), (4, None), (5, None), (7, None), (8, None), (9, None),
    (4, "x^2+x+1"), (8, "x^3+x^2+1"), (9, "x^2+x+2")])
def test_twist_basis_matches_scaled_direct(monkeypatch, q, modulus):
    """The engine's members are the basis twists e_k t^s; twist m's residues
    are its coordinates dotted with them mod p, and twisted_sum, which scales
    f, gives the histogram of f.scale_poly(m) on the direct path."""
    monkeypatch.setattr(expsum, "BLOCK", 8)
    seen = []
    _record_blocks(monkeypatch, seen)
    rng = random.Random(37 * q + len(modulus or ""))
    F = field(q, modulus)
    p, m = F.p, F.m
    D = 2 if q <= 5 else 1
    twist_lists = [(0,), (1,), (0, 1, q, q * q),  # 0, 1 and t^i
                   tuple(rng.sample(range(q ** 3), 5)) + (0,),  # mixed degrees
                   tuple(range(q ** D))]
    for N in range(3 if q <= 5 else 2):
        fs = [ExpPoly(F, {r: c for r, c in zip(rng.sample(range(6), 3), (
            rand_rational(rng, F, 3), rand_series(rng, F, -60),
            kernel_element(F, -60, rng.randrange(50))))}) for _ in range(2)]
        for lo, hi in [(0, q ** N)] + _slices(rng, q, N):
            for f in fs:
                basis = np.empty((hi - lo, 3 * m), dtype=np.int64)
                for start, block in expsum._split_blocks(f, 3 * m, N, lo, hi):
                    basis[start - lo:start - lo + len(block)] = expsum._members(block, 3 * m, p)
                for t in (t for twists in twist_lists for t in twists):
                    twist = poly_from_index(F, t, 3)
                    direct = weyl_residues(f.scale_poly(twist), N, lo, hi, method="direct")
                    coords = [t // p ** c % p for c in range(3 * m)]
                    assert np.array_equal(basis @ coords % p, direct)
                    assert twisted_sum(f, twist, N, lo, hi) == CharSum.from_residues(p, direct)
    assert any(len(blocks) > 1 for _, _, _, blocks in seen)


@pytest.mark.parametrize("F", every_field(), ids=repr)
def test_p_power_exponents_match_the_direct_oracle(F):
    """x^(p^i) is read from the columns of x, Frobenius-mapped, on both sides
    of the split: exponent sets rich in p-powers against the direct path, at
    widths 1, m and 3m, over G_N and slices, some wholly past the x_lo rows."""
    rng = random.Random(53 * F.q + len(F.spec_string()))
    p, q, m = F.p, F.q, F.m
    sets = [{p}, {p * p}, {q}, {p + 1}, {2 * p}, {p * p + p}, {p * p + 1, q + 1}]
    for N in (1, 2, 3):
        total, qh = q ** N, q ** (N // 2)
        lo = rng.randrange(total)
        slices = [(0, total), (lo, rng.randrange(lo, total + 1))]
        if qh * (qh + 1) < total:  # x_hi rows past the q^h rows of x_lo
            slices.append((qh * (qh + 1) + rng.randrange(qh), total - rng.randrange(qh)))
        for exps in sets:
            f = ExpPoly(F, {r: rand_rational(rng, F, 2) if rng.random() < 0.7
                            else rand_series(rng, F, expsum.required_floor(r, N, 3))
                            for r in exps})
            direct = direct_traces(f, N, 3 * m)
            for width in (1, m, 3 * m):
                for lo, hi in slices:
                    got = np.empty((hi - lo, width), dtype=np.int64)
                    for start, block in expsum._split_blocks(f, width, N, lo, hi):
                        got[start - lo:start - lo + len(block)] = expsum._members(block, width, p)
                    assert np.array_equal(got, direct[lo:hi, :width]), (exps, N, width, lo, hi)


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_are_views_of_one_buffer(monkeypatch, block):
    """Each block of a pass is a view into one buffer, overwritten by the
    next block, so every consumer must use a block before it draws the next:
    at small block sizes each one still matches its oracle."""
    monkeypatch.setattr(expsum, "BLOCK", block)
    monkeypatch.setattr(equidist, "BLOCK", block)
    rng = random.Random(54 + block)
    for F in (field(2), field(3), field(4), field(9, "x^2+x+2")):
        N, width = 3, 2 * F.m
        f = ExpPoly(F, {1: rand_rational(rng, F, 2), F.p + 1: rand_rational(rng, F, 2)})
        blocks = [b for _, b in expsum._split_blocks(f, width, N, 0, F.q ** N)]
        assert len(blocks) > 1 and all(np.shares_memory(b, blocks[0]) for b in blocks)
        assert np.array_equal(weyl_residues(f, N), weyl_residues(f, N, method="direct"))
        assert np.array_equal(fractional_digit_rows(f, N, 2),
                              fractional_digit_rows(f, N, 2, method="direct"))
        assert cylinder_counts(f, N, 2) == cylinder_counts(f, N, 2, method="direct")
        assert weyl_scan(f, [1, 3, 2], 1, depth=2) == weyl_scan_loop(f, [1, 3, 2], 1, depth=2)
        phi = {1: rand_nonzero_poly(rng, F, 1), 2: F.poly_one}
        gm = sieve.gm_build(F, 1, phi)
        if gm.root is not None:
            alpha = rand_rational(rng, F, 3)
            assert (sieve.t_mn_rows(phi, alpha, 1, [3, 1, 2], F, gm)
                    == t_mn_loop(phi, alpha, 1, [3, 1, 2], F, gm))


def _inner_values(f, N):
    """(p - 1)^2 k + 1, one more than the largest dot product over G_N: k is m
    times the coefficients of the x_hi^e read, e = r - j for the j with
    C(r, j) nonzero mod p, each of e * max(N - N // 2 - 1, 0) + 1, where a
    power of p counts as e = 1, as x^(p^i) is read from the columns of x."""
    F = f.field
    deg = max(N - N // 2 - 1, 0)
    powers = {F.p ** i for i in range(max((r for r, _ in f.terms), default=0).bit_length())}
    ends = {1 if r - j in powers else r - j
            for r, _ in f.terms for j in range(r + 1) if math.comb(r, j) % F.p}
    return (F.p - 1) ** 2 * F.m * sum(e * deg + 1 for e in ends) + 1


def _packing_rule(p, values, width, cells):
    """(groups, g) for at most `cells` table cells: the largest g <= width with
    values^g <= cells and g p^g <= cells, or 1, spread evenly over
    ceil(width / g) columns."""
    g = 1
    while g < width and values ** (g + 1) <= cells and (g + 1) * p ** (g + 1) <= cells:
        g += 1
    groups = -(-width // g)
    return groups, -(-width // groups)


def _unpack(keys, width, p, g):
    """The member residues of rows of group keys, g base-p digits to a key,
    first most significant, after the groups * g - width leading places."""
    places = [[key // p ** (g - 1 - b) % p for key in row for b in range(g)]
              for row in keys.tolist()]
    return np.array([row[len(row) - width:] for row in places], dtype=np.int64)


def _record_key_tables(monkeypatch, tables):
    """Wrap expsum._key_table so that each call appends (p, base, g, len(table))."""
    real = expsum._key_table

    def recording(p, base, g):
        table = real(p, base, g)
        tables.append((p, base, g, len(table)))
        return table

    monkeypatch.setattr(expsum, "_key_table", recording)


def test_packed_read_out_matches_the_member_residues(monkeypatch):
    tables = []
    _record_key_tables(monkeypatch, tables)
    rng = random.Random(47)
    sides = set()  # (g, whether g members fit the cap)
    for F in every_field() + [field(4, "x^2+x+1")]:
        p, width = F.p, 3 * F.m
        for N in (1, 2, 3) if F.q <= 5 else (1, 2):
            f = ExpPoly(F, {r: rand_rational(rng, F, 2) for r in rng.sample(range(1, 5), 2)})
            values = _inner_values(f, N)
            direct = direct_traces(f, N, width)
            # for each g, a table at its cap of values^g cells, and one past it
            for g in range(2, width + 1):
                if values ** g > 1 << 20:
                    break
                for fits in (True, False):
                    cap = values ** g - (not fits)
                    monkeypatch.setattr(expsum, "BLOCK", cap // expsum.TABLE_BLOCKS or 1)
                    cells = expsum.TABLE_BLOCKS * expsum.BLOCK
                    if (cells >= values ** g) != fits:
                        continue  # the cap is no multiple of TABLE_BLOCKS near values^g
                    groups, want_g = _packing_rule(p, values, width, cells)
                    tables.clear()
                    got = np.empty((F.q ** N, width), dtype=np.int64)
                    for start, block in expsum._split_blocks(f, width, N, 0, F.q ** N):
                        assert block.shape[1] == groups
                        got[start:start + len(block)] = _unpack(block, width, p, want_g)
                    assert np.array_equal(got, direct), (F, N, g, fits)
                    # the table covers every value of values^want_g, within its cap
                    assert tables == [(p, values, want_g, values ** want_g)]
                    assert want_g == 1 or values ** want_g <= cells
                    sides.add((g, fits))
    assert {(2, True), (2, False), (3, True), (3, False)} <= sides, sides


def test_deep_scan_packs_fewer_members_than_its_width(monkeypatch):
    tables = []
    _record_key_tables(monkeypatch, tables)
    rng = random.Random(48)
    F2 = field(2)
    f = ExpPoly(F2, {1: rand_rational(rng, F2, 3), 3: rand_rational(rng, F2, 4)})
    Ns = [1, 3, 4, 5]
    assert weyl_scan(f, Ns, 2, depth=40) == weyl_scan_loop(f, Ns, 2, depth=40)
    [(p, values, g, size)] = tables
    cells = expsum.TABLE_BLOCKS * expsum.BLOCK
    assert (p, values) == (2, _inner_values(f, 5)) and 1 < g < 40
    assert size == values ** g <= cells < values ** (g + 1)


def test_twists_raise_the_direct_error_of_the_first_shallow_twist():
    rng = random.Random(38)
    for q in (2, 3, 4, 9):
        F = field(q)
        N = 3
        # the u^2 coefficient serves twists of degree at most 1
        f = ExpPoly(F, {1: rand_rational(rng, F, 3),
                        2: rand_series(rng, F, expsum.required_floor(2, N) - 1)})
        with pytest.raises(PrecisionError) as err:
            weyl_residues(f.scale_poly(poly_from_index(F, q * q, 3)), N, method="direct")
        for call in (lambda: twisted_sum(f, poly_from_index(F, q * q + 1, 3), N, 1, 5),
                     lambda: weyl_scan(f, [N], 3), lambda: weyl_scan(f, [N], 3, depth=3)):
            with pytest.raises(PrecisionError) as info:
                call()
            assert str(info.value) == str(err.value)
        row, = weyl_scan(f, [N], 2).rows
        sums = [twisted_sum(f, poly_from_index(F, t, 2), N) for t in range(q * q)]
        assert sums[0] == CharSum(F.p, (q ** N,) + (0,) * (F.p - 1))
        assert row.sup == max(s.normalized() for s in sums[1:])
        for t, s in enumerate(sums):
            direct = weyl_residues(f.scale_poly(poly_from_index(F, t, 2)), N, method="direct")
            assert s == CharSum.from_residues(F.p, direct)


def test_twists_past_int64_match_the_scaled_direct_sum():
    rng = random.Random(39)
    for q, degree in ((2, 70), (9, 25)):
        F = field(q)
        m = rand_monic(rng, F, degree)
        assert m.code() >= 1 << 63
        f = ExpPoly(F, {1: rand_rational(rng, F, 3), 2: rand_series(rng, F, -(degree + 10)),
                        3: rand_rational(rng, F, 2)})
        for N in (1, 2):
            direct = weyl_residues(f.scale_poly(m), N, method="direct")
            assert twisted_sum(f, m, N) == CharSum.from_residues(F.p, direct)


def test_float_exactness_bound_is_checked(monkeypatch):
    F2 = field(2)
    f = lin(F2, RationalK(F2.poly_one, parse_poly(F2, "t^3+t+1")))
    expected = CharSum.from_residues(2, weyl_residues(f, 4, method="direct"))
    # over G_4 the product reads x_hi^0 and x_hi^1 of x_hi in G_2: k = 1 + 2,
    # so its dot products reach at most (p - 1)^2 * k = 3
    monkeypatch.setattr(expsum, "FLOAT_EXACT", 3)
    assert weyl_sum(f, 4) == expected
    monkeypatch.setattr(expsum, "FLOAT_EXACT", 2)
    with pytest.raises(DomainError, match="exact float64"):
        weyl_sum(f, 4)


def test_weyl_sum_streams_in_blocks():
    F2 = field(2)
    f = ExpPoly(F2, {3: kernel_element(F2, -80, 1),
                     1: RationalK(F2.poly_one, parse_poly(F2, "t^3+t+1"))})
    weyl_sum(f, 4)
    tracemalloc.start()
    try:
        total = weyl_sum(f, 20).total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 2 ** 20
    # the 2^20 int64 residues alone would take 8 MB; the blocks and the two
    # factors over q^(N/2) points take well under half of that
    assert peak < 4 << 20, peak


def test_kernel_floor_is_charged_to_the_budget():
    obj = {"field": "q=2", "terms": [{"exp": 1, "coeff": {"kernel": {"floor": -300000}}}]}
    with pytest.raises(BudgetError, match="kernel series of 300000"):
        ExpPoly.from_json(obj, budget=10)
    obj["terms"].append({"exp": 2, "coeff": {"kernel": {"floor": -6}}})
    obj["terms"][0]["coeff"]["kernel"]["floor"] = -5
    with pytest.raises(BudgetError, match="kernel series of 11"):
        ExpPoly.from_json(obj, budget=10)
    assert ExpPoly.from_json(obj, budget=11).support() == {1, 2}


def test_weyl_sum_and_digit_rows_are_invariant_under_completion():
    # a sum or a block of digit rows over truncated series either raises
    # PrecisionError or equals that of every completion below the floors
    rng = random.Random(81)
    outcomes = {"raised": 0, "passed": 0}
    for F in every_field():
        top = 4 if F.q <= 3 else 2
        for _ in range(8):
            f = rand_exppoly(rng, F, max_exp=3, floor=-rng.randrange(1, 8))
            N, depth = rng.randrange(top + 1), rng.randrange(1, 4)
            full = ExpPoly(F, {r: rand_completion(rng, c) for r, c in f.terms})
            for run in (lambda g: weyl_sum(g, N),
                        lambda g: fractional_digit_rows(g, N, depth).tolist()):
                try:
                    got = run(f)
                except PrecisionError:
                    outcomes["raised"] += 1
                    continue
                assert run(full) == got, (F, f, N, depth)
                outcomes["passed"] += 1
    assert all(outcomes.values()), outcomes
