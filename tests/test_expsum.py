import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ffweyl import expsum
from ffweyl.algebra import Poly, enumerate_GN, parse_poly, poly_from_index
from ffweyl.equidist import cylinder_counts
from ffweyl.errors import BudgetError, DomainError, PrecisionError
from ffweyl.expsum import (CharSum, ExpPoly, e_of, fractional_digit_rows,
                           orthogonality, stacked_residues, stacked_sums,
                           twisted_sum, weyl_residues, weyl_sum)
from ffweyl.kinfty import RationalK, TruncSeries, kernel_element, parse_kelem

from helpers import field, rand_exppoly, rand_poly, rand_rational


def lin(F, alpha):
    return ExpPoly(F, {1: alpha})


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
    for q, modulus in ((2, None), (3, None), (4, None), (8, None), (9, None),
                       (8, "x^3+x^2+1"), (9, "x^2+x+2")):
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
    # q^depth far above 2^63: the cylinder count must not pack rows into one int
    F = field(9)
    for _ in range(3):
        f = ExpPoly(F, {r: rand_rational(rng, F, 3) for r in (1, 2, 4)})
        direct = fractional_digit_rows(f, 2, 20, method="direct")
        tab = cylinder_counts(f, 2, 20)
        assert tab.counts == cylinder_counts(f, 2, 20, method="direct").counts
        assert tab.counts == Counter(map(tuple, direct.tolist()))
        assert all(type(c) is int for key in tab.counts for c in key)


def test_dual_basis_reads_coordinates():
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                       (9, None), (8, "x^3+x^2+1"), (9, "x^2+x+2")):
        F = field(q, modulus)
        beta = expsum._dual_basis(F)
        assert len(beta) == F.m
        for a in F.elements():
            assert [F.trace(F.mul(b, a)) for b in beta] == list(F.coords(a))


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
    """Wrap the engine so that each call appends its blocks to seen, each as
    (first member, members, points)."""
    engine = expsum._split_blocks

    def recording(members, N, lo, hi):
        blocks = []
        seen.append(blocks)
        for i, start, block in engine(members, N, lo, hi):
            blocks.append((i, block.shape[1], len(block)))
            yield i, start, block

    monkeypatch.setattr(expsum, "_split_blocks", recording)


@pytest.mark.parametrize("block", [1, 7, 64, expsum.BLOCK])
def test_stacked_engine_matches_single_and_direct(monkeypatch, block):
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
            direct = [weyl_residues(f, N, method="direct") for f in fs]
            stack = stacked_residues(fs, N)
            assert stack.shape == (len(fs), q ** N) and stack.dtype == np.int64
            for f, row, d in zip(fs, stack, direct):
                assert np.array_equal(row, d)
                assert np.array_equal(weyl_residues(f, N), d)
            assert stacked_sums(fs, N) == [CharSum.from_residues(F.p, d) for d in direct]
            for lo, hi in _slices(rng, q, N):
                assert np.array_equal(stacked_residues(fs, N, lo, hi), stack[:, lo:hi])
                assert stacked_sums(fs, N, lo, hi) == \
                    [CharSum.from_residues(F.p, d[lo:hi]) for d in direct]
            rows = fractional_digit_rows(fs[0], N, 3)
            assert np.array_equal(rows, fractional_digit_rows(fs[0], N, 3, method="direct"))
            lo, hi = _slices(rng, q, N)[-1]
            assert np.array_equal(fractional_digit_rows(fs[0], N, 3, lo, hi), rows[lo:hi])
    # a block outgrows the block size only for a single member, and the small
    # sizes split members into groups and groups into several row blocks
    assert all(width * points <= block or width == 1
               for blocks in seen for _, width, points in blocks)
    groups = [{i for i, _, _ in blocks} for blocks in seen]
    if block in (7, 64):
        assert any(len(g) > 1 for g in groups)
        assert any(len(blocks) > len(g) and any(width > 1 for _, width, _ in blocks)
                   for blocks, g in zip(seen, groups))


def test_stacked_members_share_one_field():
    F2, F3 = field(2), field(3)
    with pytest.raises(DomainError):
        stacked_sums([lin(F2, RationalK(F2.poly_one)), lin(F3, RationalK(F3.poly_one))], 1)


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
