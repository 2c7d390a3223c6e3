import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffweyl import equidist, expsum

from ffweyl.algebra import Poly, enumerate_GN, parse_poly, poly_from_index
from ffweyl.equidist import (CylinderTable, cor53_probe, cylinder_counts, discrepancy,
                             reduce_qp, refine_to_parent, weyl_scan)
from ffweyl.errors import BudgetError, DomainError, FFWeylError, PrecisionError
from ffweyl.expsum import CharSum, ExpPoly, required_floor, twisted_sum, weyl_residues
from ffweyl.kinfty import (RationalK, TruncSeries, frac_ord_vs, kadd,
                           kernel_element, kmul_poly, tmap)

from helpers import (direct_traces, every_field, field, rand_completion, rand_exppoly,
                     rand_nonzero_poly, rand_poly, rand_rational, rand_series, weyl_scan_loop)


def test_cylinder_examples():
    F2 = field(2)
    f = ExpPoly(F2, {1: RationalK(F2.poly_one, F2.poly_t)})
    tab = cylinder_counts(f, 3, 1)
    assert tab.counts == {(0,): 4, (1,): 4}
    assert discrepancy(tab, 2) == 0  # perfectly uniform
    fc = ExpPoly(F2, {0: RationalK(F2.poly_one, F2.poly_t)})
    tab = cylinder_counts(fc, 3, 2)
    assert list(tab.counts.values()) == [8]
    assert discrepancy(tab, 2) == Fraction(3, 4)  # 1 - q^-d


def test_cylinder_kernel_concentration():
    for q in (2, 3):
        F = field(q)
        f = ExpPoly(F, {q: kernel_element(F, -40, 2)})
        tab = cylinder_counts(f, 4, 1)
        assert tab.counts == {(0,): q ** 4}
        assert discrepancy(tab, q) == 1 - Fraction(1, q)


def test_cylinder_default_depth():
    F2 = field(2)
    # rational coefficients: default depth 3
    f = ExpPoly(F2, {1: RationalK(F2.poly_one, F2.poly_t)})
    assert cylinder_counts(f, 2).depth == 3
    # a shallow series floor caps the default
    from ffweyl.kinfty import TruncSeries
    shallow = TruncSeries.from_digits(F2, -4, {-1: 1})
    assert cylinder_counts(ExpPoly(F2, {2: shallow}), 2).depth == 2
    with pytest.raises(Exception):
        cylinder_counts(ExpPoly(F2, {2: shallow}), 4)  # nothing allowed


def test_cylinder_refinement_consistency():
    rng = random.Random(60)
    for _ in range(20):
        F = field(rng.choice((2, 3)))
        f = rand_exppoly(rng, F, max_exp=4, floor=-40)
        N = rng.randrange(1, 4)
        t3 = cylinder_counts(f, N, 3)
        t2 = cylinder_counts(f, N, 2)
        assert refine_to_parent(t3).counts == t2.counts
        assert sum(t3.counts.values()) == F.q ** N


def _linear_cylinder_oracle(F, al, N, depth):
    """Closed-form counts for f = al*u: the digit prefix of {al*x} only
    depends on x mod den, and each residue class has q^(N - deg den) members."""
    den = al.den
    D = den.deg
    assert N >= D
    counts = {}
    for rho in enumerate_GN(F, D):
        val = kmul_poly(al, rho)
        prefix = tuple(val.digit(-i) for i in range(1, depth + 1))
        counts[prefix] = counts.get(prefix, 0) + F.q ** (N - D)
    return counts


def test_linear_rational_cylinder_closed_form():
    rng = random.Random(61)
    for _ in range(40):
        F = field(rng.choice((2, 3, 5)))
        den = rand_nonzero_poly(rng, F, 2).monic()
        num = rand_poly(rng, F, den.deg + 1)
        al = RationalK(num, den)
        N = al.den.deg + rng.randrange(1, 3)
        depth = rng.randrange(1, 4)
        tab = cylinder_counts(ExpPoly(F, {1: al}), N, depth)
        oracle = _linear_cylinder_oracle(F, al, N, depth)
        assert tab.counts == oracle
        assert discrepancy(tab, F.q) == max(
            abs(Fraction(oracle.get(pref, 0), F.q ** N) - Fraction(1, F.q ** depth))
            for pref in {p_ for p_ in oracle} | {(0,) * depth})


def test_discrepancy_matches_the_definition():
    rng = random.Random(67)
    for _ in range(400):
        q, depth = rng.choice((2, 3, 4, 5, 9)), rng.randrange(1, 4)
        cells = list(itertools.product(range(q), repeat=depth))
        hit = rng.sample(cells, rng.randrange(1, len(cells) + 1))
        counts = {pref: rng.randrange(1, 10 ** rng.randrange(1, 7)) for pref in hit}
        tab = CylinderTable(depth, sum(counts.values()), counts)
        # every one of the q^d prefixes, the zero cells listed
        zero_filled = {pref: counts.get(pref, 0) for pref in cells}
        expected = max(abs(Fraction(c, tab.total) - Fraction(1, q ** depth))
                       for c in zero_filled.values())
        got = discrepancy(tab, q)
        assert type(got) is Fraction and got == expected
        assert discrepancy(CylinderTable(depth, tab.total, zero_filled), q) == expected


def test_weyl_scan_zero_polynomial():
    F2 = field(2)
    v = weyl_scan(ExpPoly(F2, {}), [1, 2, 3], 2)
    assert all(r.sup == 1.0 and r.witness is not None for r in v.rows)
    assert v.flags["failure_certificate"]


def test_weyl_scan_kernel_certificate():
    # the coefficient annihilated by the digit-sampling map defeats
    # equidistribution: the untwisted sum is exactly full at every N
    for q in (2, 3):
        F = field(q)
        f = ExpPoly(F, {q: kernel_element(F, -60, 1)})
        v = weyl_scan(f, [2, 4, 6], 2)
        assert v.failure_certificate
        assert all(r.sup == 1.0 and r.witness == "1" for r in v.rows)


def test_weyl_scan_matches_orthogonality_case_analysis():
    F2 = field(2)
    for gdeg in (1, 2):
        for gi in range(2 ** gdeg):
            low = poly_from_index(F2, gi, gdeg).coeffs
            g = Poly(F2, list(low) + [0] * (gdeg - len(low)) + [1])
            al = RationalK(F2.poly_one, g)
            for N in (1, 2, 3):
                v = weyl_scan(ExpPoly(F2, {1: al}), [N], 3)
                expect = any(
                    frac_ord_vs(kmul_poly(al, poly_from_index(F2, mi, 3)), N)
                    == "below" for mi in range(1, 8))
                assert (v.rows[0].sup == 1.0) == expect
                assert (v.rows[0].witness is not None) == expect


def _twist_loop(f, N, D):
    """(sup, witness) of a scan row, one twisted sum at a time on the direct path."""
    F = f.field
    sup, witness = 0.0, None
    for mi in range(1, F.q ** D):
        m = poly_from_index(F, mi, D)
        hist = twisted_sum(f, m, N)
        assert hist == CharSum.from_residues(
            F.p, weyl_residues(f.scale_poly(m), N, method="direct"))
        sup = max(sup, hist.normalized())
        if witness is None and hist.is_full():
            witness = str(m)
    return sup, witness


@pytest.mark.parametrize("block", [5, expsum.BLOCK])
def test_weyl_scan_matches_twist_loop(monkeypatch, block):
    # a small block size splits both the engine's points and the twists
    monkeypatch.setattr(expsum, "BLOCK", block)
    monkeypatch.setattr(equidist, "BLOCK", block)
    rng = random.Random(38)
    witnesses = 0
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                       (9, None), (4, "x^2+x+1"), (8, "x^3+x^2+1"), (9, "x^2+x+2")):
        F = field(q, modulus)
        D = 3 if q == 2 else 2 if q <= 5 else 1
        Ns = [1, 2, 3, 4] if q <= 3 else [1, 2]
        for _ in range(3):
            f = rand_exppoly(rng, F, max_exp=4, floor=-40)
            if rng.random() < 0.5:  # small denominators make some twists full
                f = ExpPoly(F, {1: rand_rational(rng, F, 2), 2: rand_rational(rng, F, 1)})
            verdict = weyl_scan(f, Ns, D, depth=2)
            for row in verdict.rows:
                assert (row.sup, row.witness) == _twist_loop(f, row.N, D)
                assert row.discrepancy == discrepancy(
                    cylinder_counts(f, row.N, 2, method="direct"), q)
                witnesses += row.witness is not None
    assert witnesses


def test_twist_counts_are_in_index_order(monkeypatch):
    rng = random.Random(40)
    for q, D, block in ((2, 4, 8), (3, 2, 5), (4, 2, 7), (9, 1, 5), (5, 2, 1 << 16)):
        monkeypatch.setattr(equidist, "BLOCK", block)  # blocks of p^c twists, c < D m
        F = field(q)
        N = 2
        f = ExpPoly(F, {1: rand_rational(rng, F, 3), 2: rand_rational(rng, F, 2)})
        # the cells of G_N's points by their twist traces, off the direct path
        cells, sizes = expsum.count_rows(direct_traces(f, N, D * F.m))
        parts = list(equidist._twist_histograms(cells, sizes, F.p))
        assert (len(parts) > 1) == (q ** D * len(sizes) > block)
        counts = [tuple(row) for part in parts for row in part.tolist()]
        want = [twisted_sum(f, poly_from_index(F, t, D), N).counts for t in range(q ** D)]
        assert counts == want
        # the one matrix over every twist cell, the cell's key its traces in base p
        every = np.zeros(q ** D, dtype=np.int64)
        every[cells @ F.p ** np.arange(D * F.m - 1, -1, -1)] = sizes
        hists = equidist._every_twist_indicator(F.p, D * F.m) @ every
        assert [tuple(row) for row in hists.reshape(-1, F.p).tolist()] == want


def _scan_loop_error(f, Ns, D, depth):
    """The text of the first error of the scan as one twisted sum at a time,
    in scan order, each N's twists before its cylinder counts; or None."""
    F = f.field
    try:
        for n in sorted(Ns):
            for mi in range(1, F.q ** D):
                twisted_sum(f, poly_from_index(F, mi, D), n)
            if depth is not None:
                cylinder_counts(f, n, depth, method="direct")
    except PrecisionError as exc:
        return str(exc)
    return None


def test_weyl_scan_raises_the_first_failing_twist():
    rng = random.Random(39)
    failed = passed = 0
    kinds = set()
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for _ in range(6):
            N = rng.randrange(1, 4)
            # floors a twist of degree 0, 1 or 2, or a depth of 1 to 3, may or may not exhaust
            f = ExpPoly(F, {r: rand_series(rng, F, required_floor(r, N) - rng.randrange(3))
                            for r in rng.sample(range(1, 4), 2)})
            D = 3 if q <= 3 else 2
            depth = rng.choice((None, 1, 2, 3))
            expected = _scan_loop_error(f, range(1, N + 1), D, depth)
            if expected is None:
                weyl_scan(f, list(range(1, N + 1)), D, depth)
                passed += 1
                continue
            with pytest.raises(PrecisionError) as info:
                weyl_scan(f, list(range(1, N + 1)), D, depth)
            assert str(info.value) == expected
            assert expected.startswith("coefficient of u^") and "has floor" in expected
            kinds.add(expected.split("for ")[1].split()[0])
            failed += 1
    assert failed and passed
    assert "depth-1" in kinds and kinds - {"depth-1"}  # twist texts and depth texts


def test_weyl_scan_raises_twist_before_depth_n_by_n():
    F2 = field(2)
    # the u^2 floor -4 serves, over G_2, twists of degree at most 1 and depth
    # at most 2, and over G_3 not even the untwisted sum
    f = ExpPoly(F2, {1: RationalK(F2.poly_one, parse_poly(F2, "t^2+t+1")),
                     2: TruncSeries.from_digits(F2, -4, {-1: 1, -3: 1})})
    text = "coefficient of u^2 has floor {}; needs {} for depth-{} evaluation over G_{}"
    for Ns, D, depth, args in [([2], 3, 3, (-2, -3, 1, 2)),  # the twist t^2 first
                               ([2], 2, 3, (-4, -5, 3, 2)),
                               ([3, 2], 2, 3, (-4, -5, 3, 2)),  # N = 2 comes first
                               ([2, 3], 2, 2, (-4, -5, 1, 3))]:
        assert _scan_loop_error(f, Ns, D, depth) == text.format(*args)
        with pytest.raises(PrecisionError) as info:
            weyl_scan(f, Ns, D, depth)
        assert str(info.value) == text.format(*args)


def test_weyl_scan_refuses_depth_below_one(monkeypatch):
    monkeypatch.setattr(equidist, "_split_blocks", lambda *a: pytest.fail("a sum ran"))
    F2 = field(2)
    # so shallow that any sum would raise PrecisionError first
    f = ExpPoly(F2, {3: TruncSeries.from_digits(F2, -2, {-1: 1})})
    for depth in (0, -2):
        with pytest.raises(DomainError, match="^depth must be at least 1$"):
            weyl_scan(f, [1, 2], 1, depth=depth)


def _rows_or_error(call, *args):
    """The rows of a scan or sieve call, or the type and text of its error."""
    try:
        out = call(*args)
    except FFWeylError as exc:
        return f"{type(exc).__name__}: {exc}"
    return out.rows if isinstance(out, equidist.Verdict) else out


def _n_lists(rng, top):
    """Seeded N lists up to top: unsorted, with duplicates, ranges and N = 0."""
    return [rng.sample(range(top + 1), rng.randrange(1, top + 2)),
            [rng.randrange(top + 1) for _ in range(4)],
            range(rng.randrange(2), rng.randrange(1, top + 1) + 1),
            [0], [top, 0, top]]


@pytest.mark.parametrize("block", [3, 40, expsum.BLOCK])
def test_weyl_scan_matches_the_per_n_loop(monkeypatch, block):
    # a small block puts most bounds q^N inside a block of the one pass
    monkeypatch.setattr(expsum, "BLOCK", block)
    monkeypatch.setattr(equidist, "BLOCK", block)
    rng = random.Random(43)
    middle = set()  # the kinds of error raised at an N below the largest
    for F in every_field():
        top = 5 if F.q <= 3 else 3 if F.q <= 5 else 2
        for case in range(4):
            D, depth = rng.randrange(1, 3), rng.choice((None, 1, 2))
            if case % 3 == 0:
                f = rand_exppoly(rng, F, max_exp=4, floor=-40)
            elif case % 3 == 1:  # floors that some N exhausts
                N = rng.randrange(1, top)
                f = ExpPoly(F, {r: rand_series(rng, F, required_floor(r, N, 2) - rng.randrange(2))
                                for r in rng.sample(range(1, 4), 2)})
            else:  # a power table that a budget near its charge refuses at some N
                f = ExpPoly(F, {F.q ** 3 - 1: rand_rational(rng, F, 2),
                                1: rand_rational(rng, F, 1)})
                D, depth = 1, None
            budget = rng.choice((None, int(10 ** rng.uniform(1.5, 4))))
            for Ns in _n_lists(rng, top):
                want = _rows_or_error(weyl_scan_loop, f, Ns, D, depth, budget)
                assert _rows_or_error(weyl_scan, f, Ns, D, depth, budget) == want
                if isinstance(want, str) and want != _rows_or_error(
                        weyl_scan_loop, f, [max(Ns)], D, depth, budget):
                    middle.add("power table" if "power table" in want else
                               "floor" if "has floor" in want else want)
    assert {"power table", "floor"} <= middle, middle


def test_weyl_scan_is_invariant_under_completion():
    # a scan of truncated series either raises PrecisionError or gives the
    # rows of every completion of its coefficients below their floors
    rng = random.Random(45)
    raised = passed = 0
    for F in every_field():
        top = 4 if F.q <= 3 else 2
        for _ in range(6):
            f = rand_exppoly(rng, F, max_exp=3, floor=-rng.randrange(3, 12))
            Ns, D, depth = _n_lists(rng, top)[0], rng.randrange(1, 3), rng.choice((None, 2))
            try:
                rows = weyl_scan(f, Ns, D, depth).rows
            except PrecisionError:
                raised += 1
                continue
            full = ExpPoly(F, {r: rand_completion(rng, c) for r, c in f.terms})
            assert weyl_scan(full, Ns, D, depth).rows == rows
            passed += 1
    assert raised and passed, (raised, passed)


def test_cylinder_counts_are_invariant_under_completion():
    # at a given depth the table of truncated series is refused or equals
    # the completion's; with the depth left to the floors, the completion's
    # table may be deeper, and summed back to the same depth it agrees
    rng = random.Random(82)
    outcomes = {"raised": 0, "passed": 0, "deeper": 0}
    for F in every_field():
        top = 4 if F.q <= 3 else 2
        for _ in range(6):
            f = rand_exppoly(rng, F, max_exp=3, floor=-rng.randrange(1, 8))
            full = ExpPoly(F, {r: rand_completion(rng, c) for r, c in f.terms})
            N = rng.randrange(top + 1)
            for depth in (rng.randrange(1, 4), None):
                try:
                    got = cylinder_counts(f, N, depth)
                except PrecisionError:
                    outcomes["raised"] += 1
                    continue
                want = cylinder_counts(full, N, depth)
                outcomes["deeper"] += want.depth > got.depth
                while want.depth > got.depth:
                    want = refine_to_parent(want)
                assert want == got, (F, f, N, depth)
                outcomes["passed"] += 1
    assert all(outcomes.values()), outcomes


def test_scan_over_a_range_memory_bound():
    F2 = field(2)
    f = ExpPoly(F2, {3: kernel_element(F2, -80, 1),
                     1: RationalK(F2.poly_one, parse_poly(F2, "t^3+t+1"))})
    weyl_scan(f, range(1, 21), 2, depth=3)
    tracemalloc.start()
    try:
        rows = weyl_scan(f, range(1, 21), 2, depth=3).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one pass cut into 20 segments, each counted as it streams; a segment
    # held whole, 2^19 rows of three int64 traces, is 12 MB
    assert peak < 8 << 20, peak
    assert [r.N for r in rows] == list(range(1, 21))
    assert rows[-1].discrepancy == Fraction(1, 1024)


def test_weyl_scan_pseudo_irrational_decay():
    # very small N can produce full sums by accident (few points, few digit
    # reads), so the decay claim starts at moderate N
    F3 = field(3)
    f = ExpPoly(F3, {2: kernel_element(F3, -40, 42)})
    v = weyl_scan(f, [5, 7, 9], 2, depth=1)
    assert v.rows[-1].sup < 0.05
    assert not v.failure_certificate
    assert all(r.discrepancy is not None and 0 <= r.discrepancy <= 1
               for r in v.rows)


def test_reduce_qp_examples():
    F3 = field(3)
    al = RationalK(parse_poly(F3, "t+1"), parse_poly(F3, "t^2+1"))
    red = reduce_qp(ExpPoly(F3, {1: al}))
    assert red.indices == {1} and red.collapsed[1] == al
    # u^p collapses through one application of the digit-sampling map
    ker = kernel_element(F3, -40, 9)
    red = reduce_qp(ExpPoly(F3, {3: ker}))
    assert red.indices == {1}
    out = red.collapsed[1]
    t_ker = tmap(ker)
    assert [out.digit(e) for e in range(out.floor, 0)] == \
        [t_ker.digit(e) for e in range(out.floor, 0)]
    # at q = 4 the collapse passes the sampled digit x through x^(q/p) = x + 1
    F4 = field(4)
    f = ExpPoly(F4, {2: RationalK(Poly(F4, (2,)), F4.poly_t)})
    red = reduce_qp(f)
    assert red.indices == {1}
    assert red.collapsed[1] == RationalK(Poly(F4, (3,)), F4.poly_t)
    for N in (1, 2, 3):
        assert (weyl_residues(f, N) == weyl_residues(red.reduced, N)).all()


def test_reduce_qp_mixed_terms():
    F2 = field(2)
    al = kernel_element(F2, -40, 4)
    be = RationalK(parse_poly(F2, "t+1"), parse_poly(F2, "t^2+t+1"))
    f = ExpPoly(F2, {2: al, 1: be})
    red = reduce_qp(f)
    want = kadd(tmap(al), be)
    got = red.collapsed[1]
    assert [got.digit(e) for e in range(got.floor, 0)] == \
        [want.digit(e) for e in range(got.floor, 0)]


def test_reduce_qp_identity_fuzz():
    rng = random.Random(62)
    for _ in range(100):
        q = rng.choice((2, 3, 5))
        F = field(q)
        f = rand_exppoly(rng, F, max_exp=9, floor=-64)
        N = rng.randrange(1, 4)
        red = reduce_qp(f)
        assert (weyl_residues(f, N) == weyl_residues(red.reduced, N)).all()
    # every q, N = 1..3: the collapse passes each sampled digit through c^(q/p)
    rng = random.Random(63)
    for F in every_field():
        for _ in range(40):
            f = rand_exppoly(rng, F, max_exp=9, floor=-64)
            red = reduce_qp(f)
            for N in (1, 2, 3):
                assert (weyl_residues(f, N) == weyl_residues(red.reduced, N)).all(), (F, f, N)


def test_reduce_qp_is_invariant_under_completion():
    # completing each series coefficient below its floor keeps every digit
    # that the collapse of the truncated polynomial certifies
    rng = random.Random(64)
    for F in every_field():
        for _ in range(10):
            f = rand_exppoly(rng, F, max_exp=9, floor=-30)
            red = reduce_qp(f)
            full = reduce_qp(ExpPoly(F, {r: rand_completion(rng, c) for r, c in f.terms}))
            assert red.indices == full.indices
            for k, c in red.collapsed.items():
                if isinstance(c, RationalK):
                    assert full.collapsed[k] == c
                else:
                    assert full.collapsed[k].digits(c.floor, c.top) == c.digits(c.floor, c.top)


def test_cor53_probe_cases():
    F3 = field(3)
    # rational coefficient: obstruction at m = 1 (and every other twist)
    f = ExpPoly(F3, {2: RationalK(F3.poly_one, parse_poly(F3, "t^2+1"))})
    rep = cor53_probe(f, 2, 1)
    assert rep.entries[0].status == "rational" and not rep.clear
    # kernel coefficient at the characteristic exponent: collapsed to zero
    f = ExpPoly(F3, {3: kernel_element(F3, -50, 3)})
    rep = cor53_probe(f, 1, 1)
    assert rep.entries[0].m == "1" and rep.entries[0].status == "zero"
    # pseudo-irrational coprime exponent: no obstruction up to bounds
    rng = random.Random(7)
    digits = {e: rng.randrange(3) for e in range(-90, 0)}
    f = ExpPoly(F3, {2: TruncSeries.from_digits(F3, -90, digits)})
    rep = cor53_probe(f, 2, 1, cf_bound=6)
    assert rep.clear, [(e.m, e.status) for e in rep.entries]
    with pytest.raises(DomainError):
        cor53_probe(f, 3, 1)


def test_cor53_probe_at_extension_fields():
    statuses = {"rational", "zero", "cf-match", "clear", "inconclusive"}
    rng = random.Random(8)
    for q in (4, 9):
        F = field(q)
        twists = [str(poly_from_index(F, mi, 1)) for mi in range(1, q)]
        f = ExpPoly(F, {r: TruncSeries.from_digits(
            F, -90, {e: rng.randrange(q) for e in range(-90, 0)}) for r in (1, F.p)})
        rep = cor53_probe(f, 1, 1, cf_bound=6)
        assert [e.m for e in rep.entries] == twists
        assert {e.status for e in rep.entries} <= statuses
        # a kernel coefficient at the characteristic exponent collapses to zero
        f = ExpPoly(F, {F.p: kernel_element(F, -50, 3)})
        rep = cor53_probe(f, 1, 1)
        assert [(e.m, e.status) for e in rep.entries] == [(m, "zero") for m in twists]


def test_cor53_probe_charges_its_twist_walk():
    F2 = field(2)
    f = ExpPoly(F2, {1: RationalK(F2.poly_one, parse_poly(F2, "t^2+t+1"))})
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^twist walk of 1073741824 points exceeds budget"):
        cor53_probe(f, 1, 30)
    assert time.perf_counter() - start < 1
