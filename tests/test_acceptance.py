"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  The exact-identity criteria assert integer
equalities; the single float criterion (the sieve inequality) uses the stated
1e-6 relative tolerance; the smoke criterion uses thresholds pinned in
tests/fixtures/weyl_smoke.json by a committed calibration pre-run.
"""
import json
import math
import pathlib
import random
import time
from fractions import Fraction

from ffweyl.algebra import (NEG_INF, Poly, enumerate_GN, irreducibles,
                            parse_poly, poly_from_index)
from ffweyl.contfrac import approx_quality, cf_expand, cf_value, convergents, \
    legendre_recover
from ffweyl.equidist import cylinder_counts, discrepancy, reduce_qp
from ffweyl.expsum import ExpPoly, e_of, twisted_sum, weyl_residues, weyl_sum
from ffweyl.exponents import (kstar, ktilde, maximal_elements, preceq,
                              shadow)
from ffweyl.kinfty import (RationalK, frac_ord_vs, kadd, kernel_element,
                           experiment_floor)
from ffweyl.meanvalue import js_histogram, js_naive
from ffweyl.sieve import DenseSet, difference_search, gm_build, t_mn
from ffweyl.weylmachinery import (large_sieve_check, shift_expand,
                                  space_family, spacing_check,
                                  weyl_shift_check)

from helpers import field, rand_exppoly, rand_monic, rand_poly, rand_rational

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _report(tag, elapsed, limit):
    print(f"[acceptance] {tag}: PASS ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"{tag} exceeded its runtime budget"


def test_c01_orthogonality_exhaustive():
    t0 = time.perf_counter()
    for q in (2, 3, 5):
        F = field(q)
        for gdeg in range(0, 4):
            for gi in range(q ** gdeg):
                low = poly_from_index(F, gi, gdeg).coeffs
                g = Poly(F, list(low) + [0] * (gdeg - len(low)) + [1])
                for ai in range(q ** gdeg if gdeg else 1):
                    a = poly_from_index(F, ai, gdeg) if gdeg else F.poly_zero
                    al = RationalK(a, g)
                    for N in (1, 2, 3):
                        hist = weyl_sum(ExpPoly(F, {1: al}), N)
                        if frac_ord_vs(al, N) == "below":
                            assert hist.counts[0] == q ** N
                        else:
                            assert hist.is_zero()
    _report("C1 orthogonality-exhaustive", time.perf_counter() - t0, 10)


def test_c02_kernel_certificate():
    t0 = time.perf_counter()
    for q, n_max in ((2, 10), (3, 6)):
        F = field(q)
        al = kernel_element(F, experiment_floor({q}, n_max), seed=3)
        f = ExpPoly(F, {q: al})
        for N in range(1, n_max + 1):
            assert weyl_sum(f, N).counts[0] == q ** N
        tab = cylinder_counts(f, n_max, 1)
        assert discrepancy(tab, q) == 1 - Fraction(1, q)
    _report("C2 kernel-coefficient certificate", time.perf_counter() - t0, 30)


def test_c03_prime_field_reduction_identity():
    t0 = time.perf_counter()
    rng = random.Random(301)
    for trial in range(100):
        q = (2, 3, 5)[trial % 3]
        F = field(q)
        f = rand_exppoly(rng, F, max_exp=9, floor=-64)
        red = reduce_qp(f)
        for N in (1, 2, 3):
            assert (weyl_residues(f, N) == weyl_residues(red.reduced, N)).all()
    _report("C3 prime-field reduction identity", time.perf_counter() - t0, 60)


def test_c04_continued_fraction_suite():
    t0 = time.perf_counter()
    rng = random.Random(401)
    for trial in range(500):
        q = (2, 3, 5)[trial % 3]
        F = field(q)
        al = rand_rational(rng, F, 8)
        cf = cf_expand(al)
        table = convergents(cf)  # the determinant identity is enforced inside
        degs = [g.deg for _, g in table.pairs]
        assert all(degs[i] < degs[i + 1] for i in range(len(degs) - 1))
        assert cf_value(cf) == al
        for n in range(len(table.pairs) - 1):
            assert approx_quality(al, n, cf=cf) == -table.pairs[n + 1][1].deg
        assert approx_quality(al, len(table.pairs) - 1, cf=cf) is NEG_INF
        # Legendre recovery on a qualifying pair: a scaled convergent
        n = rng.randrange(len(table.pairs))
        a, g = table.pairs[n]
        c = rng.randrange(1, q)
        assert legendre_recover(al, a.scale(c), g.scale(c)) == n
    _report("C4 continued-fraction suite", time.perf_counter() - t0, 30)


def test_c05_exponent_calculus_paper_values():
    t0 = time.perf_counter()
    assert maximal_elements({9, 5, 3, 1}, 2) == {3, 5, 9}
    assert kstar({9, 5, 3, 1}, 2) == {3, 5, 9}
    assert kstar({1, 3, 16}, 5) == {16}
    assert ktilde({1, 3, 16}, 5) == {1, 3, 16}
    assert ktilde({3, 20}, 5) == frozenset()
    for p in (2, 3, 5):
        for r in range(65):
            for j in range(1, r + 1):
                assert preceq(j, r, p) == (math.comb(r, j) % p != 0)
    _report("C5 exponent calculus vs pinned values", time.perf_counter() - t0, 5)


def test_c06_shadow_lemma_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(601)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        K = frozenset(rng.sample(range(1, 41), rng.randrange(1, 9)))
        sh = shadow(K, p)
        assert maximal_elements(K, p) <= maximal_elements(sh, p)
        assert kstar(K, p) <= kstar(sh, p)
        ks = kstar(K, p)
        for k in ks:
            for j in K:
                if preceq(k, j, p):
                    assert j in ks
    _report("C6 shadow lemma fuzz", time.perf_counter() - t0, 10)


def test_c07_mean_value_oracle():
    t0 = time.perf_counter()
    instances = 0
    for q in (2, 3):
        F = field(q)
        for K in ({1}, {2}, {1, 2}, {1, 3}):
            for s in (1, 2):
                for N in (1, 2):
                    assert q ** (2 * s * N) <= 10 ** 6
                    a = js_naive(K, s, N, F)
                    assert a == js_histogram(K, s, N, F)
                    assert a >= q ** (s * N)
                    instances += 1
    assert instances >= 20
    _report(f"C7 mean-value oracle ({instances} instances)",
            time.perf_counter() - t0, 120)


def test_c08_large_sieve_randomized():
    t0 = time.perf_counter()
    rng = random.Random(801)
    for _ in range(100):
        F = field(rng.choice((2, 3)))
        N = rng.randrange(1, 5)
        gdeg = rng.randrange(1, 4)
        g = rand_monic(rng, F, gdeg)
        size = rng.randrange(2, min(F.q ** gdeg, 9) + 1)
        fam = space_family([RationalK(poly_from_index(F, i, gdeg), g)
                            for i in rng.sample(range(F.q ** gdeg), size)])
        K = 1 if fam.gap == math.inf else max(1, 1 - fam.gap)
        b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(F.q ** N)]
        rep = large_sieve_check(fam, b, N, K=K)
        assert rep.passed, (F.q, N, K, rep.lhs, rep.rhs)
    _report("C8 large sieve randomized", time.perf_counter() - t0, 60)


def test_c09_weyl_shift_and_expansion():
    t0 = time.perf_counter()
    rng = random.Random(901)
    for _ in range(50):
        F = field(rng.choice((2, 3)))
        N = rng.randrange(1, 4)
        f = rand_exppoly(rng, F, max_exp=5, floor=-60)
        shifts = [rand_poly(rng, F, N - 1) for _ in range(rng.randrange(1, 6))]
        assert weyl_shift_check(f, shifts, N)
    for _ in range(50):
        F = field(rng.choice((2, 3, 5)))
        N = rng.randrange(1, 4)
        f = rand_exppoly(rng, F, max_exp=6, floor=-60, with_const=0.5)
        support = f.support()
        if not support:
            continue
        k = rng.choice(sorted(maximal_elements(support, F.p)))
        x = rand_poly(rng, F, N - 1)
        se = shift_expand(f, x, k)
        assert set(se.gamma_map()) <= shadow(support, F.p) - {k}
        expanded = se.as_exppoly(F)
        all_rational = all(isinstance(c, RationalK) for _, c in f.terms)
        for y in enumerate_GN(F, N):
            lhs = f.evaluate(y - x)
            rhs = expanded.evaluate(y)
            if all_rational:
                assert lhs == rhs  # exact element equality
            assert e_of(lhs) == e_of(rhs)
    _report("C9 shift identity and expansion", time.perf_counter() - t0, 60)


def test_c10_spacing_instances():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    built = 0
    # large-denominator branch
    for q, k in ((3, 2), (5, 2), (5, 3), (2, 3), (3, 4), (7, 2), (7, 3), (2, 5)):
        F = field(q)
        if k % F.p == 0:
            continue
        for gdeg in (2, 3):
            g = rng.choice(irreducibles(F, gdeg))
            a = poly_from_index(F, rng.randrange(1, q ** gdeg), gdeg)
            M, N = gdeg - 1, gdeg + 1
            if M < 1:
                continue
            J = k * M + gdeg + 3
            alpha = kadd(RationalK(a, g),
                         RationalK(F.poly_one, F.poly_one.shift(J)))
            points = list(irreducibles(F, M))[:4]
            try:
                min_gap, ok = spacing_check(alpha, k, g, a, M, N, points)
            except Exception:
                continue
            assert ok, (q, k, str(g), min_gap)
            built += 1
    # small-denominator branch with a congruent pair, bound met exactly
    F3 = field(3)
    g = F3.poly_t
    alpha = kadd(RationalK(F3.poly_one, g),
                 RationalK(F3.poly_one, parse_poly(F3, "t^7")))
    pts = [x for x in irreducibles(F3, 2) if (x % g) == Poly(F3, (2,))]
    min_gap, ok = spacing_check(alpha, 2, g, F3.poly_one, 2, 4, pts)
    assert ok and min_gap == 2 * (2 - 4)
    built += 1
    assert built >= 10, built
    _report(f"C10 spacing instances ({built})", time.perf_counter() - t0, 30)


def test_c11_equidistribution_smoke_and_saturation():
    t0 = time.perf_counter()
    fixture = json.loads((FIXTURES / "weyl_smoke.json").read_text())
    spec = fixture["q2"]
    F = field(2)
    assert spec["N"] == 14 and spec["D"] == 3
    for seed in spec["seeds"]:
        al = kernel_element(F, spec["floor"], seed)
        f = ExpPoly(F, {spec["k"]: al})
        sup = max(twisted_sum(f, poly_from_index(F, mi, spec["D"]),
                              spec["N"]).normalized()
                  for mi in range(1, 2 ** spec["D"]))
        assert sup < spec["threshold"], (seed, sup)
    # the q = 3 companion case pinned by the same calibration
    spec3 = fixture["q3"]
    F3 = field(3)
    for seed in spec3["seeds"]:
        al = kernel_element(F3, spec3["floor"], seed)
        f = ExpPoly(F3, {spec3["k"]: al})
        sup = max(twisted_sum(f, poly_from_index(F3, mi, spec3["D"]),
                              spec3["N"]).normalized()
                  for mi in range(1, 3 ** spec3["D"]))
        assert sup < spec3["threshold"], (seed, sup)
    # congruence-average saturation: exact 1 for qualifying rationals
    for q, M, N in ((2, 3, 6), (3, 2, 5)):
        Fq = field(q)
        phi = {2: Fq.poly_one}
        gm = gm_build(Fq, M, phi)
        for hdeg in range(0, M):
            for hi in range(q ** hdeg):
                low = poly_from_index(Fq, hi, hdeg).coeffs
                h = Poly(Fq, list(low) + [0] * (hdeg - len(low)) + [1])
                a = Fq.poly_one if hdeg == 0 else poly_from_index(Fq, 1, hdeg)
                r = t_mn(phi, RationalK(a, h), M, N, Fq, gm=gm)
                assert r.exact_one, (q, str(h))
    _report("C11 equidistribution smoke + saturation",
            time.perf_counter() - t0, 600)


def test_c12_intersective_witness():
    t0 = time.perf_counter()
    for q in (2, 3):
        F = field(q)
        phi = {2: F.poly_one}
        A = DenseSet.from_residues(F, 8, F.poly_t, [F.poly_zero])
        assert A.density() == Fraction(1, q)
        w = difference_search(A, phi, 3)
        assert w is not None
        assert w.a - w.a_prime == w.value and not w.value.is_zero()
        # the witness difference is a square of a polynomial within the bound
        assert w.value == w.x * w.x
    _report("C12 intersective witness", time.perf_counter() - t0, 10)
