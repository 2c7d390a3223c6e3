import random
from fractions import Fraction

import pytest

from ffweyl.algebra import Field, Poly, enumerate_GN, parse_poly, poly_from_index
from ffweyl.errors import BudgetError, DomainError, HypothesisError, PrecisionError
from ffweyl.expsum import CharSum, ExpPoly, e_of
from ffweyl.kinfty import RationalK, kernel_element, kmul_poly
from ffweyl.sieve import (DenseSet, density, difference_search, gm_build, gm_degree,
                          t_mn)

from helpers import field, rand_nonzero_poly, rand_rational, rand_series


def test_gm_examples():
    F2 = field(2)
    assert gm_build(F2, 1).modulus == F2.poly_one
    assert gm_build(F2, 2).modulus == parse_poly(F2, "t^2+t")
    gb = gm_build(F2, 3)
    # product of the six monic polynomials of degree 1 and 2
    assert gb.modulus.deg == 1 + 1 + 2 + 2 + 2 + 2
    assert dict((str(l), e) for l, e in gb.factors) == \
        {"t": 4, "t + 1": 4, "t^2 + t + 1": 1}


def test_gm_modulus_is_the_product_of_all_monics():
    for q, M_max in ((2, 4), (3, 4), (4, 4), (5, 4), (8, 3), (9, 3)):
        F = field(q)
        product = F.poly_one
        for M in range(1, M_max + 1):
            if M > 1:
                for x in enumerate_GN(F, M - 1):
                    product = product * (x + F.poly_one.shift(M - 1))
            gb = gm_build(F, M, degree_budget=10 ** 4)
            assert gb.modulus == product, (q, M)


def test_gm_degree_formula_matches_the_enumeration():
    for q in (2, 3, 4, 5):
        F = field(q)
        for M in range(1, 5):
            for mode in ("literal", "squarefree"):
                gb = gm_build(F, M, mode=mode, degree_budget=10 ** 4)
                assert gm_degree(q, M, mode) == gb.modulus.deg == \
                    sum(l.deg * e for l, e in gb.factors), (q, M, mode)
    # the budget check needs no irreducible of degree 4 over F_9; a fresh
    # field, as Field.parse shares one whose cache other tests fill
    F9 = Field(3, 2)
    with pytest.raises(BudgetError, match="deg g_M = 28602"):
        gm_build(F9, 5)
    assert not F9._irr_cache


def test_gm_root_and_crt_consistency():
    F2, F3 = field(2), field(3)
    phi = {2: F2.poly_one}
    gb = gm_build(F2, 3, phi)
    assert gb.root is not None and gb.reason is None
    assert ((gb.root ** 2) % gb.modulus).is_zero()
    for l, e in gb.factors:
        assert ((gb.root ** 2) % (l ** e)).is_zero()
        assert ((gb.root ** 2) % l).is_zero()
    # a zero constant term always admits the root 0, found first by the
    # deterministic enumeration order
    assert gm_build(F2, 2, {3: F2.poly_one, 1: F2.poly_t}).root == F2.poly_zero
    assert gb.root == F2.poly_zero
    phi3 = {2: F3.poly_one}
    gb3 = gm_build(F3, 3, phi3)
    assert ((gb3.root ** 2) % gb3.modulus).is_zero()


def test_gm_m1_trivial_root():
    F2 = field(2)
    gb = gm_build(F2, 1, {2: F2.poly_one, 0: F2.poly_one})
    assert gb.modulus == F2.poly_one and gb.root == F2.poly_zero


def test_gm_no_root_report():
    F3 = field(3)
    # u^2 - t has no root mod t^2+1 (checked exhaustively by roots_mod)
    phi = {2: F3.poly_one, 0: -F3.poly_t}
    gb = gm_build(F3, 3, phi)
    if gb.root is None:
        assert gb.reason and "no root" in gb.reason
    else:
        # if a root exists the build must verify
        acc = (gb.root ** 2 - F3.poly_t) % gb.modulus
        assert acc.is_zero()


def test_gm_squarefree_mode_and_budget():
    F3 = field(3)
    gb = gm_build(F3, 3, mode="squarefree")
    assert all(e == 1 for _, e in gb.factors)
    assert gb.mode == "squarefree"
    with pytest.raises(BudgetError):
        gm_build(F3, 4, degree_budget=10)
    with pytest.raises(DomainError):
        gm_build(F3, 2, mode="bogus")


def test_tmn_trivial_and_saturation():
    F2 = field(2)
    phi = {2: F2.poly_one}
    r = t_mn(phi, RationalK(F2.poly_zero), 3, 4, F2)
    assert r.exact_one and r.normalized == 1.0
    # every rational with a monic denominator of degree < M saturates exactly
    gm = gm_build(F2, 3, phi)
    for hdeg in (0, 1, 2):
        for hi in range(2 ** hdeg):
            low = poly_from_index(F2, hi, hdeg).coeffs
            h = Poly(F2, list(low) + [0] * (hdeg - len(low)) + [1])
            for ai in range(2 ** hdeg):
                a = poly_from_index(F2, ai, hdeg) if hdeg else F2.poly_one
                r = t_mn(phi, RationalK(a, h), 3, 4, F2, gm=gm)
                assert r.exact_one, (str(a), str(h))


def test_tmn_pseudo_irrational_decays():
    F3 = field(3)
    phi = {2: F3.poly_one}
    gm = gm_build(F3, 2, phi)
    al = kernel_element(F3, -80, 5)
    values = [t_mn(phi, al, 2, N, F3, gm=gm).normalized for N in (1, 3, 5)]
    assert values[-1] < 0.2  # recorded seeded behaviour, not a theorem
    assert all(0 <= v <= 1 + 1e-12 for v in values)


def test_tmn_matches_pointwise_evaluate():
    # t_mn expands alpha*phi(g_M x + root) into one ExpPoly in x; the oracle
    # composes and evaluates it point by point in K
    rng = random.Random(71)
    for q in (2, 3, 4, 9):
        F = field(q)
        tested = 0
        for case in range(9):
            phi = {r: rand_nonzero_poly(rng, F, 1)
                   for r in rng.sample(range(4), rng.randrange(1, 4))}
            M = 1 + case % 2
            gm = gm_build(F, M, phi)
            if gm.root is None:
                continue
            alpha = (rand_rational(rng, F, 3), rand_series(rng, F, -80),
                     kernel_element(F, -80, case))[case % 3]
            base = ExpPoly(F, {r: kmul_poly(alpha, c) for r, c in phi.items()})
            for N in range(5 if q <= 4 else 4):  # q^N evaluations in K
                want = CharSum.from_residues(
                    F.p, [e_of(base.evaluate(gm.modulus * x + gm.root))
                          for x in enumerate_GN(F, N)])
                assert t_mn(phi, alpha, M, N, F, gm=gm).histogram == want, (q, case, N)
            tested += 1
        assert tested >= 3
    # G_0 = {0} reads only the constant term, so a shallow floor still suffices
    F2 = field(2)
    shallow = rand_series(rng, F2, -2)
    assert t_mn({2: F2.poly_one}, shallow, 2, 0, F2).exact_one
    with pytest.raises(PrecisionError):
        t_mn({2: F2.poly_one}, shallow, 2, 1, F2)


def test_tmn_requires_root():
    F3 = field(3)
    phi = {2: F3.poly_one, 0: -F3.poly_t}
    gb = gm_build(F3, 3, phi)
    if gb.root is None:
        with pytest.raises(HypothesisError):
            t_mn(phi, RationalK(F3.poly_zero), 3, 2, F3, gm=gb)


def test_density_examples():
    F2 = field(2)
    assert density(DenseSet.full(F2, 3)) == 1
    assert density(DenseSet.from_elems(F2, 3, [])) == 0
    A = DenseSet.from_residues(F2, 3, F2.poly_t, [F2.poly_zero])
    assert density(A) == Fraction(1, 2)
    with pytest.raises(DomainError):
        DenseSet.from_elems(F2, 1, [parse_poly(F2, "t^2")])


def test_difference_search_witnesses():
    F2, F3 = field(2), field(3)
    phi = {2: F2.poly_one}
    # residue class mod t: first witness is x = t, a = t^2, a' = 0
    A = DenseSet.from_residues(F2, 8, F2.poly_t, [F2.poly_zero])
    w = difference_search(A, phi, 3)
    assert w is not None and w.verify()
    assert w.x == F2.poly_t and w.value == parse_poly(F2, "t^2")
    # full set with the identity polynomial
    w = difference_search(DenseSet.full(F2, 2), {1: F2.poly_one}, 2)
    assert w is not None and w.verify()
    # two isolated elements whose difference is outside the image
    A2 = DenseSet.from_elems(F2, 3, [F2.poly_zero, parse_poly(F2, "t^2+t+1")])
    assert difference_search(A2, phi, 2) is None
    with pytest.raises(DomainError):
        difference_search(DenseSet.from_elems(F2, 2, [F2.poly_zero]), phi, 2)
    # q = 3 variant
    A3 = DenseSet.from_residues(F3, 6, F3.poly_t, [F3.poly_zero])
    w3 = difference_search(A3, {2: F3.poly_one}, 2)
    assert w3 is not None and w3.verify() and (w3.value % F3.poly_t).is_zero()


def test_difference_search_deterministic_order():
    rng = random.Random(70)
    F2 = field(2)
    phi = {1: F2.poly_one}
    for _ in range(10):
        elems = [poly_from_index(F2, i, 4)
                 for i in rng.sample(range(16), rng.randrange(3, 9))]
        A = DenseSet.from_elems(F2, 4, elems)
        w1 = difference_search(A, phi, 3)
        w2 = difference_search(A, phi, 3)
        assert w1 == w2
        if w1 is not None:
            assert w1.verify()
