import json
import random
from fractions import Fraction

import pytest

from ffweyl import cli, expsum, sieve
from ffweyl.algebra import Field, Poly, enumerate_GN, parse_poly, poly_from_index
from ffweyl.errors import (BudgetError, DomainError, FFWeylError, HypothesisError,
                           PrecisionError)
from ffweyl.expsum import CharSum, ExpPoly, e_of
from ffweyl.kinfty import RationalK, kernel_element, kmul_poly
from ffweyl.sieve import (DenseSet, density, difference_search, gm_build, gm_degree,
                          t_mn, t_mn_rows)

from helpers import (every_field, field, rand_completion, rand_nonzero_poly, rand_rational,
                     rand_series, t_mn_loop)


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


def _rows_or_error(call, *args):
    """The results of a sieve call, or the type and text of its error."""
    try:
        return call(*args)
    except FFWeylError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("block", [2, 16, expsum.BLOCK])
def test_tmn_rows_match_the_per_n_loop(monkeypatch, block):
    # a small block puts most bounds q^N inside a block of the one pass
    monkeypatch.setattr(expsum, "BLOCK", block)
    rng = random.Random(74)
    middle = set()  # the kinds of error raised at an N other than the largest
    zero = 0
    for F in every_field():
        top = 5 if F.q <= 3 else 3 if F.q <= 5 else 2
        for case in range(4):
            phi = {r: rand_nonzero_poly(rng, F, 1)
                   for r in rng.sample(range(4), rng.randrange(1, 4))}
            if case == 3:  # a power whose table a budget near its charge refuses
                phi = {F.q ** 2 - 1: F.poly_one}
            M = rng.randrange(1, 3)
            gm = gm_build(F, M, phi)
            if gm.root is None:
                continue
            # floors that some N exhausts; N = 0 reads only the constant
            alpha = (rand_rational(rng, F, 3), rand_series(rng, F, -rng.randrange(2, 16)),
                     kernel_element(F, -rng.randrange(2, 16), case))[case % 3]
            budget = int(10 ** rng.uniform(1.2, 3 if case == 3 else 4))
            budget = rng.choice((None, budget)) if case < 3 else budget
            lists = [rng.sample(range(top + 1), rng.randrange(1, top + 2)),
                     [rng.randrange(top + 1) for _ in range(4)],
                     range(rng.randrange(2), rng.randrange(1, top + 1) + 1),
                     [0], [0, 0], [top, 0, top]]
            for Ns in lists:
                want = _rows_or_error(t_mn_loop, phi, alpha, M, Ns, F, gm, "literal", budget)
                got = _rows_or_error(t_mn_rows, phi, alpha, M, Ns, F, gm, "literal", budget)
                assert got == want, (F, phi, alpha, Ns, budget)
                if isinstance(want, str) and want != _rows_or_error(
                        t_mn_loop, phi, alpha, M, [max(Ns)], F, gm, "literal", budget):
                    middle.add("power table" if "power table" in want else
                               "floor" if "has floor" in want else want)
                zero += max(Ns) == 0 and not isinstance(want, str)
    assert {"power table", "floor"} <= middle and zero, (middle, zero)


def test_tmn_is_invariant_under_completion():
    # a truncated alpha either raises PrecisionError or gives the rows of
    # every completion below its floor
    rng = random.Random(75)
    raised = passed = 0
    for F in every_field():
        top = 4 if F.q <= 3 else 2
        for _ in range(5):
            phi = {r: rand_nonzero_poly(rng, F, 1)
                   for r in rng.sample(range(4), rng.randrange(1, 4))}
            M = rng.randrange(1, 3)
            gm = gm_build(F, M, phi)
            if gm.root is None:
                continue
            alpha = rand_series(rng, F, -rng.randrange(2, 20))
            full = rand_completion(rng, alpha)
            Ns = rng.sample(range(top + 1), rng.randrange(1, top + 2))
            try:
                rows = t_mn_rows(phi, alpha, M, Ns, F, gm)
            except PrecisionError:
                raised += 1
                continue
            assert t_mn_rows(phi, full, M, Ns, F, gm) == rows
            assert [t_mn(phi, full, M, N, F, gm) for N in Ns] == rows
            passed += 1
    assert raised and passed, (raised, passed)


def test_sieve_tmn_makes_one_engine_call_per_command(monkeypatch, capsys):
    calls = []
    engine = sieve._split_blocks

    def recording(f, width, N, lo, hi, budget=None):
        calls.append((N, width, lo, hi))
        return engine(f, width, N, lo, hi, budget)

    monkeypatch.setattr(sieve, "_split_blocks", recording)
    F3 = field(3)
    phi = {2: F3.poly_one}
    alpha = RationalK(F3.poly_one, parse_poly(F3, "t^2+1"))
    for arg, Ns in (("3,1,0,3,2", [3, 1, 0, 3, 2]), ("1..4", [1, 2, 3, 4]), ("0", [0])):
        calls.clear()
        assert cli.main(["sieve-tmn", "--field", "q=3", "--phi", "u^2", "--alpha",
                         "1 / t^2+1", "--M", "2", "--N", arg]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        want = t_mn_loop(phi, alpha, 2, Ns, F3)
        assert [(r["N"], r["exact_one"]) for r in rows] == [(N, w.exact_one)
                                                           for N, w in zip(Ns, want)]
        assert calls == [(max(Ns), 1, 0, 3 ** max(Ns))]


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
