import cmath
import collections
import math
import random

import pytest

from ffweyl import algebra
from ffweyl.algebra import (NEG_INF, Poly, enumerate_GN, irreducibles,
                            parse_poly, poly_from_index)
from ffweyl.errors import (BudgetError, DomainError, FFWeylError, HypothesisError,
                           PrecisionError)
from ffweyl.expsum import CharSum, ExpPoly, e_of
from ffweyl.exponents import ktilde, maximal_elements, shadow
from ffweyl.kinfty import (RationalK, kadd, kernel_element, kmul_poly,
                           kmul_scalar, parse_kelem, TruncSeries, truncate)
from ffweyl.weylmachinery import (SpacedFamily, kth_power_classes, large_sieve_check,
                                  minor_arc_probe, shift_expand,
                                  space_family, spacing_check,
                                  split_by_kth_power, weyl_shift_check)

from helpers import (every_field, field, rand_completion, rand_exppoly, rand_monic,
                     rand_nonzero_poly, rand_poly, rand_rational, rand_series)


def test_weyl_shift_trivial_cases():
    F2 = field(2)
    f = ExpPoly(F2, {3: RationalK(F2.poly_one, parse_poly(F2, "t^2+t+1"))})
    assert weyl_shift_check(f, [F2.poly_zero], 2)
    assert weyl_shift_check(f, list(enumerate_GN(F2, 2)), 2)
    with pytest.raises(DomainError):
        weyl_shift_check(f, [], 2)


def test_weyl_shift_fuzz():
    rng = random.Random(50)
    for _ in range(50):
        F = field(rng.choice((2, 3)))
        N = rng.randrange(1, 4)
        f = rand_exppoly(rng, F, max_exp=5)
        shifts = [rand_poly(rng, F, N - 1) for _ in range(rng.randrange(1, 6))]
        assert weyl_shift_check(f, shifts, N)


SHIFT_FIELDS = [field(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [
    field(4, "x^2+x+1"), field(9, "x^2+x+2")]


def _shift_check_pointwise(f, shifts, N):
    """The per-point oracle: e_of(f(x)) over G_N against e_of(f(y - x)) over
    G_N x shifts, every value through full K arithmetic."""
    if not shifts:
        raise DomainError("empty shift multiset")
    p = f.field.p
    points = list(enumerate_GN(f.field, N))
    lhs = CharSum.from_residues(p, [e_of(f.evaluate(x)) for x in points])
    return lhs.scale(len(shifts)) == CharSum.from_residues(
        p, [e_of(f.evaluate(y - x)) for x in points for y in shifts])


def _outcome(check, *args):
    """The bool a check returns, or the type of the exception it raises."""
    try:
        return check(*args)
    except FFWeylError as exc:
        return type(exc)


def test_weyl_shift_matches_pointwise_oracle():
    rng = random.Random(1505)
    seen = collections.Counter()
    for _ in range(120):
        F = rng.choice(SHIFT_FIELDS)
        N = rng.randrange(4)
        f = rand_exppoly(rng, F, max_exp=4, floor=-rng.randrange(2, 14))
        shifts = [rand_poly(rng, F, N - 1 + rng.randrange(3))
                  for _ in range(rng.randrange(1, 4))]
        got = _outcome(weyl_shift_check, f, shifts, N)
        assert got == _outcome(_shift_check_pointwise, f, shifts, N), (F, N, f, shifts)
        seen[got] += 1
    assert seen[False] and seen[PrecisionError], seen


def test_weyl_shift_refuses_foreign_shifts_and_small_budgets():
    F3, F5 = field(3), field(5)
    f = ExpPoly(F3, {2: RationalK(F3.poly_one, parse_poly(F3, "t^2+1"))})
    foreign = [F3.poly_zero, parse_poly(F5, "t")]
    for check in (weyl_shift_check, _shift_check_pointwise):
        with pytest.raises(DomainError):
            check(f, foreign, 2)
        with pytest.raises(DomainError):
            check(ExpPoly(F3, {}), foreign, 2)
    with pytest.raises(BudgetError, match="shift check of 18 points exceeds budget 17"):
        weyl_shift_check(f, [F3.poly_zero, F3.poly_one], 2, budget=17)
    assert weyl_shift_check(f, [F3.poly_zero, F3.poly_one], 2, budget=18)


def test_shift_expand_zero_shift():
    F3 = field(3)
    al = RationalK(F3.poly_one, parse_poly(F3, "t^2"))
    be = RationalK(parse_poly(F3, "t+1"), parse_poly(F3, "t^3"))
    f = ExpPoly(F3, {4: al, 1: be, 0: RationalK(F3.poly_t)})
    se = shift_expand(f, F3.poly_zero, 4)
    assert se.lead == al
    assert se.gamma_map() == {1: be}
    assert se.constant == RationalK(F3.poly_t)


def test_shift_expand_quadratic_odd_char():
    F5 = field(5)
    c = parse_poly(F5, "t")
    al = RationalK(F5.poly_one, parse_poly(F5, "t^3"))
    se = shift_expand(ExpPoly(F5, {2: al}), c, 2)
    assert se.gamma_map()[1] == kmul_scalar(kmul_poly(al, c), 3)  # -2 mod 5
    assert se.constant == kmul_poly(al, c * c)


def test_shift_expand_cubic_char2():
    F2 = field(2)
    c = parse_poly(F2, "t+1")
    al = RationalK(F2.poly_one, parse_poly(F2, "t^3+t+1"))
    se = shift_expand(ExpPoly(F2, {3: al}), c, 3)
    g = se.gamma_map()
    assert g[2] == kmul_poly(al, c)
    assert g[1] == kmul_poly(al, c * c)
    assert se.constant == kmul_poly(al, c ** 3)


def test_shift_expand_requires_maximal():
    F2 = field(2)
    f = ExpPoly(F2, {3: RationalK(F2.poly_one, F2.poly_t),
                     1: RationalK(F2.poly_one, F2.poly_t)})
    with pytest.raises(DomainError):
        shift_expand(f, F2.poly_zero, 1)  # 1 sits below 3 in the digit order


def test_shift_expand_pointwise_fuzz():
    rng = random.Random(51)
    for _ in range(50):
        F = field(rng.choice((2, 3, 5)))
        N = rng.randrange(1, 4)
        f = rand_exppoly(rng, F, max_exp=6, floor=-60)
        support = f.support()
        if not support:
            continue
        k = rng.choice(sorted(maximal_elements(support, F.p)))
        x = rand_poly(rng, F, N - 1)
        se = shift_expand(f, x, k)
        assert set(se.gamma_map()) <= shadow(support, F.p) - {k}
        expanded = se.as_exppoly(F)
        for y in enumerate_GN(F, N):
            assert e_of(f.evaluate(y - x)) == e_of(expanded.evaluate(y))


def test_kth_power_classes_examples():
    F3 = field(3)
    classes = kth_power_classes(F3.poly_t, 2)
    assert classes == [(F3.poly_one,), (Poly(F3, (2,)),)]
    assert len(kth_power_classes(F3.poly_t, 1)) == 1
    assert kth_power_classes(F3.poly_one, 4) == [(F3.poly_zero,)]


def test_kth_power_classes_walk_with_the_callers_budget(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_BUDGET", 8)
    F2 = field(2)
    g = parse_poly(F2, "t^4+t+1")
    classes = kth_power_classes(g, 3, budget=100)
    assert sorted(x.code() for c in classes for x in c) == list(range(1, 16))


def test_kth_power_classes_property_fuzz():
    rng = random.Random(52)
    from ffweyl.algebra import poly_gcd
    for _ in range(40):
        F = field(rng.choice((2, 3)))
        g = rand_poly(rng, F, 3)
        if g.is_zero():
            continue
        k = rng.randrange(1, 5)
        classes = kth_power_classes(g, k)
        members = [x for c in classes for x in c]
        units = [x for x in enumerate_GN(F, max(g.deg, 0))
                 if poly_gcd(x, g).deg == 0]
        assert sorted(members, key=lambda v: v.code()) == \
            sorted(units, key=lambda v: v.code())
        for cl in classes:
            for i, l1 in enumerate(cl):
                for l2 in cl[i + 1:]:
                    assert (l1.mod_pow(k, g) == l2.mod_pow(k, g)) == \
                        ((l1 % g) == (l2 % g))


def test_split_by_kth_power_on_irreducibles():
    F3 = field(3)
    g = F3.poly_t
    fam = split_by_kth_power(irreducibles(F3, 2), g, 2)
    for cl in fam:
        for i, l1 in enumerate(cl):
            for l2 in cl[i + 1:]:
                assert (l1.mod_pow(2, g) == l2.mod_pow(2, g)) == \
                    ((l1 % g) == (l2 % g))


def test_spacing_case_large_denominator():
    # ord g > M branch: gaps at least |g|^{-1}
    F3 = field(3)
    g = parse_poly(F3, "t^2+1")
    a = F3.poly_one
    alpha = kadd(RationalK(a, g), RationalK(F3.poly_one, parse_poly(F3, "t^7")))
    points = list(irreducibles(F3, 1))
    min_gap, ok = spacing_check(alpha, 2, g, a, 1, 2, points)
    assert ok and min_gap >= min(-g.deg, 2 * (1 - 2))


def test_spacing_case_congruent_pair_exact_bound():
    # ord g <= M branch with a congruent pair: the k(M-N) bound binds exactly
    F3 = field(3)
    g = F3.poly_t
    a = F3.poly_one
    alpha = kadd(RationalK(a, g), RationalK(F3.poly_one, parse_poly(F3, "t^7")))
    points = [x for x in irreducibles(F3, 2) if (x % g) == Poly(F3, (2,))]
    assert len(points) == 2
    min_gap, ok = spacing_check(alpha, 2, g, a, 2, 4, points)
    assert ok and min_gap == 2 * (2 - 4)


def test_spacing_constructed_instances():
    rng = random.Random(53)
    built = 0
    for q, k in ((3, 2), (5, 2), (5, 3), (2, 3), (3, 4), (7, 2), (7, 3), (2, 5)):
        F = field(q)
        if k % F.p == 0:
            continue
        for gdeg in (2, 3):
            g = rng.choice(irreducibles(F, gdeg))
            a = poly_from_index(F, rng.randrange(1, F.q ** gdeg), gdeg)
            M, N = gdeg - 1, gdeg + 1
            if M < 1:
                continue
            J = k * M + gdeg + 3
            alpha = kadd(RationalK(a, g),
                         RationalK(F.poly_one, F.poly_one.shift(J)))
            points = list(irreducibles(F, M))[:4]
            try:
                min_gap, ok = spacing_check(alpha, k, g, a, M, N, points)
            except HypothesisError:
                continue
            assert ok, (q, k, str(g), min_gap)
            built += 1
    assert built >= 10


def test_spacing_hypothesis_errors():
    F2 = field(2)
    with pytest.raises(HypothesisError):
        # k = 2 is excluded in characteristic 2
        spacing_check(RationalK(F2.poly_one, parse_poly(F2, "t^5")), 2,
                      F2.poly_t, F2.poly_one, 1, 2, list(irreducibles(F2, 1)))
    F3 = field(3)
    g = F3.poly_t
    alpha = kadd(RationalK(F3.poly_one, g),
                 RationalK(F3.poly_one, parse_poly(F3, "t^7")))
    points = [x for x in irreducibles(F3, 2) if (x % g) == Poly(F3, (2,))]
    with pytest.raises(HypothesisError):
        spacing_check(alpha, 3, g, F3.poly_one, 2, 4, points)  # p | k
    with pytest.raises(HypothesisError):
        spacing_check(alpha, 2, g, F3.poly_t, 2, 4, points)    # gcd(a, g) != 1
    with pytest.raises(HypothesisError):
        # approximation not close enough: alpha = a/g exactly fails ord < -kM
        spacing_check(RationalK(F3.poly_one, g), 2, g, F3.poly_one, 2, 4, points)
    with pytest.raises(HypothesisError):
        bad = [parse_poly(F3, "t^2")]  # reducible
        spacing_check(alpha, 2, g, F3.poly_one, 2, 4, bad)
    # vacuous family passes
    min_gap, ok = spacing_check(alpha, 2, g, F3.poly_one, 2, 4, points[:1])
    assert ok and min_gap == math.inf


def test_spacing_hypothesis_needs_certified_digits():
    # g*alpha - a = O(t^-4) only says ord <= -5: below -kM = -2, but not
    # decidable against M - kN = -7, which a deeper floor settles
    F3 = field(3)
    args = (2, F3.poly_t, F3.poly_one, 1, 4, list(irreducibles(F3, 1)))
    with pytest.raises(PrecisionError):
        spacing_check(parse_kelem(F3, "t^-1 + O(t^-5)"), *args)
    with pytest.raises(HypothesisError):
        spacing_check(parse_kelem(F3, "t^-1 + O(t^-9)"), *args)


def test_large_sieve_single_point_equality():
    F2 = field(2)
    rep = large_sieve_check([RationalK(F2.poly_one, F2.poly_t)],
                            [1.0] * 4, 2, K=1)
    assert rep.passed and rep.lhs <= rep.rhs


def test_large_sieve_full_residue_family():
    rng = random.Random(54)
    F3 = field(3)
    g = parse_poly(F3, "t^2+1")
    fam = [RationalK(poly_from_index(F3, i, 2), g) for i in range(9)]
    b = [complex(rng.random(), rng.random()) for _ in range(27)]
    rep = large_sieve_check(fam, b, 3, K=3)  # packet gaps reach -2 exactly
    assert rep.passed


def test_large_sieve_refuses_a_point_from_another_field():
    F2, F3 = field(2), field(3)
    points = (RationalK(F2.poly_one, F2.poly_t), RationalK(F3.poly_one, F3.poly_t))
    with pytest.raises(DomainError, match="^mixed-field polynomial arithmetic$"):
        large_sieve_check(list(points), [1.0, 1.0], 1, K=3)
    # a family given as spaced reaches the engine, whose ExpPoly refuses the point
    with pytest.raises(DomainError, match="^coefficient from the wrong field$"):
        large_sieve_check(SpacedFamily(points, -1), [1.0, 1.0], 1, K=3)


def test_large_sieve_strict_hypothesis_boundary():
    # the packet {a/t^2} over F_2 with N = 1 and unit weights: lhs = 8;
    # it qualifies at K = 3 where the bound is 8 (equality), and the
    # non-strict K = 2 is rejected rather than falsified
    F2 = field(2)
    g = parse_poly(F2, "t^2")
    fam = [RationalK(poly_from_index(F2, i, 2), g) for i in range(4)]
    rep = large_sieve_check(fam, [1.0, 1.0], 1, K=3)
    assert rep.passed and abs(rep.lhs - 8.0) < 1e-9 and abs(rep.rhs - 8.0) < 1e-9
    with pytest.raises(HypothesisError):
        large_sieve_check(fam, [1.0, 1.0], 1, K=2)


def test_large_sieve_lhs_matches_pointwise():
    # each S(gamma) comes from the residue engine; the oracle walks G_N in K
    rng = random.Random(57)
    for q, modulus in ((2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                       (9, None), (9, "x^2+x+2")):
        F = field(q, modulus)
        for _ in range(4):
            N = rng.randrange(0, 4)
            fam = space_family([rand_rational(rng, F, 2) for _ in range(3)]
                               + [rand_series(rng, F, -N - 3)])
            b = [complex(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(q ** N)]
            want = sum(abs(sum(w * cmath.exp(2j * math.pi * e_of(kmul_poly(g, x)) / F.p)
                               for w, x in zip(b, enumerate_GN(F, N)))) ** 2
                       for g in fam.points)
            K = 1 if fam.gap == math.inf else max(1, 1 - fam.gap)
            rep = large_sieve_check(fam, b, N, K)
            assert abs(rep.lhs - want) <= 1e-9 * max(1.0, want)


def test_large_sieve_randomized_sweep():
    from helpers import rand_monic
    rng = random.Random(55)
    ran = 0
    for _ in range(100):
        F = field(rng.choice((2, 3)))
        N = rng.randrange(1, 5)
        gdeg = rng.randrange(1, 4)
        # residue fractions a/g are pairwise spaced at least q^-deg(g) apart
        g = rand_monic(rng, F, gdeg)
        size = rng.randrange(2, min(F.q ** gdeg, 9) + 1)
        idxs = rng.sample(range(F.q ** gdeg), size)
        fam = space_family([RationalK(poly_from_index(F, i, gdeg), g)
                            for i in idxs])
        assert fam.gap >= -gdeg
        K = max(1, 1 - fam.gap) if fam.gap != math.inf else 1
        b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(F.q ** N)]
        rep = large_sieve_check(fam, b, N, K=K)
        assert rep.passed, (F.q, N, K, rep.lhs, rep.rhs)
        ran += 1
    assert ran == 100


def test_large_sieve_spacing_certification_failure():
    F2 = field(2)
    # two equal points have fractional gap -inf: finer than any stated K
    pts = [RationalK(F2.poly_one, F2.poly_t), RationalK(F2.poly_one, F2.poly_t)]
    with pytest.raises(HypothesisError):
        large_sieve_check(pts, [1.0] * 2, 1, K=1)


def test_minor_arc_probe_rational_trigger():
    F3 = field(3)
    f = ExpPoly(F3, {2: RationalK(F3.poly_one, F3.poly_t)})
    rep = minor_arc_probe(f, 2, 4, eta=2)
    assert rep.triggered
    assert rep.best is not None and rep.best.g == F3.poly_t
    assert rep.best.quality is NEG_INF


def test_minor_arc_probe_pseudo_irrational_quiet():
    F2 = field(2)
    f = ExpPoly(F2, {3: kernel_element(F2, -60, 5)})
    rep = minor_arc_probe(f, 3, 12, eta=3)
    assert not rep.triggered
    assert rep.best is None and rep.entries == ()


def test_minor_arc_probe_trivial_threshold_and_domain():
    F2 = field(2)
    # eta >= N makes the threshold <= 1; an integral coefficient (constant
    # character value 1, so the sum is full) trips it trivially
    rep = minor_arc_probe(ExpPoly(F2, {1: RationalK(F2.poly_one)}), 1, 2, eta=2)
    assert rep.triggered
    with pytest.raises(DomainError):
        minor_arc_probe(ExpPoly(F2, {2: RationalK(F2.poly_one, F2.poly_t)}),
                        2, 3, eta=1)  # k = 2 not in the peeled core at p = 2


def _cut_to(deep, shallow):
    """deep with its digits below the floor of shallow forgotten (a rational
    shallow is compared whole)."""
    return deep if isinstance(shallow, RationalK) else truncate(deep, shallow.floor)


def test_minor_arc_probe_and_shift_expand_are_invariant_under_completion():
    # on truncated series each either raises PrecisionError or gives the
    # result of every completion below the floors: the probe the same
    # report, and shift_expand the completion's coefficients cut to its own
    rng = random.Random(83)
    outcomes = collections.Counter()
    for F in every_field():
        top = 4 if F.q <= 3 else 2
        for _ in range(8):
            f = rand_exppoly(rng, F, max_exp=4, floor=-rng.randrange(2, 24))
            full = ExpPoly(F, {r: rand_completion(rng, c) for r, c in f.terms})
            support = f.support()
            if not support:
                continue
            N, eta = rng.randrange(1, top + 1), rng.randrange(3)
            core = sorted(ktilde(support, F.p))
            if core:
                try:
                    report = minor_arc_probe(f, core[0], N, eta)
                except PrecisionError:
                    outcomes["probe raised"] += 1
                else:
                    assert minor_arc_probe(full, core[0], N, eta) == report, (F, f, N, eta)
                    outcomes["probe triggered" if report.triggered else "probe quiet"] += 1
            # shift_expand reads no digit it is not given: its series only move
            k = rng.choice(sorted(maximal_elements(support, F.p)))
            x = rand_poly(rng, F, 2)
            se, deep = shift_expand(f, x, k), shift_expand(full, x, k)
            assert deep.k == se.k and _cut_to(deep.lead, se.lead) == se.lead
            assert _cut_to(deep.constant, se.constant) == se.constant
            assert [j for j, _ in deep.gammas] == [j for j, _ in se.gammas]
            assert all(_cut_to(d, c) == c for (_, d), (_, c) in zip(deep.gammas, se.gammas))
            outcomes["shift of a series" if isinstance(se.lead, TruncSeries) else "shift"] += 1
    assert {"probe raised", "probe quiet", "probe triggered", "shift of a series"} <= set(outcomes)



def _checked(check, *args):
    """("ok", check(*args)), or its refusal as (error type, message)."""
    try:
        return "ok", check(*args)
    except (PrecisionError, HypothesisError) as e:
        return type(e), str(e)


def test_spacing_and_large_sieve_are_invariant_under_completion():
    # on truncated series each either raises PrecisionError or gives the
    # outcome of a completion below the floors, refusals included: spacing
    # at a near-rational alpha, the sieve over rationals sharing a
    # denominator and series points
    rng = random.Random(85)
    outcomes = collections.Counter()
    for F in every_field():
        k = 3 if F.p == 2 else 2
        for _ in range(6):
            gdeg = rng.choice((2, 3)) if F.q <= 3 else 2
            g, a = rng.choice(irreducibles(F, gdeg)), rand_nonzero_poly(rng, F, gdeg - 1)
            M = gdeg - 1
            J = k * M + gdeg + rng.randrange(4)
            floor = -rng.randrange(2, 2 * J + 6)
            noise = rand_series(rng, F, floor, -J - 1)
            alpha = kadd(kadd(RationalK(a, g), RationalK(F.poly_one, F.poly_one.shift(J))),
                         noise)
            args = (k, g, a, M, M + rng.randrange(3), list(irreducibles(F, M))[:4])
            got = _checked(spacing_check, alpha, *args)
            if got[0] is PrecisionError:
                outcomes["spacing raised"] += 1
                continue
            assert _checked(spacing_check, rand_completion(rng, alpha), *args) == got, (F, args)
            outcomes["spacing checked" if got[0] == "ok" else "spacing refused"] += 1
        for _ in range(6):
            N = rng.randrange(3)
            den = rand_monic(rng, F, rng.randrange(1, 3))
            rats = [RationalK(rand_poly(rng, F, den.deg - 1), den) for _ in range(2)]
            series = [rand_series(rng, F, -rng.randrange(1, 2 * N + 6), -1)
                      for _ in range(rng.randrange(1, 3))]
            full = rats + [rand_completion(rng, s) for s in series]
            b = [complex(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(F.q ** N)]
            try:
                gap = space_family(rats + series).gap
            except PrecisionError:
                outcomes["sieve raised"] += 1
                continue
            K = 1 if abs(gap) == math.inf else max(1, 1 - gap - rng.randrange(2))
            got = _checked(large_sieve_check, rats + series, b, N, K)
            if got[0] is PrecisionError:
                outcomes["sieve raised"] += 1
                continue
            assert _checked(large_sieve_check, full, b, N, K) == got, (F, N, K)
            outcomes["sieve checked" if got[0] == "ok" else "sieve refused"] += 1
    assert set(outcomes) == {"spacing raised", "spacing refused", "spacing checked",
                             "sieve raised", "sieve refused", "sieve checked"}, outcomes
