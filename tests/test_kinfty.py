import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from ffweyl import kinfty
from ffweyl.algebra import NEG_INF, Poly, parse_poly, poly_from_index, poly_gcd
from ffweyl.errors import DomainError, PrecisionError
from ffweyl.expsum import required_floor
from ffweyl.kinfty import (RationalK, TruncSeries, experiment_floor, frac_ord_vs, kadd,
                           kernel_element, kmul, kmul_poly, kmul_scalar,
                           ord_norm, ord_vs, parse_kelem, quotient_digits, tmap,
                           truncate)

from helpers import (every_field, field, quotient_digits_by_division,
                     quotient_digits_register, rand_completion, rand_monic, rand_poly,
                     rand_rational, rand_series, tmap_rational_by_period)


def test_ord_norm_examples():
    F2 = field(2)
    assert ord_norm(RationalK(parse_poly(F2, "t^2")))[0] == 2
    o, n = ord_norm(RationalK(F2.poly_one, F2.poly_t))
    assert o == -1 and n == Fraction(1, 2)
    assert ord_norm(RationalK(parse_poly(F2, "t+1"), parse_poly(F2, "t^3")))[0] == -2
    o, n = ord_norm(RationalK(F2.poly_zero))
    assert o is NEG_INF and n == 0
    with pytest.raises(PrecisionError):
        ord_norm(TruncSeries(F2, -5, ()))


def test_ord_multiplicative_fuzz():
    rng = random.Random(10)
    for _ in range(400):
        F = field(rng.choice((2, 3, 5)))
        a = rand_rational(rng, F, 4)
        b = rand_rational(rng, F, 4)
        if a.is_zero() or b.is_zero():
            continue
        assert kmul(a, b).ord() == a.ord() + b.ord()


def test_ultrametric_fuzz():
    rng = random.Random(11)
    for _ in range(1000):
        F = field(rng.choice((2, 3, 5)))
        a = rand_rational(rng, F, 4)
        b = rand_rational(rng, F, 4)
        s = kadd(a, b)
        oa, ob, os = a.ord(), b.ord(), s.ord()
        assert os <= max(oa, ob)
        if oa != ob:
            assert os == max(oa, ob)


def test_frac_res_examples():
    F2, F3 = field(2), field(3)
    al = kadd(RationalK(F2.poly_t), RationalK(F2.poly_one, F2.poly_t))
    frac, res = al.frac(), al.res()
    assert res == 1 and frac == RationalK(F2.poly_one, F2.poly_t)
    # a polynomial has zero fractional part and residue
    poly = RationalK(parse_poly(F3, "t^2+2"))
    frac, res = poly.frac(), poly.res()
    assert res == 0 and frac.is_zero()
    # F_3: 1/(t-1) = t^-1 + t^-2 + ... so res = 1
    assert RationalK(F3.poly_one, parse_poly(F3, "t-1")).res() == 1


def test_expand_examples():
    F2 = field(2)
    assert RationalK(F2.poly_zero).expand(-6).is_zero_to_floor()
    s = RationalK(F2.poly_one, F2.poly_t).expand(-3)
    assert s.coeffs == (0, 0, 1) and s.floor == -3
    s = RationalK(F2.poly_one, parse_poly(F2, "t+1")).expand(-4)
    assert [s.digit(e) for e in (-1, -2, -3, -4)] == [1, 1, 1, 1]
    with pytest.raises(DomainError):
        RationalK(F2.poly_one, parse_poly(F2, "t^3")).expand(-2)


def test_expand_recompose_and_res_agreement_fuzz():
    rng = random.Random(12)
    for _ in range(500):
        F = field(rng.choice((2, 3, 5)))
        al = rand_rational(rng, F, 4)
        se = al.expand(-16)
        # recompose: series * den matches num above the floor + deg den
        back = kmul_poly(se, al.den)
        hi = al.num.deg if al.num.coeffs else back.floor - 1
        for e in range(back.floor, hi + 1):
            assert back.digit(e) == (al.num.coeff(e) if e >= 0 else 0)
        # fractional digits and residues agree between paths
        assert se.res() == al.res()
        assert se.digits(-16, -1) == al.digits(-16, -1)


def test_series_products_match_exact_products():
    rng = random.Random(15)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for _ in range(60):
            a, b = rand_rational(rng, F, 4), rand_rational(rng, F, 4)
            if a.is_zero() or b.is_zero():
                continue
            sa = a.expand(min(a.ord(), 0) - rng.randrange(1, 16))
            sb = b.expand(min(b.ord(), 0) - rng.randrange(1, 16))
            h = rand_poly(rng, F, 4)
            cases = ((kmul(sa, b), kmul(a, b), sa.floor + b.ord()),
                     (kmul(sa, sb), kmul(a, b),
                      max(sa.floor + b.ord(), sb.floor + a.ord())),
                     (kmul_poly(sa, h), RationalK(a.num * h, a.den), sa.floor + h.deg))
            for got, exact, floor in cases:
                if exact.is_zero():
                    assert got.is_zero()
                    continue
                assert got.floor == floor and got.top == exact.ord()
                assert got.digits(floor, got.top) == exact.digits(floor, got.top)


def test_series_floor_discipline():
    F3 = field(3)
    s = TruncSeries.from_digits(F3, -4, {-1: 2, -4: 1})
    assert s.digit(-1) == 2 and s.digit(5) == 0
    with pytest.raises(PrecisionError):
        s.digit(-5)
    with pytest.raises(PrecisionError):
        truncate(s, -9)
    t = truncate(s, -2)
    assert t.floor == -2 and t.digit(-1) == 2
    with pytest.raises(PrecisionError):
        TruncSeries(F3, 1, (1,)).frac()
    with pytest.raises(DomainError):
        TruncSeries.from_digits(F3, -2, {-3: 1})


def test_series_digits_match_digit():
    # digits agrees with digit everywhere: above the top, at the floor, on empty ranges
    rng = random.Random(23)
    for q in (2, 3, 4, 9):
        F = field(q)
        for _ in range(200):
            floor = rng.randrange(-20, 5)
            s = rand_series(rng, F, floor, rng.randrange(floor - 2, 8))
            lo = rng.randrange(floor, 12)
            hi = rng.randrange(lo - 3, 14)
            assert s.digits(lo, hi) == [s.digit(e) for e in range(lo, hi + 1)]
            with pytest.raises(PrecisionError):
                s.digits(floor - 1, hi)


def test_kadd_mixed_and_scalar():
    F3 = field(3)
    al = RationalK(F3.poly_one, F3.poly_t)
    se = rand_series(random.Random(1), F3, -6)
    out = kadd(al, se)
    assert out.floor == -6
    for e in range(-6, 2):
        assert out.digit(e) == F3.add(al.digit(e), se.digit(e))
    tripled = kmul_scalar(se, 0)
    assert isinstance(tripled, RationalK) and tripled.is_zero()


def test_tmap_examples():
    F2, F3 = field(2), field(3)
    assert tmap(RationalK(F2.poly_zero)).is_zero()
    s = TruncSeries.from_digits(F2, -8, {-1: 1, -2: 1})
    out = tmap(s)
    assert out.digit(-1) == 1 and all(out.digit(e) == 0 for e in range(out.floor, -1))
    s3 = TruncSeries.from_digits(F3, -8, {-4: 1})
    out = tmap(s3)
    assert out.digit(-2) == 1 and out.digit(-1) == 0
    assert tmap(s3, 0) is s3
    with pytest.raises(PrecisionError):
        tmap(TruncSeries(F2, 0, (1,)))


def test_tmap_rational_vs_series_fuzz():
    rng = random.Random(13)
    for _ in range(200):
        F = field(rng.choice((2, 3, 5)))
        al = rand_rational(rng, F, 4)
        exact = tmap(al)
        sampled = tmap(al.expand(-40))
        assert exact.digits(sampled.floor, -1) == \
            [sampled.digit(e) for e in range(sampled.floor, 0)]
        # second iterate too
        exact2 = tmap(al, 2)
        sampled2 = tmap(al.expand(-40), 2)
        assert exact2.digits(sampled2.floor, -1) == \
            [sampled2.digit(e) for e in range(sampled2.floor, 0)]
    # every q: at q = p^m, m > 1, both paths pass each sampled digit through c^(q/p)
    rng = random.Random(74)
    for F in every_field():
        for _ in range(20):
            al = rand_rational(rng, F, 4)
            for v in (1, 2):
                exact = tmap(al, v)
                sampled = tmap(al.expand(-40), v)
                assert exact.digits(sampled.floor, -1) == \
                    [sampled.digit(e) for e in range(sampled.floor, 0)]


def test_tmap_is_adjoint_to_the_pth_power():
    # Tr res(alpha y^p) = Tr res(T(alpha) y) for every polynomial y, at every q
    rng = random.Random(72)
    for F in every_field():
        for _ in range(80):
            al = rand_rational(rng, F, 4) if rng.random() < 0.5 else rand_series(rng, F, -40)
            y = rand_poly(rng, F, 3)
            lhs = kmul_poly(al, y ** F.p).digit(-1)
            rhs = kmul_poly(tmap(al), y).digit(-1)
            assert F.trace(lhs) == F.trace(rhs), (F, al, y)


def test_tmap_rational_matches_the_period_walk():
    # the Cartier identity against the digit-period walk, at every q (q = 4
    # has the one modulus x^2+x+1) and both custom moduli, v = 1, 2, 3, over
    # denominators t^k g^2 h, so that t and squares divide many of them
    rng = random.Random(77)
    kinds = {"t": 0, "square": 0, "zero": 0}
    for F in every_field():
        top = max(d for d in range(1, 9) if F.q ** d <= 2000)  # bounds the walk
        for _ in range(60):
            k, g_deg = rng.randrange(3), rng.randrange(2)
            h_deg = rng.randrange(max(top - k - 2 * g_deg, 0) + 1)
            den = F.poly_t ** k * rand_monic(rng, F, g_deg) ** 2 * rand_monic(rng, F, h_deg)
            if den.deg > top:
                den = rand_monic(rng, F, top)
            if rng.random() < 0.9:
                num = rand_poly(rng, F, den.deg + 2)
            else:  # a polynomial, whose fractional part is zero
                num = den * rand_poly(rng, F, 2)
            al = RationalK(num, den)
            kinds["t"] += al.den.coeff(0) == 0
            slope = Poly(F, [F.mul(i % F.p, c) for i, c in enumerate(al.den.coeffs)][1:])
            kinds["square"] += poly_gcd(al.den, slope).deg > 0  # den' = 0 at g(t^p) too
            kinds["zero"] += (al.num % al.den).is_zero()
            want = al
            for v in (1, 2, 3):
                want = tmap_rational_by_period(want)
                assert tmap(al, v) == want, (F, str(al), v)
    assert all(kinds.values()), kinds


def test_tmap_of_a_long_period_rational_is_fast():
    # (t+1)/(t^20+t^3+1) at q=2: its digit period runs to 2^20 - 1 steps
    F2 = field(2)
    al = RationalK(parse_poly(F2, "t+1"), parse_poly(F2, "t^20+t^3+1"))
    t0 = time.perf_counter()
    out = tmap(al)
    assert time.perf_counter() - t0 < 0.5
    assert out.den == al.den
    assert out.expand(-60).digits(-60, -1) == tmap(al.expand(-119)).digits(-60, -1)


def test_quotient_digits_match_the_register_loop():
    # the slice of one Poly long division against a register loop, at
    # every q and both custom moduli, D = 0..6, windows above and below t^-1
    rng = random.Random(76)
    for F in every_field():
        for _ in range(120):
            D = rng.randrange(7)
            num, den = rand_poly(rng, F, rng.randrange(14)), rand_monic(rng, F, D)
            lo = rng.randrange(-40, 12)
            hi = lo + rng.randrange(-2, 40)
            assert quotient_digits(num, den, lo, hi) == \
                quotient_digits_register(num, den, lo, hi), (F, num, den, lo, hi)


def test_quotient_digits_match_one_long_division():
    # the product with a kept reciprocal against the long division it
    # replaced, at every q and both custom moduli: windows below, across and
    # above t^0, den of degree 0 and num = 0, each window read twice (the
    # second time from the cache), and windows 10^4 digits deep
    rng = random.Random(77)
    for F in every_field():
        for i in range(100):
            D = rng.randrange(7)
            num = F.poly_zero if i % 10 == 0 else rand_poly(rng, F, rng.randrange(14))
            den = rand_monic(rng, F, D)
            lo = rng.randrange(-40, 12)
            hi = lo + rng.randrange(-2, 40)
            want = quotient_digits_by_division(num, den, lo, hi)
            assert quotient_digits(num, den, lo, hi) == want, (F, num, den, lo, hi)
            assert quotient_digits(num, den, lo, hi) == want, (F, num, den, lo, hi)
        num, den = rand_poly(rng, F, 8), rand_monic(rng, F, rng.randrange(1, 4))
        for lo, hi in ((-10 ** 4, -10 ** 4 + 20), (-10 ** 4, 3), (-20, 10 ** 4)):
            assert quotient_digits(num, den, lo, hi) == \
                quotient_digits_by_division(num, den, lo, hi), (F, num, den, lo, hi)


def test_trusted_rationals_equal_the_normalising_constructor():
    # every rational the arithmetic builds without a gcd has the (num, den)
    # that the normalising constructor gives; h often shares a factor with
    # den, which kmul_poly divides out of both first
    rng = random.Random(78)
    for F in every_field():
        for _ in range(40):
            r = rand_rational(rng, F, 4)
            h = rand_poly(rng, F, 3) * rng.choice([F.poly_one, r.den, rand_monic(rng, F, 1)])
            c = rng.randrange(F.q)
            s = RationalK(r.num + rand_poly(rng, F, 2) * r.den, r.den)  # s.den == r.den
            cases = [(-r, RationalK(-r.num, r.den)),
                     (kmul_scalar(r, c), RationalK(r.num.scale(c), r.den)),
                     (r.frac(), RationalK(r.num % r.den, r.den)),
                     (kmul_poly(r, h), RationalK(r.num * h, r.den)),
                     (kadd(r, s), RationalK(r.num * s.den + s.num * r.den, r.den * s.den)),
                     (kadd(r, -r), RationalK(F.poly_zero))]
            for got, want in cases:
                assert (got.num, got.den) == (want.num, want.den), (F, r, h, c, s)


def test_the_reciprocal_cache_stays_bounded():
    # windows over many distinct denominators: the cache keeps at most
    # RECIPROCALS reciprocals of RECIPROCAL_CODES codes in all, so what it
    # holds after 400 new denominators is what a few dozen take
    F = field(5)
    num = parse_poly(F, "t^3 + 2*t + 1")
    quartic = F.poly_one.shift(4)

    def read(first, count):
        for i in range(first, first + count):
            quotient_digits(num, quartic + poly_from_index(F, i, 4), -300, -1)

    read(0, 100)
    tracemalloc.start()
    try:
        read(100, 400)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kinfty._reciprocal.cache_info().currsize <= kinfty.RECIPROCALS
    # 400 reciprocals of 300 codes would hold about 1 MB
    assert held < 8 * kinfty.RECIPROCAL_CODES + 400 * kinfty.RECIPROCALS, held


def test_tmap_is_invariant_under_completion():
    # a series and any completion below its floor: either T of the series is
    # refused, or both agree on every digit the first one certifies
    rng = random.Random(73)
    for F in every_field():
        for _ in range(20):
            s = rand_series(rng, F, rng.randrange(-30, 1))
            completion = rand_completion(rng, s)
            for v in (1, 2):
                try:
                    out = tmap(s, v)
                except PrecisionError:
                    continue
                full = tmap(completion, v)
                assert [out.digit(e) for e in range(out.floor, 0)] == \
                    [full.digit(e) for e in range(out.floor, 0)]


def test_ord_comparisons_are_invariant_under_completion():
    # ord_vs and frac_ord_vs of a truncated series either raise
    # PrecisionError or agree with a completion below the floor
    rng = random.Random(74)
    outcomes = {"raised": 0, "below": 0, "at_or_above": 0}
    for F in every_field():
        for _ in range(60):
            floor = -rng.randrange(0, 30)
            s = rand_series(rng, F, floor, rng.randrange(floor - 1, 4))
            full = rand_completion(rng, s)
            for compare, bound in ((ord_vs, rng.randrange(floor - 6, 6)),
                                   (frac_ord_vs, rng.randrange(0, 12))):
                try:
                    got = compare(s, bound)
                except PrecisionError:
                    outcomes["raised"] += 1
                    continue
                assert compare(full, bound) == got, (F, str(s), compare.__name__, bound)
                outcomes[got] += 1
    assert all(outcomes.values()), outcomes


def test_tmap_linearity_exact():
    rng = random.Random(14)
    for _ in range(300):
        F = field(rng.choice((2, 3)))
        a = rand_series(rng, F, -20)
        b = rand_series(rng, F, -20)
        lhs = tmap(kadd(a, b))
        rhs = kadd(tmap(a), tmap(b))
        fl = max(lhs.floor, rhs.floor)
        assert [lhs.digit(e) for e in range(fl, 0)] == \
            [rhs.digit(e) for e in range(fl, 0)]
        c = rng.randrange(1, F.p)
        lhs = tmap(kmul_scalar(a, c))
        rhs = kmul_scalar(tmap(a), c)
        assert [lhs.digit(e) for e in range(fl, 0)] == \
            [rhs.digit(e) for e in range(fl, 0)]


def test_kernel_element():
    F2, F3 = field(2), field(3)
    for F in (F2, F3):
        k = kernel_element(F, -24, 7)
        assert tmap(k).is_zero_to_floor()
        for j in range(0, 8):
            e = -(j * F.p + 1)
            if e >= -24:
                assert k.digit(e) == 0
    assert kernel_element(F2, -24, 7) == kernel_element(F2, -24, 7)
    assert kernel_element(F2, -24, 7) != kernel_element(F2, -24, 8)


def test_experiment_floor_is_the_required_floor_plus_slack():
    # G_0 = {0} reads no deeper than G_1, so N = 0 gets the N = 1 floor
    assert experiment_floor({10}, 0) == experiment_floor({10}, 1) == -9
    for N in range(5):
        for depth in (1, 2):
            assert experiment_floor({3, 10}, N, depth) == required_floor(10, N, depth) - 8
        kernel_element(field(2), experiment_floor({10}, N), 1)


def test_frac_ord_vs():
    F2 = field(2)
    assert frac_ord_vs(RationalK(parse_poly(F2, "t^3+t")), 1) == "below"
    assert frac_ord_vs(RationalK(F2.poly_one, parse_poly(F2, "t^2")), 1) == "below"
    assert frac_ord_vs(RationalK(F2.poly_one, F2.poly_t), 1) == "at_or_above"
    s = TruncSeries.from_digits(F2, -3, {})
    with pytest.raises(PrecisionError):
        frac_ord_vs(s, 5)
    assert frac_ord_vs(s, 3) == "below"


def test_ord_vs():
    F3 = field(3)
    r = RationalK(F3.poly_one, parse_poly(F3, "t^2+1"))  # ord -2
    assert ord_vs(r, -1) == "below"
    assert ord_vs(r, -2) == "at_or_above"
    s = parse_kelem(F3, "2*t^-3 + O(t^-9)")  # ord -3
    assert ord_vs(s, -2) == "below"
    assert ord_vs(s, -3) == "at_or_above"
    assert ord_vs(RationalK(F3.poly_zero), -10 ** 6) == "below"
    # zero down to the floor -5: ord <= -6, so only bounds >= -5 are decided
    z = TruncSeries(F3, -5, ())
    assert ord_vs(z, -5) == "below"
    with pytest.raises(PrecisionError):
        ord_vs(z, -6)


def test_parse_format_roundtrip():
    F2, F3, F9 = field(2), field(3), field(9)
    rng = random.Random(27)
    seeded = [(F, rand_series(rng, F, -rng.randrange(13), top=rng.randrange(-1, 4)))
              for F in every_field() for _ in range(20)]
    seeded += [(F, rand_rational(rng, F, 4)) for F in every_field() for _ in range(20)]
    for F, v in seeded:
        assert parse_kelem(F, str(v)) == v, (F, str(v))
    for text in ("t^2 + 1 + t^-1 + O(t^-12)", "O(t^-5)", "t+1 / t^3+t+1", "t^2"):
        v = parse_kelem(F2, text)
        assert parse_kelem(F2, str(v)) == v
    v = parse_kelem(F3, "t^2 + 1 + 2*t^-1 + O(t^-12)")
    assert isinstance(v, TruncSeries)
    assert v.floor == -12 and v.digit(-1) == 2 and v.digit(2) == 1
    assert str(v) == "t^2 + 1 + 2*t^-1 + O(t^-12)"
    v = parse_kelem(F9, "[1,2]*t^-1 + [0,1] + O(t^-6)")
    assert isinstance(v, TruncSeries) and v.floor == -6
    assert parse_kelem(F9, str(v)) == v
