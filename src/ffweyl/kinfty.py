"""Elements of F_q((1/t)): exact rationals and truncated Laurent series.

A RationalK is an exact fraction num/den in lowest terms with monic
denominator; every digit of its expansion is available on demand.  A
TruncSeries knows its digits from some top exponent down to an explicit
precision floor.  Digits below the floor are unknown, not zero: operations
propagate the floor pessimistically and anything that would have to read an
unknown digit raises PrecisionError rather than zero-filling.

The floor convention: the digit at the floor exponent itself is stored and
trusted; unknowns start strictly below it.  In text form the floor is the
exponent of the O-term, as in ``t^2 + 1 + 2*t^-1 + O(t^-12)``.  The
digit-sampling map T (tmap) has Tr res(alpha y^p) = Tr res(T(alpha) y) for
every polynomial y at every q; at q = p it is plain digit sampling.  On a
rational, a window of digits is a slice of one Poly product with a truncated
reciprocal t^k // den, which is computed once per (den, k) by one long
division and kept in a bounded lru_cache, and T is the Cartier identity
T(b/den) = T(b den^(p-1))/den, both built from Poly arithmetic.  The
arithmetic keeps every rational in lowest terms, and skips the gcd where
that follows from its inputs.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction

from .algebra import (NEG_INF, Poly, _format_terms, check_budget, parse_poly, parse_terms,
                      poly_gcd, read_terms)
from .errors import DomainError, PrecisionError


class RationalK:
    """An exact element num/den of F_q(t), reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.field.poly_one
        if den.is_zero():
            raise DomainError("rational with zero denominator")
        g = poly_gcd(num, den)
        if g.deg > 0:
            num, den = num // g, den // g
        c = den.field.inv(den.lead())
        if c != 1:
            num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        """num/den for a monic den coprime to num (den = 1 when num = 0), as
        the arithmetic builds it where lowest terms follow from its inputs;
        nothing is checked."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @property
    def field(self):
        return self.den.field

    def is_zero(self):
        return self.num.is_zero()

    def ord(self):
        if self.num.is_zero():
            return NEG_INF
        return self.num.deg - self.den.deg

    def ord_bound(self):
        return ("exact", self.ord())

    def poly_part(self):
        return self.num // self.den

    def frac(self):
        # num mod den is 0 only when den = 1, and shares no factor with den
        return RationalK._reduced(self.num % self.den, self.den)

    def digit(self, e):
        return self.digits(e, e)[0]

    def digits(self, lo, hi):
        """Digit codes at exponents lo..hi inclusive, ascending."""
        return quotient_digits(self.num, self.den, lo, hi)

    def res(self):
        return self.digit(-1)

    def expand(self, floor):
        """Truncated-series view down to the given floor (exact digits)."""
        if self.num.is_zero():
            return TruncSeries(self.field, floor, ())
        if floor > self.ord():
            raise DomainError("expansion floor above the leading exponent")
        return TruncSeries(self.field, floor, self.digits(floor, self.ord()))

    def __eq__(self, other):
        return (isinstance(other, RationalK)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalK._reduced(-self.num, self.den)

    def __add__(self, other):
        return kadd(self, other)

    def __sub__(self, other):
        return kadd(self, -other)

    def __str__(self):
        if self.den.deg == 0:
            return str(self.num)
        return f"{self.num} / {self.den}"

    def __repr__(self):
        return f"RationalK({str(self)!r})"


def quotient_digits(num, den, lo, hi):
    """Digit codes of num/den at exponents lo..hi inclusive, ascending; den monic.

    Let c_i be the digit at t^-i of 1/den and k = deg num - lo.  For e >= lo
    the digit at t^e of num/den is the sum of num_j c_(j-e), and so is the
    coefficient at t^(k+e) of num * (t^k // den), since t^k // den is the
    sum of c_i t^(k-i) over i <= k and j - e <= k.  The window is therefore
    a slice of one product with the reciprocal t^k // den (_reciprocal),
    zero-padded above its top.
    """
    if hi < lo:
        return []
    k = num.deg - lo
    if k < den.deg:  # num = 0, or no digit at or above lo
        return [0] * (hi - lo + 1)
    # t^k // den has k - deg den + 1 codes; a longer one is computed but not kept
    keep = k - den.deg < RECIPROCAL_CODES // RECIPROCALS
    reciprocal = (_reciprocal if keep else _reciprocal.__wrapped__)(den, k)
    digits = (num * reciprocal).coeffs[k + lo:k + hi + 1]
    return list(digits) + [0] * (hi - lo + 1 - len(digits))


#: The reciprocal cache keeps at most RECIPROCALS reciprocals, each of at most
#: RECIPROCAL_CODES // RECIPROCALS codes, so RECIPROCAL_CODES codes in all.
RECIPROCALS = 64
RECIPROCAL_CODES = 1 << 16


@functools.lru_cache(maxsize=RECIPROCALS)
def _reciprocal(den, k):
    """t^k // den, by one long division."""
    return den.field.poly_one.shift(k) // den


class TruncSeries:
    """A Laurent series known from its top exponent down to ``floor``."""

    __slots__ = ("field", "floor", "coeffs")

    def __init__(self, field, floor, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not (0 <= c < field.q):
                raise DomainError("series digit out of range")
        self.field = field
        self.floor = floor
        self.coeffs = tuple(coeffs)

    @classmethod
    def _unchecked(cls, field, floor, coeffs):
        """A series from a tuple of digit codes below q with no trailing zero,
        as the arithmetic's table lookups build them; nothing is checked."""
        self = object.__new__(cls)
        self.field = field
        self.floor = floor
        self.coeffs = coeffs
        return self

    @classmethod
    def from_digits(cls, field, floor, digit_map):
        low = {e: c for e, c in digit_map.items() if c}
        if low and min(low) < floor:
            raise DomainError("digit below the stated floor")
        hi = max(low, default=floor - 1)
        return cls(field, floor, [digit_map.get(e, 0) for e in range(floor, hi + 1)])

    @property
    def top(self):
        return self.floor + len(self.coeffs) - 1

    def is_zero_to_floor(self):
        return not self.coeffs

    def ord(self):
        if not self.coeffs:
            raise PrecisionError(
                f"series is zero down to its floor {self.floor}; order not certifiable")
        return self.top

    def ord_bound(self):
        if self.coeffs:
            return ("exact", self.top)
        return ("below", self.floor)

    def digit(self, e):
        if e < self.floor:
            raise PrecisionError(f"digit at t^{e} is below the floor {self.floor}")
        if e > self.top:
            return 0
        return self.coeffs[e - self.floor]

    def digits(self, lo, hi):
        if lo < self.floor:
            raise PrecisionError(f"digits below floor {self.floor} requested")
        if hi < lo:
            return []
        out = list(self.coeffs[lo - self.floor:hi - self.floor + 1])
        return out + [0] * (hi - lo + 1 - len(out))  # zeros above the top

    def poly_part(self):
        if self.floor > 0:
            raise PrecisionError("floor above 0; polynomial part unknown")
        return Poly(self.field, [self.digit(e) for e in range(0, max(self.top, -1) + 1)])

    def frac(self):
        if self.floor > -1:
            raise PrecisionError("floor above -1; fractional part unknown")
        return TruncSeries(self.field, self.floor,
                           self.coeffs[:max(-1 - self.floor + 1, 0)])

    def res(self):
        return self.digit(-1)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.field == other.field
                and self.floor == other.floor and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.floor, self.coeffs))

    def __neg__(self):
        fn = self.field._neg
        return TruncSeries(self.field, self.floor, [fn[c] for c in self.coeffs])

    def __add__(self, other):
        return kadd(self, other)

    def __sub__(self, other):
        return kadd(self, -other)

    def __str__(self):
        terms = {self.floor + i: c for i, c in enumerate(self.coeffs) if c}
        otail = f"O(t^{self.floor})"
        if not terms:
            return otail
        return f"{_format_terms(self.field, terms)} + {otail}"

    def __repr__(self):
        return f"TruncSeries({str(self)!r})"


# ---------------------------------------------------------------------------
# Mixed arithmetic.  KElem means RationalK | TruncSeries throughout.

def kadd(a, b):
    if isinstance(a, RationalK) and isinstance(b, RationalK):
        if a.den == b.den:
            return RationalK(a.num + b.num, a.den)
        return RationalK(a.num * b.den + b.num * a.den, a.den * b.den)
    if isinstance(a, RationalK):
        a, b = b, a
    # a is a series
    field = a.field
    floor = a.floor
    if isinstance(b, TruncSeries):
        floor = max(floor, b.floor)
    tops = []
    for x in (a, b):
        kind, v = x.ord_bound()
        if kind == "exact" and v is not NEG_INF:
            tops.append(v)
    hi = max(tops, default=floor - 1)
    fa = field._add
    out = [fa[x][y] for x, y in zip(a.digits(floor, hi), b.digits(floor, hi))]
    while out and not out[-1]:
        out.pop()
    return TruncSeries._unchecked(field, floor, tuple(out))


def _zero(field):
    return RationalK._reduced(field.poly_zero, field.poly_one)


def kmul_scalar(alpha, c):
    """Multiply by the field element with code c."""
    if c == 0:
        return _zero(alpha.field)
    if isinstance(alpha, RationalK):
        return RationalK._reduced(alpha.num.scale(c), alpha.den)
    row = alpha.field._mul[c]
    return TruncSeries._unchecked(alpha.field, alpha.floor,
                                  tuple([row[x] for x in alpha.coeffs]))


def _product_from(field, a, a_lo, b, b_lo, floor):
    """The product of two digit lists, whose first digits sit at t^a_lo and
    t^b_lo, as a series known from ``floor`` up to its top digit; each list
    ends in a nonzero digit or is empty."""
    prod = Poly._unchecked(field, tuple(a)) * Poly._unchecked(field, tuple(b))
    return TruncSeries._unchecked(field, floor, prod.coeffs[floor - a_lo - b_lo:])


def kmul_poly(alpha, h):
    """Multiply by a polynomial; for a series the floor rises by deg h."""
    if h.is_zero():
        return _zero(alpha.field)
    if isinstance(alpha, RationalK):
        # num is coprime to den, and h/g to den/g for g = gcd(h, den)
        den, g = alpha.den, poly_gcd(h, alpha.den)
        if g.deg > 0:
            h, den = h // g, den // g
        return RationalK._reduced(alpha.num * h, den)
    return _product_from(alpha.field, alpha.coeffs, alpha.floor, h.coeffs, 0,
                         alpha.floor + h.deg)


def kmul(a, b):
    """Full product; exact when both factors are rational."""
    if isinstance(a, RationalK) and isinstance(b, RationalK):
        return RationalK(a.num * b.num, a.den * b.den)
    if isinstance(a, RationalK):
        a, b = b, a
    # a is a series; a zero series has top = floor - 1
    if isinstance(b, RationalK):
        if b.is_zero():
            return _zero(a.field)
        # b is exact, so only its digits that meet a's known ones are read
        floor = a.floor + b.ord()
        b_lo = floor - a.top
        return _product_from(a.field, a.coeffs, a.floor,
                             b.digits(b_lo, b.ord()), b_lo, floor)
    floor = max(a.floor + b.top, b.floor + a.top)
    return _product_from(a.field, a.coeffs, a.floor, b.coeffs, b.floor, floor)


def truncate(alpha, floor):
    """Forget digits below the given floor (rationals expand exactly)."""
    if isinstance(alpha, RationalK):
        return alpha.expand(floor)
    if floor < alpha.floor:
        raise PrecisionError("cannot lower a floor; digits there were never known")
    return TruncSeries(alpha.field, floor,
                       alpha.coeffs[floor - alpha.floor:] if alpha.coeffs else ())


def ord_norm(alpha):
    """(ord, |alpha|) with |alpha| = q^ord as an exact Fraction (0 for ord -inf)."""
    o = alpha.ord()
    if o is NEG_INF:
        return o, Fraction(0)
    q = alpha.field.q
    norm = Fraction(q) ** o
    return o, norm


def ord_vs(alpha, bound):
    """Compare ord alpha with bound, certified from the known digits.

    Returns 'below' when ord alpha < bound and 'at_or_above' when
    ord alpha >= bound; raises PrecisionError when the digits cannot tell,
    that is, when every known digit vanishes and the floor is above bound.
    """
    kind, val = alpha.ord_bound()
    if kind == "exact":
        return "below" if val < bound else "at_or_above"
    if val <= bound:  # ord <= val - 1 < bound
        return "below"
    raise PrecisionError(
        f"digits known only to {val}; cannot compare the order with {bound}")


def frac_ord_vs(alpha, N):
    """Compare ord{alpha} with -N as ord_vs does: 'below' or 'at_or_above'."""
    if isinstance(alpha, RationalK):
        o = (alpha.num % alpha.den).deg - alpha.den.deg  # -inf for a zero fraction
        return "below" if o < -N else "at_or_above"
    return ord_vs(alpha.frac(), -N)


# ---------------------------------------------------------------------------
# The digit-sampling map T(alpha) = s(a_{-1}) t^-1 + s(a_{-p-1}) t^-2 + ...,
# for s(c) = c^(q/p) the inverse Frobenius.

def tmap(alpha, v=1):
    """v-fold application of the digit-sampling map T (exact on rationals by
    the Cartier identity): Tr res(alpha y^p) = Tr res(T(alpha) y) for every
    polynomial y at every q, and at q = p, T is plain digit sampling."""
    if v < 0:
        raise DomainError("negative iteration count")
    out = alpha
    for _ in range(v):
        if isinstance(out, RationalK):
            out = _tmap_rational(out)
        else:
            out = _tmap_series(out)
    return out


def _tmap_rational(a):
    """T(b/den) = T(c)/den for b = num mod den and c = b den^(p-1) (Cartier):
    den^p is den with p-th-power coefficients read at t^p, so the sampled
    digits of c/den^p are those of the coefficients of c at t^(p-1),
    t^(2p-1), ... over it, a proper fraction since deg c < p deg den."""
    field = a.field
    p, unfrob = field.p, field.frobenius[-1]
    c = (a.num % a.den) * a.den ** (p - 1)
    return RationalK(Poly(field, [unfrob[x] for x in c.coeffs[p - 1::p]]), a.den)


def _tmap_series(a):
    field = a.field
    p, unfrob = field.p, field.frobenius[-1]
    if a.floor > -1:
        raise PrecisionError("no sampled digit is above the floor")
    J = (-a.floor - 1) // p + 1
    out = {-j: unfrob[a.digit(-((j - 1) * p + 1))] for j in range(1, J + 1)}
    return TruncSeries.from_digits(field, -J, out)


def kernel_element(field, floor, seed):
    """A seeded series with zeros at every sampled position, so tmap gives 0.

    Reproducible: equal seeds give identical digits.  The unsampled digits
    are uniform over F_q.
    """
    if floor > -2:
        raise DomainError("kernel elements need floor <= -2 to be nontrivial")
    rng = random.Random(seed)
    p = field.p
    out = {}
    for e in range(-1, floor - 1, -1):
        out[e] = 0 if (-e - 1) % p == 0 else rng.randrange(field.q)
    return TruncSeries.from_digits(field, floor, out)


def experiment_floor(support, N, depth=1, slack=8):
    """Default series floor for sums over G_N: deep enough for residue-exact
    evaluation at every support exponent, plus margin."""
    r_max = max(support, default=0)
    return -(depth + r_max * max(N - 1, 0)) - slack


# ---------------------------------------------------------------------------
# Text form: rationals as 'num / den', series with a trailing O-term.

def parse_kelem(field, s, budget=None):
    """A rational 'num / den', a polynomial, or a series with a trailing
    O-term, whose one term is t^floor (or 1).  Each polynomial is charged as
    a "polynomial literal" and a series as a "series literal" of its digit
    span, from the floor to its top term, before it is built."""
    s = s.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        return RationalK(parse_poly(field, num_s, budget), parse_poly(field, den_s, budget))
    if "O(" in s:
        body, otail = s.rsplit("O(", 1)
        otail = otail.strip()
        if not otail.endswith(")"):
            raise DomainError("unterminated O-term")
        oterm = list(read_terms(otail[:-1], "t"))
        if len(oterm) != 1 or oterm[0][:2] not in (("+", ""), ("+", "1")):
            raise DomainError(f"bad O-term {otail[:-1].strip()!r}")
        floor = oterm[0][2]
        body = body.strip()
        if body.endswith("+"):
            body = body[:-1].strip()
        terms = parse_terms(field, body) if body else {}
        top = max((e for e, c in terms.items() if c), default=floor - 1)
        check_budget(top - floor + 1, budget, "series literal")
        return TruncSeries.from_digits(field, floor, terms)
    return RationalK(parse_poly(field, s, budget))
