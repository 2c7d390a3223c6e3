"""Exact character sums over G_N, stored as integer histograms.

The additive character takes values in the p-th roots of unity, so a sum of
q^N character values is represented exactly by p nonnegative counts, one per
residue class of the character exponent.  Floats appear only when a magnitude
is finally requested.  The zero test "all counts equal" is exact because p is
prime (the minimal polynomial of a primitive p-th root of unity over Q is
1 + x + ... + x^{p-1}).

The character reads one thing from f(x): the trace of its t^-1 digit, and
one engine computes exactly that, for every q and for many polynomials over
one G_N at once.  It splits x = x_lo + t^h x_hi with h = N // 2, tabulates
the coordinates of the powers of x_lo over G_h and of x_hi over G_{N-h}, and
contracts the tables through Lucas binomials and Hankel blocks of the
coefficient digits.  The polynomials stack as columns of one float64 (BLAS)
product, exact because every call checks that its dot products stay within
2^53; it streams over blocks of x_hi rows, so weyl_sum never holds the q^N
residues.  Any other digit is such a trace too: with beta_c the dual basis of
the power basis under the trace form, coordinate c of the digit at t^-(1+s)
of f(x) is the trace of the t^-1 digit of (beta_c t^s) f(x), so digit rows
are a stack of twists.  The direct path (method="direct") walks points one by
one through plain field arithmetic and is kept only as the independent oracle.
"""
from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .algebra import Field, Poly, check_budget, parse_poly, poly_from_index
from .errors import DomainError, PrecisionError
from .exponents import lucas_binom
from .kinfty import (RationalK, TruncSeries, frac_ord_vs, kadd, kernel_element,
                     kmul_poly, kmul_scalar, parse_kelem)


@dataclass(frozen=True)
class CharSum:
    """A sum of p-th roots of unity as per-residue counts."""

    p: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise DomainError("count vector length must equal p")

    @classmethod
    def from_residues(cls, p, residues):
        counts = np.bincount(np.asarray(residues, dtype=np.int64), minlength=p)
        return cls(p, tuple(counts.tolist()))

    @property
    def total(self):
        return sum(self.counts)

    def is_zero(self):
        """Exact test for the complex sum being 0 (requires p prime)."""
        return self.total > 0 and len(set(self.counts)) == 1

    def is_full(self):
        """Exact test for |sum| equal to the number of terms."""
        return self.total > 0 and max(self.counts) == self.total

    def full_residue(self):
        if not self.is_full():
            return None
        return max(range(self.p), key=lambda r: self.counts[r])

    def magnitude(self):
        z = sum(c * cmath.exp(2j * cmath.pi * r / self.p)
                for r, c in enumerate(self.counts))
        return abs(z)

    def normalized(self):
        return self.magnitude() / self.total

    def __add__(self, other):
        if not isinstance(other, CharSum) or other.p != self.p:
            raise DomainError("cannot merge histograms of different p")
        return CharSum(self.p, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def scale(self, k):
        return CharSum(self.p, tuple(k * c for c in self.counts))


def e_of(alpha):
    """Character residue r mod p of alpha, encoding exp(2*pi*i*r/p)."""
    return alpha.field.char_residue(alpha.res())


def _member(obj, key, kind):
    """obj[key] of a JSON object; DomainError when the key is missing or its
    value is not a `kind`."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"ExpPoly JSON needs {key!r} in {obj!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise DomainError(f"ExpPoly JSON {key!r} must be a {kind.__name__}, got {value!r}")
    return value


class ExpPoly:
    """A sparse polynomial sum of coeff_r * u^r with coefficients in K.

    Exponents are positive except an optional constant term at 0; exactly
    zero (rational) coefficients are dropped at construction.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, coeff_map):
        terms = []
        for r in sorted(coeff_map):
            if r < 0:
                raise DomainError("negative exponent in an ExpPoly")
            c = coeff_map[r]
            if c.field != field:
                raise DomainError("coefficient from the wrong field")
            if isinstance(c, RationalK) and c.is_zero():
                continue
            terms.append((r, c))
        self.field = field
        self.terms = tuple(terms)

    def support(self):
        return frozenset(r for r, _ in self.terms if r >= 1)

    def coeff(self, r):
        for e, c in self.terms:
            if e == r:
                return c
        return RationalK(self.field.poly_zero)

    def constant(self):
        return self.coeff(0)

    def max_exp(self):
        return max((r for r, _ in self.terms), default=0)

    def scale_poly(self, m):
        """The polynomial m*f, every coefficient multiplied by m."""
        return ExpPoly(self.field, {r: kmul_poly(c, m) for r, c in self.terms})

    def substitute(self, a, b):
        """f(a*u + b) as an ExpPoly in u, for polynomials a and b.

        In characteristic p, (a*u + b)^r = sum_j C(r, j) a^j b^(r-j) u^j with
        C(r, j) taken mod p (Lucas), so only the shadow of each exponent appears.
        """
        p = self.field.p
        coeffs = {}
        for r, c in self.terms:
            for j in range(r + 1):
                binom = lucas_binom(r, j, p)
                if binom:
                    term = kmul_scalar(kmul_poly(c, a ** j * b ** (r - j)), binom)
                    coeffs[j] = kadd(coeffs[j], term) if j in coeffs else term
        return ExpPoly(self.field, coeffs)

    def evaluate(self, x):
        """f(x) as an element of K, full precision bookkeeping included."""
        acc = RationalK(self.field.poly_zero)
        for r, c in self.terms:
            acc = kadd(acc, kmul_poly(c, x ** r) if r else c)
        return acc

    def __eq__(self, other):
        return (isinstance(other, ExpPoly) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        inner = ", ".join(f"{r}: {c}" for r, c in self.terms)
        return f"ExpPoly({{{inner}}})"

    # -- JSON wire form -----------------------------------------------------

    def to_json(self):
        out = []
        for r, c in self.terms:
            if isinstance(c, RationalK):
                coeff = {"rat": [str(c.num), str(c.den)]}
            else:
                coeff = {"series": str(c), "floor": c.floor}
            out.append({"exp": r, "coeff": coeff})
        return {"field": self.field.spec_string(), "terms": out}

    @classmethod
    def from_json(cls, obj, field=None, default_seed=0, budget=None):
        """The ExpPoly of a JSON object; every kernel coefficient is charged
        |floor| digits against the budget before its series is built."""
        if field is None:
            field = Field.parse(_member(obj, "field", str))
        coeffs = {}
        kernel_digits = 0
        for term in _member(obj, "terms", list):
            r = _member(term, "exp", int)
            spec = _member(term, "coeff", dict)
            if "rat" in spec:
                rat = _member(spec, "rat", list)
                if len(rat) != 2 or not all(isinstance(x, str) for x in rat):
                    raise DomainError(f"'rat' needs two polynomial strings, got {rat!r}")
                c = RationalK(parse_poly(field, rat[0]), parse_poly(field, rat[1]))
            elif "series" in spec:
                c = parse_kelem(field, _member(spec, "series", str))
                if isinstance(c, RationalK):
                    c = c.expand(_member(spec, "floor", int))
                elif "floor" in spec and _member(spec, "floor", int) != c.floor:
                    raise DomainError("series floor disagrees with its O-term")
            elif "kernel" in spec:
                kernel = _member(spec, "kernel", dict)
                seed = _member(kernel, "seed", int) if "seed" in kernel else default_seed
                floor = _member(kernel, "floor", int)
                kernel_digits += max(-floor, 0)
                check_budget(kernel_digits, budget, "kernel series")
                c = kernel_element(field, floor, seed)
            else:
                raise DomainError(f"unknown coefficient form {sorted(spec)}")
            if r in coeffs:
                raise DomainError(f"duplicate exponent {r}")
            coeffs[r] = c
        return cls(field, coeffs)

    @classmethod
    def parse(cls, field_or_text, text=None, default_seed=0):
        if text is None:
            obj = json.loads(field_or_text)
            return cls.from_json(obj, default_seed=default_seed)
        obj = json.loads(text)
        return cls.from_json(obj, field=field_or_text, default_seed=default_seed)


# ---------------------------------------------------------------------------
# Digit vectors and the bilinear forms they define on coordinates.

def required_floor(r, N, depth=1):
    """Deepest digit position read from the coefficient of u^r over G_N."""
    return -(depth + r * max(N - 1, 0))


def _check_floor(coeff, r, N, depth):
    """-required_floor, after checking that a series coefficient reaches it."""
    need = -required_floor(r, N, depth)
    if isinstance(coeff, TruncSeries) and coeff.floor > -need:
        raise PrecisionError(
            f"coefficient of u^{r} has floor {coeff.floor}; needs {-need} "
            f"for depth-{depth} evaluation over G_{N}")
    return need


def _term_digit_vector(coeff, r, N, depth):
    """Digit codes of the coefficient at -1, -2, ..., down to required_floor;
    index s holds the digit at -(1+s)."""
    return coeff.digits(-_check_floor(coeff, r, N, depth), -1)[::-1]


def _bilinear_form(field, dvec):
    """W[n, i, k] = Tr(e_i * e_k * d_n) for the power basis e_i = p^i, so that
    Tr(a * b * d_n) = sum_{i,k} a_i b_k W[n, i, k] for coordinates a_i, b_k."""
    mul, trace, p, m = field._mul, field._trace, field.p, field.m
    pairs = [mul[p ** i][p ** k] for i in range(m) for k in range(m)]
    return np.array([trace[mul[ab][d]] for d in dvec for ab in pairs],
                    dtype=np.int64).reshape(len(dvec), m, m)


def _dual_basis(field):
    """Codes of beta_0, ..., beta_{m-1} with Tr(beta_c * p^k) = [c == k], so that
    Tr(beta_c * a) is coordinate c of a under the field's own modulus."""
    mul, trace, p, m = field._mul, field._trace, field.p, field.m
    return [next(b for b in range(field.q)
                 if all(trace[mul[b][p ** k]] == (c == k) for k in range(m)))
            for c in range(m)]


# ---------------------------------------------------------------------------
# The split engine.  With h = N // 2 write x = x_lo + t^h x_hi, x_lo in G_h and
# x_hi in G_{N-h}; index i of G_N is i_lo + q^h i_hi.  By Lucas,
# x^r = sum_j C(r, j) x_lo^j t^{h(r-j)} x_hi^{r-j}, so a digit of d * x^r is a
# bilinear form in the coordinates of x_lo^j and x_hi^{r-j}, and one matrix
# product of a table over G_h with a table over G_{N-h} gives every point.

def _power_table(field, n, top, rows):
    """Coordinates of x^0, ..., x^top side by side, for the first `rows` points of G_n.

    x^j has j * max(n - 1, 0) + 1 coefficients; column m*a + i of its block
    holds coordinate i of the coefficient of t^a.  Returns the table and the
    first column of each block (plus the end of the last).
    """
    p, q, m = field.p, field.q, field.m
    idx = np.arange(rows)[:, None]
    one = np.zeros((rows, m), dtype=np.int64)
    one[:, 0] = 1
    # the base-p digits of an index are the coordinates of its coefficients;
    # G_0 = {0} still has one (zero) coefficient
    blocks = [one, idx // p ** np.arange(max(n, 1) * m) % p][:top + 1]
    if top > 1:
        muladd = np.array(field._add)[:, np.array(field._mul)]  # [s, a, b] = s + a*b
        x = prev = idx // q ** np.arange(n) % q  # coefficient codes of x
        for j in range(2, top + 1):
            nxt = np.zeros((rows, j * max(n - 1, 0) + 1), dtype=np.int64)
            for b in range(n):
                window = nxt[:, b:b + prev.shape[1]]
                window[...] = muladd[window, prev, x[:, b:b + 1]]
            blocks.append((nxt[:, :, None] // p ** np.arange(m) % p).reshape(rows, -1))
            prev = nxt
    starts = [0]
    for block in blocks:
        starts.append(starts[-1] + block.shape[1])
    return np.concatenate(blocks, axis=1), starts


#: Entries (points times members) in one block of the streamed product.  A
#: group of stacked members keeps its float64 factor within as many entries,
#: unless the factor of one member alone is larger.
BLOCK = 1 << 16

#: float64 holds every integer up to 2^53, so the streamed product is exact
#: while its dot products stay within it.
FLOAT_EXACT = 1 << 53


def _split_blocks(fs, N, lo, hi):
    """Tr of the t^-1 digit of f(x) for every f in fs, streamed over x in [lo, hi).

    That trace is the character residue; any other digit or coordinate is
    the trace of a twist (see fractional_digit_rows).  The polynomials share
    one field and one power table over G_{N-h}; each contributes one factor
    to a float64 product whose rows are the coordinates of x_hi^e.  Yields
    (i, start, block): column c of block holds fs[i + c] at the indices
    start, start + 1, ... of G_N, one row each, and no block holds more than
    BLOCK entries unless one row of x_lo for one polynomial is already larger.

    The small factor products run in int64; the streamed one runs in float64.
    Every table entry is a coordinate below p, and every factor entry is
    reduced mod p first, so each of its dot products is at most
    (p - 1)^2 * k for its inner width k; that stays within 2^53, where
    float64 is exact, or the call raises before any product.
    """
    field = fs[0].field
    if any(f.field != field for f in fs):
        raise DomainError("stacked polynomials must share one field")
    p, m = field.p, field.m
    h = N // 2
    qh = field.q ** h
    first, last = lo // qh, -(-hi // qh)
    powers, starts = _power_table(field, N - h, max(f.max_exp() for f in fs), max(qh, last))
    # j -> C(r, j) mod p where nonzero, for every exponent r of some member
    lucas = {r: [(j, c) for j in range(r + 1) if (c := lucas_binom(r, j, p))]
             for f in fs for r, _ in f.terms}
    # the exponents e = r - j of x_hi that some member reads, and where each sits in k
    ends = sorted({r - j for r, pairs in lucas.items() for j, _ in pairs})
    k = sum(starts[e + 1] - starts[e] for e in ends)
    if (p - 1) ** 2 * k > FLOAT_EXACT:
        raise DomainError(f"an inner width of {k} at p = {p} is beyond an exact float64 product")
    offsets = {}
    highs = np.empty((last - first, k))  # the left factor: x_hi^e for every e read
    col = 0
    for e in ends:
        offsets[e] = col
        col += starts[e + 1] - starts[e]
        highs[:, offsets[e]:col] = powers[first:last, starts[e]:starts[e + 1]]
    width = (starts[-1] - starts[-2]) // m
    hankel = np.arange(width)[:, None] + np.arange(width)  # a + b, wide enough for every block

    def factor(f):
        """The (q^h x k) factor of one member, reduced mod p.

        The term r pairs x_lo^j with x_hi^e, e = r - j, through C(r, j) times
        a Hankel block: ((a, i), (b, k)) -> Tr(e_i e_k d_{a+b+h*e}).
        """
        out = np.zeros((qh, k), dtype=np.int64)
        for r, coeff in f.terms:
            form = _bilinear_form(field, _term_digit_vector(coeff, r, N, 1))
            for j, c in lucas[r]:
                e = r - j
                la = j * max(h - 1, 0) + 1  # x_lo^j has degree below j*(h-1)+1
                lb = (starts[e + 1] - starts[e]) // m
                block = form[h * e:][hankel[:la, :lb]]
                block = c * block.transpose(0, 2, 1, 3).reshape(la * m, lb * m) % p
                out[:, offsets[e]:offsets[e] + lb * m] += (
                    powers[:qh, starts[j]:starts[j] + la * m] @ block)
        out %= p
        return out

    group = max(1, BLOCK // (qh * max(k, 1)))
    for i in range(0, len(fs), group):
        n = min(group, len(fs) - i)
        right = np.empty((k, qh, n))  # [., i_lo, n']: point i_lo of member i + n'
        for c in range(n):
            right[:, :, c] = factor(fs[i + c]).T
        right = right.reshape(k, qh * n)
        rows = max(1, BLOCK // (n * qh))
        for r0 in range(first, last, rows):
            r1 = min(r0 + rows, last)
            out = (highs[r0 - first:r1 - first] @ right).astype(np.int64).reshape(-1, n)
            out %= p  # row (i_hi - r0) * q^h + i_lo: C order is index order
            a, b = max(lo, r0 * qh), min(hi, r1 * qh)
            yield i, a, out[a - r0 * qh:b - r0 * qh]


# ---------------------------------------------------------------------------
# Residues of the character at every point of an index range.

def _check_range(field, N, lo, hi, method, budget, what):
    """The shared entry check; returns hi with its default filled in."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    total = field.q ** N
    check_budget(total, budget, what)
    if hi is None:
        hi = total
    if not (0 <= lo <= hi <= total):
        raise DomainError("bad index range")
    if method not in (None, "direct"):
        raise DomainError(f"unknown evaluation method {method!r}")
    return hi


def weyl_residues(f, N, lo=0, hi=None, method=None, budget=None):
    """Character residues of f(x) for x over an index range of G_N (exact)."""
    if method is None:
        return stacked_residues([f], N, lo, hi, budget)[0]
    hi = _check_range(f.field, N, lo, hi, method, budget, "character sum")
    # the trace of the digit at t^-1, which is additive
    trace = np.array(f.field._trace, dtype=np.int64)
    return trace[_digit_rows_direct(f, N, 1, lo, hi)[:, 0]]


def stacked_residues(fs, N, lo=0, hi=None, budget=None):
    """weyl_residues of every f in the nonempty list fs, one row each.

    The polynomials share one power table and one streamed product; the
    budget is charged once, for q^N points, as for a single sum.
    """
    hi = _check_range(fs[0].field, N, lo, hi, None, budget, "character sum")
    out = np.empty((len(fs), hi - lo), dtype=np.int64)
    for i, start, block in _split_blocks(fs, N, lo, hi):
        out[i:i + block.shape[1], start - lo:start - lo + len(block)] = block.T
    return out


def stacked_sums(fs, N, lo=0, hi=None, budget=None):
    """weyl_sum of every f in the nonempty list fs, from one stacked product.

    Each block of residues goes straight into the histograms, so memory stays
    at the block size whatever q^N is.
    """
    hi = _check_range(fs[0].field, N, lo, hi, None, budget, "character sum")
    p = fs[0].field.p
    counts = np.zeros((len(fs), p), dtype=np.int64)
    for i, _, block in _split_blocks(fs, N, lo, hi):
        n = block.shape[1]
        block += p * np.arange(n)  # member i + n' counts in [n' p, n' p + p)
        counts[i:i + n] += np.bincount(block.ravel(), minlength=n * p).reshape(n, p)
    return [CharSum(p, tuple(row)) for row in counts.tolist()]


def weyl_sum(f, N, lo=0, hi=None, budget=None):
    """The exact histogram of character values of f over (a slice of) G_N."""
    return stacked_sums([f], N, lo, hi, budget)[0]


def twisted_sum(f, m, N, lo=0, hi=None, budget=None):
    """weyl_sum of m*f; the twist scales every coefficient by m."""
    return weyl_sum(f.scale_poly(m), N, lo=lo, hi=hi, budget=budget)


def fractional_digit_rows(f, N, depth, lo=0, hi=None, method=None, budget=None):
    """Per-point leading fractional digits (c_1, ..., c_depth) of f(x).

    Returns an int64 array of shape (hi - lo, depth).  Row order matches the
    enumeration of G_N; column i - 1 holds the coefficient of t^-i, as a field
    element code.  Coordinate c of the digit at t^-(1+s) is the trace of the
    t^-1 digit of (beta_c t^s) f(x), for the dual basis beta of the power
    basis, so the engine reads the depth * m twists (beta_c t^s) f.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    field = f.field
    hi = _check_range(field, N, lo, hi, method, budget, "cylinder count")
    for r, coeff in f.terms:
        _check_floor(coeff, r, N, depth)
    if method == "direct":
        return _digit_rows_direct(f, N, depth, lo, hi)
    beta = _dual_basis(field)
    twists = [f.scale_poly(Poly(field, (0,) * s + (b,))) for s in range(depth) for b in beta]
    codes = np.zeros((hi - lo, depth), dtype=np.int64)
    for i, start, block in _split_blocks(twists, N, lo, hi):
        for twist, coord in enumerate(block.T, i):
            s, c = divmod(twist, field.m)
            codes[start - lo:start - lo + len(coord), s] += field.p ** c * coord
    return codes


def _digit_rows_direct(f, N, depth, lo, hi):
    field = f.field
    terms = []
    for r, coeff in f.terms:
        terms.append((r, _term_digit_vector(coeff, r, N, depth)))
    add, mul = field.add, field.mul
    rows = np.zeros((hi - lo, depth), dtype=np.int64)
    for row, i in enumerate(range(lo, hi)):
        x = poly_from_index(field, i, N)
        powers = {r: x ** r for r, _ in terms if r >= 1}
        for di in range(depth):
            acc = 0
            for r, dvec in terms:
                if r == 0:
                    acc = add(acc, dvec[di])
                    continue
                for j, c in enumerate(powers[r].coeffs):
                    if c:
                        acc = add(acc, mul(c, dvec[di + j]))
            rows[row, di] = acc
    return rows


def orthogonality(alpha, N):
    """'full' when the linear sum collapses to q^N, 'zero' otherwise.

    Decided from the certified order of the fractional part of alpha; the
    test suite cross-checks against weyl_sum of alpha*u.
    """
    side = frac_ord_vs(alpha, N)
    return "full" if side == "below" else "zero"
