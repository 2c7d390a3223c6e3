"""Exact character sums over G_N, stored as integer histograms.

The additive character takes values in the p-th roots of unity, so a sum of
q^N character values is represented exactly by p nonnegative counts, one per
residue class of the character exponent.  Floats appear only when a magnitude
is finally requested.  The zero test "all counts equal" is exact because p is
prime (the minimal polynomial of a primitive p-th root of unity over Q is
1 + x + ... + x^{p-1}).

The character reads one thing from f(x): the trace of its t^-1 digit.  One
engine computes it for every q, one polynomial per pass, and for the basis
twists e_k t^s of that polynomial (e_k the element of code p^k): the trace of
the t^-1 digit of (e_k t^s) f(x) is Tr(e_k d_s), for d_s the digit at
t^-(1+s) of f(x).  It splits x = x_lo + t^h x_hi with h = N // 2, tabulates
by exponent the powers of x_lo over G_h and of x_hi over G_{N-h} that the
Lucas pairs read, over only the rows a pass reads (x^(p^i) placed by
Frobenius, any other x^e one product of a smaller one with a p-power), and
contracts the tables through Lucas binomials and Hankel blocks of the
coefficient digits in one float64 (BLAS) product, several members packed to a
column and read off the float's bits, exact because every call checks that
its values stay below 2^52.  The product has no columns for a power
x^(p^i): it reads x's own, through the matrix of Frobenius on coordinates.
It is streamed over blocks of x_hi rows through one buffer per pass, so
weyl_sum never holds the q^N residues.  A sum reads e_0 = 1 alone,
twisted_sum scales f by its twist, and digit rows read depth log_p(q) basis
twists, whose traces name each digit through one lookup in a q-entry table,
as the trace form is nondegenerate.  The direct path (method="direct") walks
points one by one through plain field arithmetic and is kept only as the
independent oracle.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import Field, check_budget, parse_poly, poly_from_index, power_count
from .errors import DomainError, PrecisionError
from .exponents import below_count
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
        z = sum(c * root for c, root in zip(self.counts, _roots(self.p)))
        return abs(z)

    def normalized(self):
        return self.magnitude() / self.total

    def __add__(self, other):
        if not isinstance(other, CharSum) or other.p != self.p:
            raise DomainError("cannot merge histograms of different p")
        return CharSum(self.p, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def scale(self, k):
        return CharSum(self.p, tuple(k * c for c in self.counts))


@functools.lru_cache(maxsize=None)
def _roots(p):
    """The p-th roots of unity exp(2 pi i r / p), r = 0, ..., p - 1."""
    return tuple(cmath.exp(2j * cmath.pi * r / p) for r in range(p))


def e_of(alpha):
    """Character residue r mod p of alpha, encoding exp(2*pi*i*r/p)."""
    return alpha.field.trace(alpha.res())


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

    def scale_poly(self, m):
        """The polynomial m*f, every coefficient multiplied by m."""
        return ExpPoly(self.field, {r: kmul_poly(c, m) for r, c in self.terms})

    def substitute(self, a, b):
        """f(a*u + b) as an ExpPoly in u, for polynomials a and b.

        In characteristic p, (a*u + b)^r = sum_j C(r, j) a^j b^(r-j) u^j with
        C(r, j) taken mod p (Lucas), so only the shadow of each exponent appears.
        """
        if a.field != self.field or b.field != self.field:
            raise DomainError("mixed-field polynomial arithmetic")
        p = self.field.p
        coeffs = {}
        for r, c in self.terms:
            for j, binom in _lucas_pairs(r, p):
                term = kmul_scalar(kmul_poly(c, a ** j * b ** (r - j)), binom)
                coeffs[j] = kadd(coeffs[j], term) if j in coeffs else term
        return ExpPoly(self.field, coeffs)

    def evaluate(self, x):
        """f(x) as an element of K, full precision bookkeeping included."""
        acc = None
        for r, c in self.terms:
            term = kmul_poly(c, x ** r) if r else c
            acc = term if acc is None else kadd(acc, term)
        return RationalK(self.field.poly_zero) if acc is None else acc

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
        """The ExpPoly of a JSON object.  Before its coefficient is built, each
        polynomial text is charged as a "polynomial literal", each series,
        and each rational expanded to a floor, as a "series literal" of its
        digit span, and every kernel coefficient |floor| digits, summed over
        the kernels, as a "kernel series"."""
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
                c = RationalK(parse_poly(field, rat[0], budget),
                              parse_poly(field, rat[1], budget))
            elif "series" in spec:
                c = parse_kelem(field, _member(spec, "series", str), budget)
                if isinstance(c, RationalK):
                    floor = _member(spec, "floor", int)  # a zero c has ord -inf
                    check_budget(c.ord() - floor + 1, budget, "series literal")
                    c = c.expand(floor)
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


# ---------------------------------------------------------------------------
# Digit vectors and the bilinear forms they define on coordinates.

def required_floor(r, N, depth=1):
    """Deepest digit position read from the coefficient of u^r over G_N."""
    return -(depth + r * max(N - 1, 0))


def _check_floor(coeff, r, N, depth, shift=0):
    """-required_floor, after checking that a series coefficient, multiplied
    by a twist of degree shift (which raises its floor by shift), reaches it."""
    need = -required_floor(r, N, depth)
    if isinstance(coeff, TruncSeries) and coeff.floor + shift > -need:
        raise PrecisionError(
            f"coefficient of u^{r} has floor {coeff.floor + shift}; needs {-need} "
            f"for depth-{depth} evaluation over G_{N}")
    return need


def _term_digit_vector(coeff, r, N, depth):
    """Digit codes of the coefficient at -1, -2, ..., down to required_floor;
    index s holds the digit at -(1+s)."""
    return coeff.digits(-_check_floor(coeff, r, N, depth), -1)[::-1]


@functools.lru_cache(maxsize=None)
def _trace_forms(field):
    """T[kappa, d, i, k] = Tr(e_i e_k e_kappa d) for the power basis e_i = p^i,
    so that Tr(a b e_kappa d) = sum_{i,k} a_i b_k T[kappa, d, i, k]."""
    mul, trace, p, m = field._mul, field._trace, field.p, field.m
    basis = [p ** i for i in range(m)]
    forms = np.array([[[[trace[mul[mul[mul[a][b]][c]][d]] for b in basis] for a in basis]
                       for d in range(field.q)] for c in basis], dtype=np.int64)
    forms.flags.writeable = False  # shared by every caller
    return forms


@functools.lru_cache(maxsize=None)
def _trace_codes(field):
    """The read-only code of d at the key sum_k Tr(e_k d) p^k, for every d:
    the trace form is nondegenerate, so the keys permute the q codes (the
    identity at q = p).  Tr(e_k d) is T[k, d, 0, 0] of _trace_forms, as
    e_0 = 1."""
    keys = field.p ** np.arange(field.m) @ _trace_forms(field)[:, :, 0, 0]
    codes = np.argsort(keys)
    codes.flags.writeable = False  # shared by every caller
    return codes


def _trace_digits(field, traces):
    """The digit codes named by rows of basis-twist traces: column s*m + k of
    traces holds Tr(e_k d_s), and column s of the result the code of d_s.
    At q = p the codes are the traces themselves, returned as they are."""
    p, m = field.p, field.m
    if m == 1:
        return traces
    keys = traces[:, ::m].copy()
    for k in range(1, m):
        keys += p ** k * traces[:, k::m]
    # in place: mode="raise" would first buffer a copy of keys
    return np.take(_trace_codes(field), keys, out=keys, mode="clip")


@functools.lru_cache(maxsize=256)
def _lucas_pairs(r, p):
    """The pairs (j, C(r, j) mod p) with a nonzero binomial, j ascending.

    By Lucas these are the j digitwise below r, prod_i (d_i(r) + 1) of them,
    listed from the digits of r; C(r, j) is the product of the digit binomials
    C(d_i(r), d_i(j)), none of them divisible by p.
    """
    digits = []
    while r:
        r, d = divmod(r, p)
        digits.append(d)
    pairs = [(0, 1)]
    for d in reversed(digits):
        pairs = [(j * p + i, c * math.comb(d, i) % p) for j, c in pairs for i in range(d + 1)]
    return tuple(pairs)


@functools.lru_cache(maxsize=64)
def _residues(p, size):
    """The read-only table n mod p for n < size, so that mod p is one lookup."""
    table = np.arange(size) % p
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _key_table(p, base, g):
    """The read-only key of every value below base^g: the value's g base-`base`
    digits, each taken mod p, read as one base-p number, the first digit most
    significant.  It is the outer sum of g copies of _residues(p, base),
    weighted p^(g-1), ..., p, 1; for g = 1 it is _residues(p, base) itself."""
    residues = _residues(p, base)
    table = residues
    for _ in range(g - 1):
        table = np.add.outer(table * p, residues).ravel()
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _field_arrays(field):
    """Read-only muladd[s, a, b] = s + a*b, the field's frobenius table, and
    phi[i], the m x m matrix over F_p of c -> c^(p^i) on coordinates: its
    column c holds the coordinates of e_c^(p^i), e_c the element of code p^c."""
    p, m = field.p, field.m
    muladd = np.array(field._add)[:, np.array(field._mul)]
    frobenius = np.array(field.frobenius)
    phi = frobenius[:, None, p ** np.arange(m)] // p ** np.arange(m)[:, None] % p
    muladd.flags.writeable = frobenius.flags.writeable = phi.flags.writeable = False
    return muladd, frobenius, phi


# ---------------------------------------------------------------------------
# The split engine.  With h = N // 2 write x = x_lo + t^h x_hi, x_lo in G_h and
# x_hi in G_{N-h}; index i of G_N is i_lo + q^h i_hi.  By Lucas,
# x^r = sum_j C(r, j) x_lo^j t^{h(r-j)} x_hi^{r-j}, so a digit of d * x^r is a
# bilinear form in the coordinates of x_lo^j and x_hi^{r-j}, and one matrix
# product of a table over G_h with a table over G_{N-h} gives every point.

def _charge_power_table(field, n, exps, rows, budget=None):
    """The charge of _power_table(field, n, exps, rows) for `rows` points:
    below_count(r, p) powers no wider than x^r for each r of exps, or every
    power up to max(exps) when that is fewer entries, at each point.  It
    bounds the entries the table builds from above: the table builds only
    x^0, x^1 and the powers digitwise below some r, and a slice's table may
    hold fewer rows than the count charged (see _split_blocks)."""
    p, deg, top = field.p, max(n - 1, 0), max(exps, default=0)
    entries = min(sum(below_count(r, p) * (r * deg + 1) for r in exps),
                  deg * top * (top + 1) // 2 + top + 1)
    check_budget(rows * field.m * entries, budget, "power table")


def _power_table(field, n, exps, rows):
    """Coordinates of x^e, keyed by e, for x over `rows` of G_n (a count, for
    the first points, or an array of indices) and for e = 0, 1 and each e
    digitwise below an exponent r of exps that is no power p^i, i >= 1 (its
    readers take those from x^1 by Frobenius); row i of every entry belongs
    to the i-th point given.  Callers charge it first with _charge_power_table.

    x^e has e * max(n - 1, 0) + 1 coefficients; column m*a + i of its block
    holds coordinate i of the coefficient of t^a.  The step x^(p^i) is x with
    each coefficient c raised to c^(p^i) (Frobenius, the identity when
    i % m == 0) and placed from t^b at t^(b p^i): one strided assignment,
    with no table arithmetic.  Any other e is x^(e - p^i) x^(p^i) for p^i
    the lowest nonzero digit place of e.  At q = p that product is n int64
    multiply-adds of x^(e - p^i) by the coefficients of x into the windows
    at t^(b p^i), every sum below n (p - 1)^2, then one reduction mod p; at
    q > p it is one gather in the field's add-multiply table per window.
    """
    p, q, m = field.p, field.q, field.m
    deg = max(n - 1, 0)
    if isinstance(rows, (int, np.integer)):  # a count; np.ndim would add 1 µs to a tiny sum
        rows = np.arange(rows)
    idx = np.asarray(rows)[:, None]
    count = len(idx)
    one = np.zeros((count, m), dtype=np.int64)
    one[:, 0] = 1
    # the base-p digits of an index are the coordinates of its coefficients;
    # G_0 = {0} still has one (zero) coefficient
    table = {0: one, 1: idx // p ** np.arange(max(n, 1) * m) % p}
    closure = sorted({j for r in exps for j, _ in _lucas_pairs(r, p)} - {0, 1})
    if closure:
        muladd, frobenius, _ = _field_arrays(field)
        x = idx // q ** np.arange(n) % q  # coefficient codes of x
        codes = {1: x}
        for e in closure:
            i = next(i for i in range(e.bit_length()) if e // p ** i % p)  # lowest nonzero place
            stride = p ** i
            frob = frobenius[i % m][x] if i % m else x
            codes[e] = nxt = np.zeros((count, e * deg + 1), dtype=np.int64)
            if e == stride:
                nxt[:, :n * stride:stride] = frob
            elif m == 1:
                prev = codes[e - stride]
                for b in range(n):
                    nxt[:, b * stride:b * stride + prev.shape[1]] += prev * x[:, b:b + 1]
                nxt %= p
            else:
                prev = codes[e - stride]
                for b in range(n):
                    window = nxt[:, b * stride:b * stride + prev.shape[1]]
                    window[...] = muladd[window, prev, frob[:, b:b + 1]]
            if e != stride:  # a p-power is only a step toward higher powers
                table[e] = nxt if m == 1 else (
                    nxt[:, :, None] // p ** np.arange(m) % p).reshape(count, -1)
    return table


def _key_rows(key, bases, dtype):
    """The rows of the given dtype whose keys are key, read as digits in the
    radix bases[c] of each column c, the first column most significant."""
    rows = np.empty((len(key), len(bases)), dtype=dtype)
    for c in range(len(bases) - 1, -1, -1):
        key, rows[:, c] = np.divmod(key, bases[c])
    return rows


def count_rows(rows, weights=None):
    """The distinct rows of a nonempty 2-d array of nonnegative integers, in
    lexicographic order, and the int64 summed weights of each one's copies
    (each row weighs 1 when weights is None).

    Each row is packed into one int64 key that sorts as the row does, folding
    the columns in most significant first as key * base + column, with base
    the column's maximum plus one.  When the next column would carry the
    key's span past 2^63, the key is first replaced by its dense rank, which
    keeps its order and leaves a span of at most len(rows).  Unweighted keys
    that span at most len(rows) values with no rank taken are counted by one
    bincount and read back as rows from their digits; any others form runs
    of one plain argsort, which need not be stable, as a run's rows are equal.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every key lies in [0, span)
    bases = [top + 1 for top in rows.max(axis=0).tolist()]
    ranked = False
    for col, base in zip(rows.T, bases):
        if span * base > 1 << 63:
            ranks, key = np.unique(key, return_inverse=True)
            span, ranked = len(ranks), True
        if span > 1:
            key *= base
            key += col
        else:  # every key is 0
            key = col.astype(np.int64)
        span *= base
    if weights is None and not ranked and span <= len(rows):
        sizes = np.bincount(key, minlength=span)
        return _key_rows(np.flatnonzero(sizes), bases, rows.dtype), sizes[sizes > 0]
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    if weights is None:
        return rows[order[starts]], np.diff(starts, append=len(key))
    return rows[order[starts]], np.add.reduceat(weights[order], starts)


def count_stream(chunks, base):
    """count_rows of the concatenation of a nonempty stream of (rows, weights)
    chunks, with each chunk counted as it comes; every entry lies in
    [0, base), and every weight is positive.

    When the rows' base^width keys fit in BLOCK cells, each row is read as
    one base-`base` key, its first column most significant, and the chunks
    are counted into one int64 table: by bincount when unweighted, and by
    np.add.at when weighted (exact in int64, where bincount's float64
    weights are not).  The nonzero cells are read back once as the distinct
    rows, in key order, which is count_rows' order.

    Otherwise the counts of the chunks wait beside the merged counts of the
    earlier ones, and are merged in once they outnumber both the merged rows
    and BLOCK, so the stream is never held whole, and each distinct row is
    recounted a bounded number of times on average.  weyl_scan counts its
    rows in a table of its own, which it keeps across N, and calls this only
    for rows too wide for one: the group keys of its engine pass, each below
    p^g, with the previous N's distinct rows as one weighted chunk.
    """
    chunks = iter(chunks)
    first = next(chunks)
    chunks = itertools.chain([first], chunks)
    width, dtype = first[0].shape[1], first[0].dtype
    if base ** width <= BLOCK:
        table = np.zeros(base ** width, dtype=np.int64)
        for rows, weights in chunks:
            key = np.zeros(len(rows), dtype=np.int64)
            for col in rows.T:
                key *= base
                key += col
            if weights is None:
                table += np.bincount(key, minlength=len(table))
            else:
                np.add.at(table, key, weights)
        key = np.flatnonzero(table)
        return _key_rows(key, [base] * width, dtype), table[key]

    def merge(parts):
        return count_rows(np.concatenate([r for r, _ in parts]),
                          np.concatenate([w for _, w in parts]))

    held = []  # the merged counts, then the counts of the chunks since
    waiting = 0  # rows in the counts of the chunks since
    for rows, weights in chunks:
        held.append(count_rows(rows, weights))
        waiting += len(held[-1][0])
        if len(held) > 1 and waiting >= max(len(held[0][0]), BLOCK):
            held, waiting = [merge(held)], 0
    return merge(held) if len(held) > 1 else held[0]


#: Entries (points times members) in one block of the streamed product; a
#: block is larger only when one row of x_hi, q^h points of every member,
#: is already larger.
BLOCK = 1 << 16

#: Adding 2^52 to a float64 integer v below 2^52 gives a float whose bits are
#: those of 2^52 plus v, so the streamed product is read off its bits exactly
#: while every value it takes is at most FLOAT_EXACT.
FLOAT_EXACT = (1 << 52) - 1

#: The float 2^52, and its int64 bits, subtracted from the bits of 2^52 + v.
_BIAS = np.float64(1 << 52)
_BIAS_BITS = _BIAS.view(np.int64)

#: The key table and the digit table of a packing of g > 1 members each hold
#: at most TABLE_BLOCKS * BLOCK cells (see _packing).
TABLE_BLOCKS = 2


def _p_power(e, p):
    """i when e = p^i (0 for e = 1), else None."""
    i = 0
    while e > 1 and e % p == 0:
        e, i = e // p, i + 1
    return i if e == 1 else None


@functools.lru_cache(maxsize=256)
def _inner_columns(field, N, exps):
    """({e: first column}, k) of the engine's product over G_N: the x_hi
    exponents e that own columns, ascending, and the inner width k.  They are
    the e = r - j of the Lucas pairs of the r in exps, each power p^i read as
    1 (x^(p^i) holds x's coefficients, Frobenius-raised, at t^(b p^i), so it
    folds into x^1); x^e takes m (e * max(N - N // 2 - 1, 0) + 1) columns."""
    p, m = field.p, field.m
    deg = max(N - N // 2 - 1, 0)
    ends = {r - j for r in exps for j, _ in _lucas_pairs(r, p)}
    offsets, k = {}, 0
    for e in sorted({1 if _p_power(e, p) is not None else e for e in ends}):
        offsets[e] = k
        k += m * (e * deg + 1)
    return offsets, k


def _pass_checks(f, width, N, lo, hi, budget=None):
    """Every check _split_blocks(f, width, N, lo, hi, budget) makes before its
    first block: the floors for depth (width - 1) // m + 1, the charge of its
    power table, and the bound on its inner width k (_inner_columns, which
    counts no p-power of x_hi) that keeps every product value below 2^52,
    where its float64 bits read it exactly.  Returns the number of values a
    member's dot product takes, (p - 1)^2 * k + 1."""
    field = f.field
    p, m = field.p, field.m
    for r, c in f.terms:
        _check_floor(c, r, N, (width - 1) // m + 1)
    h = N // 2
    qh = field.q ** h
    exps = tuple(r for r, _ in f.terms)
    _charge_power_table(field, N - h, exps, max(qh, -(-hi // qh)), budget)
    k = _inner_columns(field, N, exps)[1]
    if (p - 1) ** 2 * k > FLOAT_EXACT:
        raise DomainError(f"an inner width of {k} at p = {p} lets a product value reach "
                          f"2^52, beyond the exact float64 read-out")
    return (p - 1) ** 2 * k + 1


def _packing(p, values, width):
    """(groups, g): the members of a pass whose dot products take `values`
    values go g to a product column, in groups = ceil(width / g) columns.
    Column c carries the product values v_b of its members b, the first most
    significant, as one integer sum_b v_b values^(g-1-b) below values^g; g is
    the largest that keeps that integer within FLOAT_EXACT, and both its key
    table (values^g cells) and the digit table of its keys (p^g rows of g
    digits) within TABLE_BLOCKS * BLOCK cells; g = 1 needs none of these, as
    the checks bound values by FLOAT_EXACT + 1.  g is then evened out over
    the columns."""
    cells = TABLE_BLOCKS * BLOCK
    g = 1
    while (g < width and values ** (g + 1) <= min(FLOAT_EXACT + 1, cells)
           and p ** (g + 1) * (g + 1) <= cells):
        g += 1
    groups = -(-width // g)
    return groups, -(-width // groups)


@functools.lru_cache(maxsize=8)
def _digit_table(p, g):
    """The read-only base-p digits of every key below p^g, a row each, the
    first digit most significant."""
    table = np.arange(p ** g)[:, None] // p ** np.arange(g - 1, -1, -1) % p
    table.flags.writeable = False
    return table


def _members(keys, width, p):
    """The residues of every member, one column each, of a block of a
    _split_blocks pass over `width` members: column c of keys is the base-p key
    of group c, g = ceil(width / groups) members with the first most
    significant, the first group led by groups * g - width empty places."""
    groups = keys.shape[1]
    if groups == width:
        return keys
    g = -(-width // groups)
    members = _digit_table(p, g).take(keys, axis=0).reshape(len(keys), groups * g)
    return members[:, groups * g - width:]


def _point_keys(keys, width, p):
    """The base-p key of every member of each row of a block of a
    _split_blocks pass over `width` members, the first most significant:
    the block's group keys read as base-p^g digits (see _members)."""
    groups = keys.shape[1]
    if groups == 1:
        return keys[:, 0]
    place = p ** -(-width // groups)
    key = keys[:, 0].copy()
    for col in keys.T[1:]:
        key *= place
        key += col
    return key


def _split_blocks(f, width, N, lo, hi, budget=None):
    """Tr of the t^-1 digit of (e_k t^s f)(x), which is Tr(e_k d_s) for d_s
    the digit at t^-(1+s) of f(x), for each of the first `width` basis
    twists, s-major (member s*m + k), over x in [lo, hi), packed g members to
    a column as _packing decides.

    Yields (start, block): row i of block belongs to the index start + i of
    G_N, and column c holds the base-p key of the residues of its group c of
    members (see _members); with g = 1, column b is member b.  Every block
    carries every member, and no block holds more than BLOCK points times
    members unless one row of x_hi is already larger.  Each block is a view
    into one buffer the pass allocates once, valid until the next block is
    drawn.  Member s*m + k reads s digits deeper than the character, so the
    floors are first checked as for depth (width - 1) // m + 1, with the rest
    of _pass_checks.
    One power table serves both halves: its first q^h rows are the x_lo
    points G_h, and it builds only those and the x_hi rows [first, last)
    that [lo, hi) meets, the first q^h + last - first points of G_{N-h}
    listed by index once first > q^h, else the first max(q^h, last); the
    charge of _pass_checks, on max(q^h, last) rows, bounds either.
    The factors come from one digit vector per term and one int64 product
    per Lucas pair for all members; they form the right side of a float64
    product whose rows are the coordinates of x_hi^e.  A power x^(p^i) on
    either side is read from x^1: its coefficient at t^(b p^i) is x_b raised
    by Frobenius, with coordinates phi_i coords(x_b), and it has no other, so
    a pair's Hankel block is read on that side at the places b p^i only, its
    coordinates mapped by phi_i (see _inner_columns and _field_arrays).
    Every table entry is a coordinate below p, and every factor entry is
    reduced mod p, so each member's dot product is at most (p - 1)^2 * k for
    the inner width k, one of V = (p - 1)^2 * k + 1 values.  A group's
    members enter one column of the right factor with the weights
    V^(g-1), ..., V, 1, so the product gives the group's values as one
    integer below V^g.  Every partial sum of that product is a nonnegative
    integer no larger, within 2^52, so float64 is exact; adding 2^52 puts the
    integer in the float's low bits, read in place as int64, and one lookup
    in _key_table turns it into the group's key.
    """
    values = _pass_checks(f, width, N, lo, hi, budget)  # a member's dot product takes
    field = f.field
    p, m = field.p, field.m
    deepest = (width - 1) // m
    h = N // 2
    qh = field.q ** h
    first, last = lo // qh, -(-hi // qh)
    # the table's rows: the x_lo points [0, q^h) and the x_hi points
    # [first, last), the first of which is its row `top`
    if first > qh:
        rows, top = np.r_[0:qh, first:last], qh
    else:
        rows, top = max(qh, last), first
    exps = tuple(r for r, _ in f.terms)
    powers = _power_table(field, N - h, exps, rows)
    offsets, k = _inner_columns(field, N, exps)
    groups, g = _packing(p, values, width)
    highs = np.empty((last - first, k))  # the left factor: x_hi^e for every e with columns
    for e, col in offsets.items():
        highs[:, col:col + powers[e].shape[1]] = powers[e][top:top + last - first]
    phi = _field_arrays(field)[2]
    shift, kappa = np.divmod(np.arange(width), m)
    # The right factor, reduced mod p, as a (k, q^h, width) int64 array.  The
    # term r pairs x_lo^j with x_hi^e, e = r - j, through C(r, j) times a
    # Hankel block: ((a, i'), (b, k')) -> Tr(e_i' e_k' e_k d_{s+a+b+h*e}),
    # where d_s is the coefficient's digit at -(1+s).
    right = np.zeros((k, qh, width), dtype=np.int64)
    for r, coeff in f.terms:
        need = -required_floor(r, N)
        digits = np.array(coeff.digits(-need - deepest, -1)[::-1], dtype=np.int64)
        # forms[s, b] = the bilinear form of the digit at -(1+s) of member b
        place = np.arange(need)
        forms = _trace_forms(field)[kappa, digits[np.add.outer(place, shift)]]
        for j, c in _lucas_pairs(r, p):
            e = r - j
            # x_lo^j has j*(h-1)+1 coefficients and x_hi^e e*(N-h-1)+1; a
            # p-power p^i is read from x^1 at the places b p^i
            lo_i, hi_i = _p_power(j, p), _p_power(e, p)
            a_read = place[h * e:h * e + j * max(h - 1, 0) + 1:p ** (lo_i or 0)]
            b_read = place[:e * max(N - h - 1, 0) + 1:p ** (hi_i or 0)]
            block = forms[a_read[:, None] + b_read]  # [a, b, member, i', k']
            if (lo_i or 0) % m:
                block = phi[lo_i % m].T @ block
            if (hi_i or 0) % m:
                block = block @ phi[hi_i % m]
            block = block.transpose(0, 3, 1, 4, 2).reshape(len(a_read) * m, -1)
            if c > 1:  # right is reduced mod p once it is summed
                block = c * block
            product = powers[j if lo_i is None else 1][:qh, :len(a_read) * m] @ block
            at, lb = offsets[e if hi_i is None else 1], len(b_read) * m
            right[at:at + lb] += product.reshape(qh, lb, -1).transpose(1, 0, 2)
    right %= p
    if g > 1:  # member b at place groups * g - width + b, the leading places empty
        places = np.zeros((k, qh, groups * g), dtype=np.int64)
        places[:, :, groups * g - width:] = right
        right = places.reshape(k, qh, groups, g) @ values ** np.arange(g - 1, -1, -1)
    right = right.reshape(k, qh * groups).astype(float)
    keys_of = _key_table(p, values, g)
    rows = max(1, BLOCK // (width * qh))
    buffer = np.empty((min(rows, last - first), qh * groups))
    for r0 in range(first, last, rows):
        r1 = min(r0 + rows, last)
        out = np.matmul(highs[r0 - first:r1 - first], right, out=buffer[:r1 - r0])
        out += _BIAS
        keys = out.view(np.int64)
        keys -= _BIAS_BITS
        # in place: mode="raise" would first buffer a copy of keys, and no
        # value reaches values^g, the table's length
        keys_of.take(keys, out=keys, mode="clip")
        # row (i_hi - r0) * q^h + i_lo: C order is index order
        keys = keys.reshape(-1, groups)
        a, b = max(lo, r0 * qh), min(hi, r1 * qh)
        yield a, keys[a - r0 * qh:b - r0 * qh]


def prefix_segments(blocks, bounds):
    """The (start, block) stream of a pass over the indices 0, 1, ...,
    bounds[-1] - 1, cut into one segment per bound of the strictly
    ascending bounds: segment i streams the blocks of the indices from
    bounds[i - 1] (from 0 for i = 0) up to bounds[i], and a block is split
    where a bound falls inside it.  Each segment must be drawn before the
    next, and none is held whole.

    The index of G_N puts the constant term fastest, so G_N is the first
    q^N points of every larger G_N', at the same indices: one pass over
    G_{max N}, cut at each q^N, serves every N.
    """
    def cut():
        i = 0
        for start, block in blocks:
            while start + len(block) > bounds[i]:
                head = bounds[i] - start
                if head:
                    yield i, block[:head]
                start, block, i = bounds[i], block[head:], i + 1
            yield i, block

    for _, group in itertools.groupby(cut(), key=operator.itemgetter(0)):
        yield (block for _, block in group)


# ---------------------------------------------------------------------------
# Residues of the character at every point of an index range.

def _check_range(field, N, lo, hi, method, budget, what, per_point=1):
    """The shared entry check, which charges per_point units for each of the
    q^N points; returns hi with its default filled in."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    total = power_count(field.q, N, budget, what)
    check_budget(total * per_point, budget, what)
    if hi is None:
        hi = total
    if not (0 <= lo <= hi <= total):
        raise DomainError("bad index range")
    if method not in (None, "direct"):
        raise DomainError(f"unknown evaluation method {method!r}")
    return hi


def weyl_residues(f, N, lo=0, hi=None, method=None, budget=None):
    """Character residues of f(x) for x over an index range of G_N (exact)."""
    hi = _check_range(f.field, N, lo, hi, method, budget, "character sum")
    if method == "direct":
        # the trace of the digit at t^-1, which is additive
        trace = np.array(f.field._trace, dtype=np.int64)
        return trace[_digit_rows_direct(f, N, 1, lo, hi)[:, 0]]
    out = np.empty(hi - lo, dtype=np.int64)
    for start, block in _split_blocks(f, 1, N, lo, hi, budget):
        out[start - lo:start - lo + len(block)] = block[:, 0]
    return out


def weyl_sum(f, N, lo=0, hi=None, budget=None):
    """The exact histogram of character values of f over (a slice of) G_N.

    Each block of residues goes straight into the histogram, so memory stays
    at the block size whatever q^N is.
    """
    hi = _check_range(f.field, N, lo, hi, None, budget, "character sum")
    p = f.field.p
    counts = np.zeros(p, dtype=np.int64)
    for _, block in _split_blocks(f, 1, N, lo, hi, budget):
        counts += np.bincount(block[:, 0], minlength=p)
    return CharSum(p, tuple(counts.tolist()))


def twisted_sum(f, m, N, lo=0, hi=None, budget=None):
    """weyl_sum of m*f; the zero twist reads no digit."""
    return weyl_sum(f.scale_poly(m), N, lo, hi, budget)


def _digit_row_blocks(f, N, depth, lo=0, hi=None, method=None, budget=None):
    """hi, and the rows of fractional_digit_rows as (start, rows) blocks, after
    its checks; on the engine path the blocks stream, and a floor too shallow
    for depth raises as the first block is drawn."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    field = f.field
    hi = _check_range(field, N, lo, hi, method, budget, "cylinder count", depth * field.m)
    if method == "direct":
        return hi, [(lo, _digit_rows_direct(f, N, depth, lo, hi))]
    width = depth * field.m
    return hi, ((start, _trace_digits(field, _members(block, width, field.p)))
                for start, block in _split_blocks(f, width, N, lo, hi, budget))


def fractional_digit_rows(f, N, depth, lo=0, hi=None, method=None, budget=None):
    """Per-point leading fractional digits (c_1, ..., c_depth) of f(x).

    Returns an int64 array of shape (hi - lo, depth).  Row order matches the
    enumeration of G_N; column i - 1 holds the coefficient of t^-i, as a field
    element code.  The budget is charged for depth * log_p(q) residues at
    each of the q^N points, on either path.  The engine reads the
    depth * log_p(q) basis twists e_k t^s, and _trace_codes turns each
    shift's traces Tr(e_k d_s) into the code of d_s.
    """
    hi, blocks = _digit_row_blocks(f, N, depth, lo, hi, method, budget)
    codes = np.empty((hi - lo, depth), dtype=np.int64)
    for start, rows in blocks:
        codes[start - lo:start - lo + len(rows)] = rows
    return codes


def _digit_rows_direct(f, N, depth, lo, hi):
    field = f.field
    terms = [(r, _term_digit_vector(coeff, r, N, depth)) for r, coeff in f.terms]
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
