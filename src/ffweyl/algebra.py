"""Exact arithmetic in F_p, F_q = F_{p^m}, and the polynomial ring F_q[t].

Field elements are integer codes in [0, q): the base-p digits of a code are
the coordinates of the element in the power basis 1, x, ..., x^{m-1} of the
defining modulus, so the codes 0..p-1 form the prime subfield and for q = p
an element is simply its residue.  Polynomials in t are immutable tuples of
codes, constant term first, trailing zeros stripped; the zero polynomial is
the empty tuple.  Its degree is NEG_INF, a float marker that orders below
every integer degree and can never collide with one.

Polynomial products are Kronecker substitutions: each operand is packed into
one Python int, the two ints are multiplied once, and the product's bytes are
unpacked.  Every t-coefficient takes 2m-1 sub-slots of w bytes, and the m
coordinates of its code fill the low m of them, so the product's sub-slots
hold the coefficients of the unreduced coordinate products in x.  w is the
fewest bytes with min(la, lb)*m*(p-1)^2 < 256^w for operand lengths la and
lb, so no sub-slot overflows into the next.  Unpacking reduces the bytes mod
p with bytes.translate; for w > 1 it first adds the w residues of each
sub-slot with the weights 256^k mod p and reduces again.  It then folds each
group of 2m-1 residues r_i to a code through a per-field table of
p^(2m-1) <= 32 entries, indexed by sum r_i p^i, which reduces mod the
defining modulus.  Both weighted sums are one multiplication of the residue
bytes, read as an int, by a constant.  At q = p a group is one residue and
the fold is reduction mod p.

Results the arithmetic builds from table lookups (sums, negations,
products, scalings, shifts, quotients and remainders) are canonical by
construction and skip Poly's validation; Poly(field, coeffs) checks and
strips every coefficient it is given.

Every literal the package reads, a polynomial or series in t, a modulus in
x or a u-polynomial, has one grammar, a sum of signed terms c*v^e, read by
one term reader (read_terms); each reader adds only its coefficient rule.
Two charges keep a literal's size within the budget before it is built:
parse_poly charges deg + 1 coefficients as a "polynomial literal", and
kinfty.parse_kelem a series' digit span as a "series literal".
"""
from __future__ import annotations

import functools
import math
import re

from .errors import BudgetError, DomainError

NEG_INF = float("-inf")

#: Default cap on q^N-style enumerations.
DEFAULT_BUDGET = 1 << 24

#: Budget messages write a count in decimal up to this many digits (CPython's
#: default limit on int-to-str conversion) and a larger count q^e as "q^e".
PRINT_DIGITS = 4300

#: Field sizes the package is validated for (desk scale).
SUPPORTED_Q = frozenset({2, 3, 4, 5, 7, 8, 9})

#: Fields Field.parse keeps: more than the default and custom moduli of
#: every supported q together.
FIELD_CACHE = 32


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(n, base, width):
    out = []
    for _ in range(width):
        n, r = divmod(n, base)
        out.append(r)
    return out


class Field:
    """The finite field F_{p^m} with dense element tables.

    Instances are immutable and safe to share; all element operations are
    table lookups plus integer arithmetic.  The read-only frobenius[i][c] is
    c^(p^i), i < m; its last row is the inverse Frobenius c^(q/p).
    """

    __slots__ = ("p", "m", "q", "modulus", "_prime", "_mul", "_add", "_neg",
                 "_inv", "_trace", "_mulneg", "_slot_max", "_stride", "_modp",
                 "_coord_bytes", "_fold_weight", "_fold", "frobenius",
                 "poly_zero", "poly_one", "poly_t", "_irr_cache")

    def __init__(self, p, m=1, modulus=None):
        if not _is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if m < 1:
            raise DomainError("extension degree must be positive")
        q = p ** m
        if q not in SUPPORTED_Q:
            raise DomainError(f"q = {q} outside the supported range {sorted(SUPPORTED_Q)}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if modulus is not None:
                raise DomainError("prime fields take no modulus")
            self.modulus = self._prime = None
        else:
            # F_{p^m} = F_p[x] / (modulus)
            self._prime = prime = _shared_field(p, 1, None)
            if modulus is None:
                modulus = irreducibles(prime, m)[0].coeffs
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise DomainError("modulus must be monic of degree m")
            if not is_irreducible(Poly(prime, modulus)):
                raise DomainError("modulus is reducible")
            self.modulus = modulus
        self._build_tables()
        self.poly_zero = Poly(self, ())
        self.poly_one = Poly(self, (1,))
        self.poly_t = Poly(self, (0, 1))
        self._irr_cache = {}

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        if m == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg = [(-a) % p for a in range(p)]
        else:
            # codes add coordinatewise mod p; x*c shifts the coordinates of c
            # up one place and subtracts the carried top one times the modulus
            coords = [_digits(a, p, m) for a in range(q)]
            self._add = [[self._encode([(s + t) % p for s, t in zip(a, b)]) for b in coords]
                         for a in coords]
            self._neg = [row.index(0) for row in self._add]
            shifts = [[c] for c in range(q)]  # c, x c, ..., x^(2m-2) c
            for _ in range(2 * m - 2):
                for row in shifts:
                    c = coords[row[-1]]
                    row.append(self._encode([(s - c[-1] * t) % p
                                             for s, t in zip([0] + c[:-1], self.modulus)]))
            # a*b is the sum of the a_i x^i b
            self._mul = [self._combinations(row[:m]) for row in shifts]
        self.frobenius = tuple(tuple(self._pow_raw(c, p ** i) for c in range(q))
                               for i in range(m))
        self._trace = [0] * q  # the sum of each column of frobenius
        for row in self.frobenius:
            self._trace = [self._add[t][c] for t, c in zip(self._trace, row)]
        if max(self._trace) >= p:
            raise DomainError("trace left the prime subfield; bad modulus")
        self._inv = [0] + [self._pow_raw(a, q - 2) for a in range(1, q)]  # a^(q-1) = 1
        self._mulneg = [[self._neg[c] for c in row] for row in self._mul]  # -a*b
        # packed products (module docstring): what one pair of t-coefficients
        # adds to a sub-slot at most, the 2m-1 sub-slots of a t-coefficient,
        # translate tables for b mod p and code -> coordinate i, and the fold
        # of a group of residues r_i to the code of sum r_i x^i mod modulus,
        # through its index sum r_i p^i (at m = 1 the fold is b mod p)
        s = 2 * m - 1
        self._slot_max = m * (p - 1) ** 2
        self._stride = s
        self._modp = bytes(b % p for b in range(256))
        self._coord_bytes = tuple(bytes(_digits(c, p, m)[i] if c < q else 0
                                        for c in range(256)) for i in range(m))
        self._fold_weight = _slot_weight([p ** i for i in range(s)])
        if m == 1:
            self._fold = self._modp
        else:
            fold = self._combinations(shifts[1])  # the sums of the r_i x^i
            self._fold = bytes(fold + [0] * (256 - len(fold)))

    def _combinations(self, basis):
        """The code of sum_i c_i basis[i] for every c over F_p, at the index
        sum_i c_i p^i."""
        out = [0]
        for y in basis:
            multiples = [0]
            for _ in range(self.p - 1):
                multiples.append(self._add[multiples[-1]][y])
            out = [self._add[a][b] for b in multiples for a in out]
        return out

    def _encode(self, coords):
        code = 0
        for c in reversed(coords):
            code = code * self.p + c
        return code

    def _pow_raw(self, a, e):
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul[out][base]
            e >>= 1
            if e:
                base = self._mul[base][base]
        return out

    # -- element operations -------------------------------------------------

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise DomainError("inverse of zero")
        return self._inv[a]

    def pow(self, a, e):
        if e < 0:
            return self._pow_raw(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        return self._pow_raw(a, e)

    def trace(self, a):
        """Trace down to F_p, returned as a residue in [0, p)."""
        return self._trace[a]

    def coords(self, a):
        return tuple(_digits(a, self.p, self.m))

    def from_coords(self, coords):
        if len(coords) != self.m:
            raise DomainError("coordinate vector has wrong length")
        return self._encode([c % self.p for c in coords])

    # -- polynomial and parsing conveniences ---------------------------------

    def spec_string(self):
        if self.m == 1 or self.modulus == irreducibles(self._prime, self.m)[0].coeffs:
            return f"q={self.q}"
        return f"q={self.q} modulus={format_fp_poly(self.modulus)}"

    @classmethod
    def parse(cls, spec):
        """The field named by a spec string like 'q=9', 'q=2^3' or
        'q=4 modulus=x^2+x+1'.

        Specs that name the same (p, m, modulus) give one shared Field per
        process, built once with its tables, prime subfield and irreducible
        cache; a modulus equal to the default one names the default field, so
        'q=9', 'q=3^2' and 'q=9 modulus=x^2+1' give the same object.  Fields
        are immutable; Field(p, m, modulus) itself builds a fresh one.
        """
        parts = re.split(r"[,\s]+", spec.strip())
        q_part = None
        mod_part = None
        for part in parts:
            if not part:
                continue
            if part.startswith("q="):
                q_part = part[2:]
            elif part.startswith("modulus="):
                mod_part = part[8:]
            else:
                raise DomainError(f"unrecognized field spec component {part!r}")
        if q_part is None:
            raise DomainError(f"field spec {spec!r} has no q=")
        if "^" in q_part:
            p_s, m_s = q_part.split("^")
            p, m = int(p_s), int(m_s)
        else:
            q = int(q_part)
            p = next((d for d in range(2, q + 1) if _is_prime(d) and q % d == 0), None)
            if p is None:
                raise DomainError(f"q = {q} is not a prime power")
            m = 0
            while q > 1:
                if q % p:
                    raise DomainError(f"q = {int(q_part)} is not a prime power")
                q //= p
                m += 1
        field = _shared_field(p, m, None)  # checks p, m and q before the modulus
        if not mod_part:
            return field
        modulus = parse_fp_poly(mod_part, p, m)
        return field if modulus == field.modulus else _shared_field(p, m, modulus)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field({self.spec_string()!r})"


@functools.lru_cache(maxsize=FIELD_CACHE)
def _shared_field(p, m, modulus):
    return Field(p, m, modulus)


def parse_fp_poly(s, p, m):
    """Parse a modulus like 'x^2+x+1' of degree at most m into an F_p
    coefficient tuple: each term is an integer times x^e, 0 <= e <= m, and an
    exponent above m is refused before the tuple is built."""
    coeffs = {}
    for sign, c, e in read_terms(s, "x"):
        if c and not c.isdecimal():
            raise DomainError(f"bad modulus coefficient {c!r}")
        if not 0 <= e <= m:
            raise DomainError(f"modulus exponent {e} outside 0..{m}")
        c = (-1 if sign == "-" else 1) * (int(c) if c else 1)
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    deg = max((e for e, c in coeffs.items() if c), default=0)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


def format_fp_poly(coeffs):
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            terms.append(f"{head}x" if e == 1 else f"{head}x^{e}")
    return "+".join(terms) if terms else "0"


def _split_terms(s):
    """Split on top-level +/- signs; '[...]' and '(...)' groups and '^-'
    exponents stay intact, and a sign with no term after it is refused."""
    out = []
    sign, buf, depth = "+", [], 0
    prev, signed = "", False
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in "+-" and depth == 0 and prev != "^":
            if any(not c.isspace() for c in buf):
                out.append((sign, "".join(buf)))
                sign, buf = ch, []
            else:
                # a sign before any term content: leading sign or a sign run
                sign = "-" if (sign == "-") != (ch == "-") else "+"
            signed = True
        else:
            buf.append(ch)
        if not ch.isspace():
            prev = ch
    if any(not c.isspace() for c in buf):
        out.append((sign, "".join(buf)))
    elif signed:
        raise DomainError(f"sign with no term after it in {s.strip()!r}")
    if not out:
        raise DomainError("empty polynomial text")
    return out


#: An exponent or a '[..]' vector entry: an optional sign and decimal digits.
_INTEGER = r"[+-]?\d+"

#: What follows the variable of a term: nothing, or '^' and an integer.
_EXPONENT = re.compile(rf"(?:\^\s*({_INTEGER}))?")


def read_terms(s, var):
    """The terms of a sum of signed terms c*var^e, in order, as (sign, c, e):
    sign is '+' or '-', c the coefficient text, stripped, and e an int.

    The text splits at each '+' or '-' outside brackets that does not follow
    '^', a run of signs reads as one, and a sign with no term after it is
    refused.  The variable of a term is its first var outside brackets,
    followed by nothing (e = 1) or by '^' and an integer, with spaces
    allowed around '^' and a sign allowed before the integer.  c is the
    text before the variable, a '*' that joins it to the variable dropped,
    and '' stands for 1; a term without the variable is the constant c
    (e = 0), and keeps any '*'.
    """
    for sign, raw in _split_terms(s):
        c, e, depth = raw.strip(), 0, 0
        for at, ch in enumerate(c):
            depth += (ch in "([") - (ch in ")]")
            if ch == var and not depth:
                tail = _EXPONENT.fullmatch(c[at + 1:].strip())
                if tail is None:
                    raise DomainError(f"bad term {raw.strip()!r}")
                c, e = c[:at].rstrip().removesuffix("*").rstrip(), int(tail.group(1) or 1)
                break
        yield sign, c, e


class Poly:
    """Immutable polynomial over a Field; coefficient codes low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not (0 <= c < field.q):
                raise DomainError(f"coefficient code {c} out of range for {field!r}")
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def _unchecked(cls, field, coeffs):
        """A Poly from a tuple of codes below q with no trailing zero, as the
        arithmetic's table lookups build them; nothing is checked."""
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lead(self):
        if not self.coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise DomainError("mixed-field polynomial arithmetic")

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.coeffs == self.coeffs
                and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        self._check(other)
        fa = self.field._add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [fa[x][y] for x, y in zip(a, b)]
        out.extend(a[len(b):])
        while out and not out[-1]:
            out.pop()
        return Poly._unchecked(self.field, tuple(out))

    def __neg__(self):
        fn = self.field._neg
        return Poly._unchecked(self.field, tuple([fn[c] for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product by one big-int multiplication (module docstring)."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        field = self.field
        if not a or not b:
            return field.poly_zero
        w = ((min(len(a), len(b)) * field._slot_max).bit_length() + 7) // 8
        prod = _pack(field, a, w) * _pack(field, b, w)
        raw = prod.to_bytes((len(a) + len(b) - 1) * field._stride * w, "little")
        if w > 1:  # each sub-slot mod p: its byte k counts 256^k mod p
            weight = _slot_weight([pow(256, k, field.p) for k in range(w)])
            raw = _fold_slots(field, raw, w, weight, field._modp)
        codes = _fold_slots(field, raw, field._stride, field._fold_weight, field._fold)
        return Poly._unchecked(field, tuple(codes))  # the lead is lead(a)*lead(b)

    def scale(self, c):
        """Multiply by the field element with code c."""
        if c == 0:
            return self.field.poly_zero
        row = self.field._mul[c]
        return Poly._unchecked(self.field, tuple([row[x] for x in self.coeffs]))

    def shift(self, k):
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise DomainError("negative shift leaves the polynomial ring")
        if not self.coeffs:
            return self
        return Poly._unchecked(self.field, (0,) * k + self.coeffs)

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial power")
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return self.field.poly_one if out is None else out

    def _divide(self, other, with_quotient):
        """Long division: the quotient's code list (None unless asked for)
        and the remainder."""
        self._check(other)
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        field = self.field
        fa, fmn = field._add, field._mulneg
        low = other.coeffs[:-1]
        d = len(low)
        lead_row = field._mul[field._inv[other.coeffs[-1]]]
        r = list(self.coeffs)
        q = [0] * max(len(r) - d, 0) if with_quotient else None
        while len(r) > d:
            c = lead_row[r.pop()]  # the top term cancels
            if c:
                k = len(r) - d
                if q is not None:
                    q[k] = c
                row = fmn[c]
                for j, y in enumerate(low):
                    r[k + j] = fa[r[k + j]][row[y]]
        while r and not r[-1]:
            r.pop()
        return q, Poly._unchecked(field, tuple(r))

    def __divmod__(self, other):
        q, r = self._divide(other, True)
        return Poly._unchecked(self.field, tuple(q)), r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        """The remainder alone; no quotient is built."""
        return self._divide(other, False)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def mod_pow(self, e, modulus):
        """self**e reduced mod modulus, by square and multiply."""
        if e < 0:
            raise DomainError("negative exponent in mod_pow")
        out, base = self.field.poly_one % modulus, self % modulus
        while e:
            if e & 1:
                out = (out * base) % modulus
            e >>= 1
            if e:
                base = (base * base) % modulus
        return out

    def code(self):
        """Base-q integer code; a deterministic sort key for polynomials."""
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.field.q + c
        return code

    # -- text form ------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    @classmethod
    def parse(cls, field, s):
        return parse_poly(field, s)


def _pack(field, coeffs, w):
    """The Kronecker int of a code tuple: coordinate i of the code at t^j is
    the low byte of sub-slot i, of w bytes, in the (2m-1)*w bytes of t^j."""
    codes = bytes(coeffs)
    stride = field._stride * w
    if stride == 1:  # q = p and w = 1: a code is its one coordinate
        return int.from_bytes(codes, "little")
    buf = bytearray(len(codes) * stride)
    for i, table in enumerate(field._coord_bytes):
        buf[i * w::stride] = codes.translate(table)
    return int.from_bytes(buf, "little")


def _slot_weight(weights):
    """The multiplier sum_i weights[i] * 256^(n-1-i), n = len(weights), that
    _fold_slots uses to read groups of n bytes."""
    return sum(c << (8 * (len(weights) - 1 - i)) for i, c in enumerate(weights))


def _fold_slots(field, data, n, weight, table):
    """Byte j of the result is table[sum_i weights[i] * (data[j*n + i] mod p)]
    for weight = _slot_weight(weights), whenever every such sum, for any n
    consecutive bytes, is below 256.

    The sums come from one product: byte j*n + n-1 of the bytes of data,
    reduced mod p and read as an int, times weight is sum_i weights[i] *
    (data[j*n + i] mod p), and no byte of the product carries.  The fold's
    sums are below p^(2m-1) <= 32; a w-byte sub-slot's are below
    w*(p-1)^2 < 256 while w <= 7, so for every operand shorter than 2^48.
    """
    if n == 1:  # weights == (1,) and table[b] is already read mod p
        return data.translate(table)
    r = int.from_bytes(data.translate(field._modp), "little") * weight
    return r.to_bytes(len(data) + n, "little")[n - 1:len(data):n].translate(table)


def format_elem(field, code):
    if field.m == 1:
        return str(code)
    return "[" + ",".join(str(c) for c in reversed(field.coords(code))) + "]"


def _format_terms(field, terms):
    """Render a {exponent: code} mapping in the shared t-power syntax."""
    parts = []
    for e in sorted((e for e, c in terms.items() if c), reverse=True):
        c = terms[e]
        cs = format_elem(field, c)
        if e == 0:
            parts.append(cs)
            continue
        te = "t" if e == 1 else f"t^{e}"
        parts.append(te if cs == "1" else f"{cs}*{te}")
    return " + ".join(parts) if parts else "0"


def format_poly(x):
    return _format_terms(x.field, {e: c for e, c in enumerate(x.coeffs)})


def parse_terms(field, s):
    """Parse the t-power syntax into {exponent: code}; exponents may be
    negative, and a coefficient is an integer or a '[..]' vector of m
    coordinates, the highest first, each read as an exponent is."""
    terms = {}
    for sign, c, e in read_terms(s, "t"):
        if c.startswith("[") and c.endswith("]"):
            vals = c[1:-1].split(",") if c[1:-1].strip() else []
            try:
                if "_" in c:  # int() also reads digits joined by '_'
                    raise ValueError
                vals = [int(v) for v in vals]
            except ValueError:
                bad = next(v for v in vals if not re.fullmatch(rf"\s*{_INTEGER}\s*", v))
                raise DomainError(f"bad entry {bad.strip()!r} in coefficient vector {c}") from None
            if len(vals) != field.m:
                raise DomainError(f"coefficient vector {c} needs {field.m} entries")
            code = field.from_coords(list(reversed(vals)))
        elif c and not c.isdecimal():
            raise DomainError(f"bad coefficient {c!r}")
        else:
            code = int(c or 1) % field.p
        if sign == "-":
            code = field.neg(code)
        terms[e] = field.add(terms.get(e, 0), code)
    return terms


def parse_poly(field, s, budget=None):
    """The polynomial of a t-power text; its deg + 1 coefficients are
    charged against the budget as a "polynomial literal" before any is
    built."""
    terms = parse_terms(field, s)
    if any(e < 0 and c for e, c in terms.items()):
        raise DomainError("negative exponent in a polynomial")
    deg = max((e for e, c in terms.items() if c), default=-1)
    check_budget(deg + 1, budget, "polynomial literal")
    return Poly(field, [terms.get(i, 0) for i in range(deg + 1)])


# ---------------------------------------------------------------------------
# Enumeration, irreducibles, roots.

def gn_size(field, N, budget=None, what="enumeration"):
    """q^N, the number of points of G_N, with power_count's early refusal."""
    if N < 0:
        raise DomainError(f"G_N needs N >= 0, got {N}")
    return power_count(field.q, N, budget, what)


def check_budget(count, budget=None, what="enumeration"):
    limit = DEFAULT_BUDGET if budget is None else budget
    if count > limit:
        shown = count if count < 10 ** PRINT_DIGITS else f"over 10^{PRINT_DIGITS}"
        raise BudgetError(f"{what} of {shown} points exceeds budget {limit}")


def exceeds_unprintably(q, e, limit):
    """Whether the exponent alone shows that q^e > limit, with q^e too long to
    print: since q >= 2, q^e exceeds the limit once e passes its bit length."""
    return e > limit.bit_length() and e * math.log10(q) >= PRINT_DIGITS


def power_count(q, e, budget=None, what="enumeration"):
    """q ** e, for a budget check that follows, or BudgetError before it is built.

    A count that exceeds_unprintably is refused at once and written as "q^e",
    so a huge exponent costs nothing; any other count is built, and a budget
    check keeps its decimal message.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    if exceeds_unprintably(q, e, limit):
        raise BudgetError(f"{what} of {q}^{e} points exceeds budget {limit}")
    return q ** e


def check_power(q, e, budget=None, what="enumeration"):
    """check_budget of q ** e, which it returns; see power_count."""
    count = power_count(q, e, budget, what)
    check_budget(count, budget, what)
    return count


def poly_from_index(field, i, N):
    """The i-th polynomial of G_N; index digits in base q, constant term fastest."""
    q = field.q
    coeffs = []
    for _ in range(N):
        i, r = divmod(i, q)
        coeffs.append(r)
    return Poly(field, coeffs)


def enumerate_GN(field, N, budget=None):
    """All q^N polynomials of degree < N, in index order.

    The order is lexicographic on coefficient vectors with the constant term
    varying fastest, so consumers may partition work by index range and the
    i-th element is poly_from_index(field, i, N).
    """
    total = gn_size(field, N, budget)
    check_budget(total, budget)
    for i in range(total):
        yield poly_from_index(field, i, N)


def irreducibles(field, M, budget=None):
    """All monic irreducible polynomials of degree exactly M, sorted by code."""
    if M < 1:
        raise DomainError("irreducibles need positive degree")
    cached = field._irr_cache.get(M)
    if cached is not None:
        return cached
    check_power(field.q, M, budget, "irreducible search")
    divisors = []
    for d in range(1, M // 2 + 1):
        divisors.extend(irreducibles(field, d, budget))
    out = []
    for i in range(field.q ** M):
        f = Poly(field, _digits(i, field.q, M) + [1])
        if all((f % g).coeffs for g in divisors):
            out.append(f)
    out = tuple(out)
    field._irr_cache[M] = out
    return out


def is_irreducible(f):
    if f.deg is NEG_INF or f.deg < 1:
        return False
    g = f.monic()
    for d in range(1, g.deg // 2 + 1):
        for h in irreducibles(f.field, d):
            if not (g % h).coeffs:
                return False
    return True


def roots_mod(phi, g, budget=None):
    """All x in G_{deg g} with phi(x) = 0 (mod g).

    phi is a sparse exponent map {r: Poly coefficient}, r >= 0.  The empty
    tuple is a valid answer.
    """
    if not isinstance(g, Poly) or g.is_zero():
        raise DomainError("roots_mod needs a nonzero modulus")
    field = g.field
    N = len(g.coeffs) - 1
    check_power(field.q, N, budget, "root search")
    const = phi.get(0, field.poly_zero) % g
    exps = sorted(r for r in phi if r >= 1 and not phi[r].is_zero())
    roots = []
    for x in enumerate_GN(field, N, budget):
        acc = const
        for r in exps:
            acc = (acc + phi[r] * x.mod_pow(r, g)) % g
        if acc.is_zero():
            roots.append(x)
    return tuple(roots)


def poly_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a, b):
    """Monic g plus u, v with u*a + v*b = g."""
    field = a.field
    r0, r1 = a, b
    u0, u1 = field.poly_one, field.poly_zero
    v0, v1 = field.poly_zero, field.poly_one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    c = field.inv(r0.lead())
    return r0.scale(c), u0.scale(c), v0.scale(c)


def poly_crt(pairs):
    """Combine congruences x = r_i (mod m_i) for pairwise coprime moduli."""
    if not pairs:
        raise DomainError("poly_crt needs at least one congruence")
    r, m = pairs[0]
    r = r % m
    for r2, m2 in pairs[1:]:
        g, u, _ = poly_xgcd(m, m2)
        if g.deg != 0:
            raise DomainError("poly_crt moduli are not coprime")
        t = (u * (r2 - r)) % m2
        r = r + m * t
        m = m * m2
        r %= m
    return r
