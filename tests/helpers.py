"""Seeded generators and slow reference loops shared across the test modules."""
import numpy as np

from ffweyl.algebra import Field, Poly, poly_from_index
from ffweyl.contfrac import CFExpansion
from ffweyl.errors import PrecisionError
from ffweyl.exponents import lucas_binom
from ffweyl.expsum import ExpPoly
from ffweyl.kinfty import (RationalK, TruncSeries, kadd, kmul_poly, kmul_scalar,
                           quotient_digits)


def field(q, modulus=None):
    return Field.parse(f"q={q}" if modulus is None else f"q={q} modulus={modulus}")


def every_field():
    """The seven supported q and the two non-default moduli."""
    return [field(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [
        field(8, "x^3+x^2+1"), field(9, "x^2+x+2")]


def rand_poly(rng, F, max_deg):
    return poly_from_index(F, rng.randrange(F.q ** (max_deg + 1)), max_deg + 1)


def rand_nonzero_poly(rng, F, max_deg):
    return poly_from_index(F, rng.randrange(1, F.q ** (max_deg + 1)), max_deg + 1)


def rand_monic(rng, F, deg):
    low = poly_from_index(F, rng.randrange(F.q ** deg), deg).coeffs
    return Poly(F, list(low) + [0] * (deg - len(low)) + [1])


def rand_rational(rng, F, max_deg):
    return RationalK(rand_poly(rng, F, max_deg), rand_nonzero_poly(rng, F, max_deg))


def rand_series(rng, F, floor, top=1):
    return TruncSeries.from_digits(
        F, floor, {e: rng.randrange(F.q) for e in range(floor, top + 1)})


def rand_completion(rng, s):
    """s with 1 to 11 random digits added below its floor (rationals as they are)."""
    if isinstance(s, RationalK):
        return s
    floor = s.floor - rng.randrange(1, 12)
    return TruncSeries.from_digits(s.field, floor, {
        e: s.digit(e) if e >= s.floor else rng.randrange(s.field.q)
        for e in range(floor, s.top + 1)})


def rand_kelem(rng, F, max_deg=3, floor=-40):
    if rng.random() < 0.5:
        return rand_rational(rng, F, max_deg)
    return rand_series(rng, F, floor)


def rand_exppoly(rng, F, max_exp=6, max_terms=3, floor=-40, with_const=0.4):
    coeffs = {r: rand_kelem(rng, F, floor=floor)
              for r in rng.sample(range(1, max_exp + 1),
                                  rng.randrange(1, max_terms + 1))}
    if rng.random() < with_const:
        coeffs[0] = rand_kelem(rng, F, floor=floor)
    return ExpPoly(F, coeffs)


def series_invert(s):
    """1/s for a series with floor <= 0 and certified order n; result floor is
    floor - 2n.

    A perturbation of s below its floor moves 1/s by at most q^(floor-1-2n),
    so digits of the inverse above floor - 2n are trustworthy and nothing
    deeper is emitted.  With P the polynomial of the digit list and c the
    inverse of its lead, 1/s = c t^(-floor) / (c P), a monic division.
    """
    field = s.field
    n = s.ord()
    c = field.inv(s.coeffs[-1])
    out_floor = s.floor - 2 * n
    return TruncSeries(field, out_floor, quotient_digits(
        field.poly_one.shift(-s.floor).scale(c), Poly(field, s.coeffs).scale(c),
        out_floor, -n))


def cf_expand_oracle(alpha, max_terms=64):
    """Continued-fraction quotients of a truncated series, one inversion per
    step: each quotient is the polynomial part of the current series, whose
    fractional part is inverted by a long division for the next one."""
    if alpha.floor > 0:
        raise PrecisionError("floor above 0; not even the first quotient is known")
    cur = alpha
    quotients = []
    while True:
        if len(quotients) == max_terms:
            stopped = "max-terms"
            break
        if cur.floor > 0:
            stopped = "precision"
            break
        quotients.append(cur.poly_part())
        if cur.floor > -1:
            stopped = "precision"
            break
        tail = cur.frac()
        if tail.is_zero_to_floor():
            stopped = "precision"
            break
        cur = series_invert(tail)
    return CFExpansion(tuple(quotients), stopped)


def substitute_oracle(f, a, b):
    """f(a*u + b) with one Lucas binomial per j = 0..r of each exponent r."""
    p = f.field.p
    coeffs = {}
    for r, c in f.terms:
        for j in range(r + 1):
            binom = lucas_binom(r, j, p)
            if binom:
                term = kmul_scalar(kmul_poly(c, a ** j * b ** (r - j)), binom)
                coeffs[j] = kadd(coeffs[j], term) if j in coeffs else term
    return ExpPoly(f.field, coeffs)


def dense_power_table(field, n, top, rows):
    """Coordinates of x^0, ..., x^top side by side, for the first `rows` points
    of G_n, each x^j as x^(j-1) * x by one window per coefficient of x.

    x^j has j * max(n - 1, 0) + 1 coefficients; column m*a + i of its block
    holds coordinate i of the coefficient of t^a.  Returns the table and the
    first column of each block (plus the end of the last).
    """
    p, q, m = field.p, field.q, field.m
    idx = np.arange(rows)[:, None]
    one = np.zeros((rows, m), dtype=np.int64)
    one[:, 0] = 1
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
