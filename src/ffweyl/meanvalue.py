"""Exact power-sum mean values.

J_s counts solutions of the simultaneous power-sum equations over G_N, with
the exponent list reduced to its coprime-to-p representatives (raising both
sides to p-th powers makes the dropped equations automatic).  Two methods:
a naive scan over all 2s-tuples, kept deliberately independent as an oracle,
and a count convolution over the residue engine's power table: c_1(v) counts
the x whose power coordinates are v, c_{t+1} = c_t * c_1 adds rows mod p,
and J_s is the sum of c_s(v)^2.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import check_power, enumerate_GN
from .errors import DomainError
from .exponents import check_positive, sprime
from .expsum import BLOCK, _charge_power_table, _power_table, count_stream

#: The naive scan enumerates q^(2sN) tuples; keep it oracle-sized.
NAIVE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ExponentProfile:
    psi: int    # number of reduced exponents
    phi: int    # largest reduced exponent
    kappa: int  # sum of reduced exponents
    s_min: int  # psi*phi + psi, the smallest s the mean-value bound covers


def _reduced(K, p, s=0, N=0):
    """The sorted reduced exponents of K, after checking the arguments."""
    if not K:
        raise DomainError("profile of the empty exponent set")
    check_positive(K)
    if s < 0 or N < 0:
        raise DomainError(f"s and N must be nonnegative, got s={s}, N={N}")
    return sorted(sprime(K, p))


def profile(K, p):
    sp = _reduced(K, p)
    return ExponentProfile(len(sp), max(sp), sum(sp), len(sp) * max(sp) + len(sp))


def js_naive(K, s, N, field, budget=None):
    """Exact solution count by scanning all 2s-tuples; the oracle method."""
    exps = _reduced(K, field.p, s, N)
    limit = NAIVE_BUDGET if budget is None else budget
    check_power(field.q, 2 * s * N, limit, "naive mean-value scan")
    powers = [[x ** k for k in exps] for x in enumerate_GN(field, N)]

    def power_sums(xs):
        return [sum(column, field.poly_zero) for column in zip(*xs)]

    return sum(power_sums(xs[:s]) == power_sums(xs[s:])
               for xs in itertools.product(powers, repeat=2 * s))


def _checked(K, s, N, field, budget):
    """The reduced exponents, after js_histogram's checks of (s, N)."""
    exps = _reduced(K, field.p, s, N)
    tuples = check_power(field.q, s * N, budget, "histogram mean-value scan")
    if tuples > np.iinfo(np.int64).max:
        raise DomainError(f"q^(sN) = {field.q}^{s * N} overflows the int64 counts")
    return exps


def js_histogram(K, s, N, field, budget=None):
    """Exact solution count as the sum of squared power-sum counts.

    Rows are the exact coordinate vectors of (x^k for k in K'), read from
    the power table one block of rows of G_N (at most BLOCK entries, or one
    row) at a time and counted into c_1 as they come; counts are int64,
    exact because no count exceeds q^(sN), which is checked to stay below
    2^63.
    """
    exps = _checked(K, s, N, field, budget)
    # the table is charged over all of G_N, an enumeration under the default
    # budget, and built one block of rows at a time
    points = check_power(field.q, N)
    _charge_power_table(field, N, exps, points, budget)
    width = field.m * sum(k * max(N - 1, 0) + 1 for k in exps)
    step = max(1, BLOCK // width)
    tables = (_power_table(field, N, exps, np.arange(a, min(a + step, points)))
              for a in range(0, points, step))
    unit = count_stream(((np.concatenate([table[k] for k in exps], axis=1).astype(np.int8),
                          None) for table in tables), field.p)
    counts = (np.zeros((1, width), dtype=np.int8), np.ones(1, dtype=np.int64))
    for _ in range(s):
        counts = _convolve(counts, unit, field.p)
    return sum(c * c for c in counts[1].tolist())


def _convolve(counts, unit, p):
    """Counts of the row sums mod p of all pairs of rows, one from each count,
    weighted by the product of their counts.

    Pairs are formed at most BLOCK at a time, and counted as one stream of
    entries below p.
    """
    rows, weights = counts
    unit_rows, unit_weights = unit
    step = max(1, BLOCK // len(unit_rows))
    pairs = ((((rows[a:a + step, None] + unit_rows) % p).reshape(-1, rows.shape[1]),
              (weights[a:a + step, None] * unit_weights).ravel())
             for a in range(0, len(rows), step))
    return count_stream(pairs, p)


def growth_table(K, s, N_list, field, budget=None):
    """Rows (N, J_s, J_s / q^(N*(2s-kappa))): exploratory, never pass/fail."""
    prof = profile(K, field.p)
    for N in N_list:  # in the list's order, and before any count: a long range fails at once
        _checked(K, s, N, field, budget)
    rows = []
    for N in sorted(N_list):
        j = js_histogram(K, s, N, field, budget=budget)
        scale = Fraction(field.q) ** (N * (2 * s - prof.kappa))
        rows.append((N, j, Fraction(j) / scale))
    return rows
