"""Brute-force power-sum mean values.

J_s counts solutions of the simultaneous power-sum equations over G_N, with
the exponent list reduced to its coprime-to-p representatives (raising both
sides to p-th powers makes the dropped equations automatic).  Two methods:
a naive scan over all 2s-tuples, kept deliberately independent as an oracle,
and a histogram method that buckets s-tuples by their power-sum key and sums
squared bucket sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import check_power, enumerate_GN
from .errors import DomainError
from .exponents import sprime

#: The naive scan enumerates q^(2sN) tuples; keep it oracle-sized.
NAIVE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ExponentProfile:
    psi: int    # number of reduced exponents
    phi: int    # largest reduced exponent
    kappa: int  # sum of reduced exponents
    s_min: int  # psi*phi + psi, the smallest s the mean-value bound covers


def profile(K, p):
    if not K:
        raise DomainError("profile of the empty exponent set")
    sp = sorted(sprime(K, p))
    return ExponentProfile(len(sp), max(sp), sum(sp), len(sp) * max(sp) + len(sp))


def _power_vectors(field, exps, N):
    """x -> (x^i for i in exps) for every x in G_N, in enumeration order."""
    out = []
    for x in enumerate_GN(field, N):
        out.append(tuple(x ** i for i in exps))
    return out


def _tuple_key(vecs, idxs, field, n_exps):
    acc = [field.poly_zero] * n_exps
    for i in idxs:
        vec = vecs[i]
        for k in range(n_exps):
            acc[k] = acc[k] + vec[k]
    return tuple(acc)


def js_naive(K, s, N, field, budget=None):
    """Exact solution count by scanning all 2s-tuples; the oracle method."""
    limit = NAIVE_BUDGET if budget is None else budget
    check_power(field.q, 2 * s * N, limit, "naive mean-value scan")
    exps = sorted(sprime(K, field.p))
    vecs = _power_vectors(field, exps, N)
    n = len(vecs)
    count = 0
    idx = [0] * (2 * s)
    total = n ** (2 * s)
    for code in range(total):
        c = code
        for slot in range(2 * s):
            idx[slot] = c % n
            c //= n
        left = _tuple_key(vecs, idx[:s], field, len(exps))
        right = _tuple_key(vecs, idx[s:], field, len(exps))
        if left == right:
            count += 1
    return count


def js_histogram(K, s, N, field, budget=None):
    """Exact solution count as the sum of squared power-sum-bucket sizes.

    Keys are exact polynomial tuples; no hashing shortcuts.
    """
    if s < 0 or N < 0:
        raise DomainError(f"s and N must be nonnegative, got s={s}, N={N}")
    check_power(field.q, s * N, budget, "histogram mean-value scan")
    exps = sorted(sprime(K, field.p))
    vecs = _power_vectors(field, exps, N)
    n = len(vecs)
    buckets = {}
    idx = [0] * s
    for code in range(n ** s):
        c = code
        for slot in range(s):
            idx[slot] = c % n
            c //= n
        key = _tuple_key(vecs, idx, field, len(exps))
        buckets[key] = buckets.get(key, 0) + 1
    return sum(b * b for b in buckets.values())


def growth_table(K, s, N_list, field, budget=None):
    """Rows (N, J_s, J_s / q^(N*(2s-kappa))): exploratory, never pass/fail."""
    prof = profile(K, field.p)
    rows = []
    for N in sorted(N_list):
        j = js_histogram(K, s, N, field, budget=budget)
        scale = Fraction(field.q) ** (N * (2 * s - prof.kappa))
        rows.append((N, j, Fraction(j) / scale))
    return rows
