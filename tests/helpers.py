"""Seeded generators and slow reference loops shared across the test modules."""
import re
from fractions import Fraction

import numpy as np

from ffweyl import equidist
from ffweyl.algebra import (PRINT_DIGITS, Field, Poly, check_budget, check_power, gn_size,
                            poly_from_index, power_count)
from ffweyl.contfrac import (CFExpansion, ProbeEntry, RationalityReport, _last_within,
                             cf_expand, convergents, quality_bound)
from ffweyl.errors import DomainError, FFWeylError, HypothesisError, PrecisionError
from ffweyl.exponents import lucas_binom
from ffweyl.expsum import (BLOCK, CharSum, ExpPoly, _check_floor, _digit_rows_direct,
                           _pass_checks, _trace_digits, count_rows, weyl_sum)
from ffweyl.kinfty import (RationalK, TruncSeries, kadd, kmul_poly, kmul_scalar,
                           quotient_digits)
from ffweyl.sieve import TmnResult, gm_build


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


def _rand_coeff_text(rng, F, vectors=True):
    k = rng.randrange(4)
    if k == 0:
        return ""
    if k == 1 or not vectors:
        return str(rng.randrange(2 * F.p))
    return "[" + ",".join(str(rng.randrange(F.p)) for _ in range(F.m)) + "]"


def _rand_term(rng, F, var, lo, hi, vectors=True):
    """c*var^e with e in [lo, hi], in one of the spellings the readers take."""
    c = _rand_coeff_text(rng, F, vectors)
    e = rng.randrange(lo, hi + 1)
    if e == 0 and rng.random() < 0.5:
        return c or "1"
    v = var if e == 1 and rng.random() < 0.5 else f"{var}^{e}"
    return c + (rng.choice(["*", "", " * ", " "]) if c else "") + v


def _rand_sum(rng, terms):
    out = ("-" if rng.random() < 0.3 else "") + terms[0]
    for term in terms[1:]:
        out += rng.choice(["+", "-", " + ", " - "]) + term
    return out


def _rand_tpoly(rng, F, lo=0, hi=8, count=4):
    return _rand_sum(rng, [_rand_term(rng, F, "t", lo, hi)
                           for _ in range(rng.randrange(1, count + 1))])


def rand_literal(rng, F, kind):
    """A well-formed literal: 't' a sum of t-terms with exponents in [-6, 8],
    'x' a modulus of degree m, 'u' a u-polynomial with F_q[t] coefficients,
    'k' a rational, a series with an O-term, or a polynomial."""
    if kind == "t":
        return _rand_tpoly(rng, F, -6, 8)
    if kind == "x":
        return _rand_sum(rng, [f"x^{F.m}"] + [_rand_term(rng, F, "x", 0, F.m - 1, False)
                                             for _ in range(rng.randrange(3))])
    if kind == "u":
        terms = []
        for _ in range(rng.randrange(1, 4)):
            c = rng.choice(["", f"({_rand_tpoly(rng, F, 0, 4, 2)})", "t",
                            str(rng.randrange(1, F.p + 2))])
            e = rng.randrange(5)
            if e == 0:
                terms.append(c or "1")
            else:
                v = "u" if e == 1 else f"u^{e}"
                terms.append(c + (rng.choice(["*", ""]) if c else "") + v)
        return _rand_sum(rng, terms)
    k = rng.randrange(3)
    if k == 0:
        return _rand_tpoly(rng, F) + rng.choice([" / ", "/"]) + _rand_tpoly(rng, F)
    if k == 1:
        floor = -rng.randrange(12)
        body = _rand_tpoly(rng, F, floor, 3) + " + " if rng.random() < 0.8 else ""
        return f"{body}O(t^{floor})"
    return _rand_tpoly(rng, F)


def mutate_literal(rng, s, alphabet="tux^*+-[](), 0123456789O/"):
    """s after one or two deletions, insertions or replacements of a character."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(s) + 1)
        k = rng.randrange(3)
        if k == 0:
            s = s[:i] + s[i + 1:]
        else:
            s = s[:i] + rng.choice(alphabet) + s[i + (k == 2):]
    return s


def ax_katz_exponent(f, N, depth=None):
    """An exponent v such that p^v divides every count of the histogram of f
    over G_N (depth None) and every cell of its depth-`depth` cylinder table.

    Let d be the largest base-p digit sum of an exponent r >= 1 of f and
    n = N m.  Each x^(p^i) is F_p-linear in the n coordinates of x, so every
    coordinate of every digit of f(x), and Tr res f(x), is a polynomial of
    degree at most d in them.  By Ax, p^(ceil(n/d) - 1) divides the number
    of zeros of one such polynomial, so every histogram count; by Katz,
    p^ceil((n - D m d)/d) divides the common zeros of the D m digit
    coordinates of a depth-D cell.  A constant f (d = 0) puts all p^n points
    in one count or cell.
    """
    p, m = f.field.p, f.field.m
    n = N * m
    d = 0
    for r, _ in f.terms:
        s = 0
        while r:
            r, digit = divmod(r, p)
            s += digit
        d = max(d, s)
    if d == 0:
        return n
    polys = 1 if depth is None else depth * m
    return max(-(-(n - polys * d) // d), 0)


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


def field_tables_by_poly(F):
    """The add, neg and mul tables and the product fold of an extension field,
    built from Poly arithmetic over its prime subfield: each code is the code
    of its coordinate polynomial, products are reduced by a long division
    by the modulus, and fold[i] is the code of the polynomial whose
    coefficients are the 2m - 1 base-p digits of i, reduced the same way."""
    p, m = F.p, F.m
    elems = [poly_from_index(F._prime, a, m) for a in range(F.q)]
    mod = Poly(F._prime, F.modulus)
    add = [[(a + b).code() for b in elems] for a in elems]
    neg = [(-a).code() for a in elems]
    mul = [[(a * b % mod).code() for b in elems] for a in elems]
    fold = [(poly_from_index(F._prime, i, 2 * m - 1) % mod).code()
            for i in range(p ** (2 * m - 1))]
    return add, neg, mul, bytes(fold + [0] * (256 - len(fold)))


def poly_mul_schoolbook(a, b):
    """a * b by the schoolbook loop over pairs of coefficients."""
    field = a.field
    if a.is_zero() or b.is_zero():
        return field.poly_zero
    fm, fa = field._mul, field._add
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            row = fm[ai]
            for j, bj in enumerate(b.coeffs):
                if bj:
                    out[i + j] = fa[out[i + j]][row[bj]]
    return Poly(field, out)


def poly_divmod_schoolbook(a, b):
    """divmod(a, b) by long division, one leading term at a time."""
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    field = a.field
    fm, fa, fn = field._mul, field._add, field._neg
    inv_lead = field.inv(b.lead())
    db = len(b.coeffs)
    r = list(a.coeffs)
    q = [0] * max(len(r) - db + 1, 0)
    while len(r) >= db:
        c = fm[r[-1]][inv_lead]
        k = len(r) - db
        q[k] = c
        row = fm[c]
        for j, bj in enumerate(b.coeffs):
            r[k + j] = fa[r[k + j]][fn[row[bj]]]
        while r and r[-1] == 0:
            r.pop()
    return Poly(field, q), Poly(field, r)


def quotient_digits_register(num, den, lo, hi):
    """quotient_digits by long division on code lists: before the digit at
    t^e is read, the register s holds floor(num / t^(e+1)) mod den, whose top
    code is that digit.  Stepping to t^(e-1) shifts s up, brings in the
    coefficient of num at t^e and cancels the top against den; only the top
    e - lo codes are kept, because the digits left to read never reach the
    others."""
    if hi < lo:
        return []
    D = den.deg
    if D == 0:  # den = 1
        return [num.coeff(e) for e in range(lo, hi + 1)]
    fa, fm, fn = den.field._add, den.field._mul, den.field._neg
    top = max(hi, -1)
    s = num.coeffs[top + 1:]  # already reduced when its degree is below den's
    s = list(s if len(s) <= D else (Poly(den.field, s) % den).coeffs)
    s += [0] * (D - len(s))
    out = []
    for e in range(top, lo - 1, -1):
        c = s[-1]
        out.append(c)
        w = min(D, e - lo)
        row = fm[c]
        s = [fa[a][fn[row[b]]]
             for a, b in zip(([num.coeff(e)] + s)[-w - 1:-1], den.coeffs[D - w:D])]
    return out[top - hi:][::-1]


def quotient_digits_by_division(num, den, lo, hi):
    """Digit codes of num/den at exponents lo..hi inclusive, ascending; den monic.

    The digit at t^(lo+k) of num/den is the coefficient at t^k of the
    polynomial part of num t^(-lo) / den, so the window is a slice of one
    long division, zero-padded above its top.
    """
    if hi < lo:
        return []
    if lo < 0:
        digits = (num.shift(-lo) // den).coeffs[:hi - lo + 1]
    else:
        digits = (num // den).coeffs[lo:hi + 1]
    return list(digits) + [0] * (hi - lo + 1 - len(digits))


def rationality_probe_full(alpha, kappa, N_list, max_terms=128):
    """rationality_probe over the full expansion and convergent table."""
    kappa = Fraction(kappa)
    if kappa <= 1:
        raise DomainError("kappa must exceed 1")
    cf = cf_expand(alpha, max_terms)
    table = convergents(cf)
    entries = []
    for N in sorted(N_list):
        if N < 1:
            raise DomainError("N must be positive")
        threshold = -kappa * N
        nstar = _last_within(table, N)
        a, g = table.pairs[nstar]
        if nstar + 1 < len(table.pairs):
            quality = -table.pairs[nstar + 1][1].deg
            status = "hit" if quality <= threshold else "miss"
            entries.append(ProbeEntry(N, status, nstar, a, g, quality))
            continue
        kind, val = quality_bound(alpha, a, g)
        if kind == "exact" and val <= threshold:
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val))
        elif kind == "below" and val - 1 <= threshold:
            entries.append(ProbeEntry(N, "hit", nstar, a, g, val - 1))
        else:
            # a deeper convergent could still qualify; not decidable here
            entries.append(ProbeEntry(N, "undecided", nstar, a, g, None))
    return RationalityReport(kappa, tuple(entries))


def tmap_rational_by_period(a):
    """tmap of a rational by walking its digit period: the digits of b/den at
    t^-1, t^-(p+1), ... are the top coefficients of b u^j mod den for
    u = t^p mod den, which repeat after a head of mu and a period of lam, so
    T(b/den) is head/t^mu + rep/(t^mu (t^lam - 1))."""
    field = a.field
    p, unfrob = field.p, field.frobenius[-1]
    den = a.den
    b = a.num % den
    if b.is_zero():
        return RationalK(field.poly_zero)
    D = den.deg
    u = field.poly_t.mod_pow(p, den)
    seen = {}
    digits = []
    s = b
    while s not in seen:
        seen[s] = len(digits)
        digits.append(unfrob[s.coeff(D - 1)])
        s = (s * u) % den
    mu = seen[s]
    lam = len(digits) - mu
    hc = [0] * mu
    for i in range(1, mu + 1):
        hc[mu - i] = digits[i - 1]
    rc = [0] * lam
    for j in range(1, lam + 1):
        rc[lam - j] = digits[mu + j - 1]
    head = Poly(field, hc)
    rep = Poly(field, rc)
    t_lam = field.poly_one.shift(lam) - field.poly_one
    return RationalK(head * t_lam + rep, field.poly_one.shift(mu) * t_lam)


def twist_counts(traces, sizes, p):
    """The histogram counts of every twist of G_D, in index order from 0, in
    blocks, at points whose distinct rows of the first D log_p(q) basis-twist
    traces are traces, with sizes copies each.  Twist t has coordinates
    floor(t / p^c) mod p, and its residue is their dot product with the
    traces, mod p.  A block holds the p^c twists that share their higher
    coordinates, with c as large as keeps its residues within BLOCK, so the
    lower part of the residues is one product for every block.
    """
    w = low = traces.shape[1]
    while low and p ** low * len(sizes) > BLOCK:
        low -= 1
    base = np.arange(p ** low)[:, None] // p ** np.arange(low) % p @ traces[:, :low].T
    for a in range(p ** (w - low)):
        high = np.array([a // p ** c % p for c in range(w - low)], dtype=np.int64)
        res = (base + traces[:, low:] @ high) % p  # [twist, distinct row]
        yield ((res[:, None] == np.arange(p)[:, None]) @ sizes).tolist()


def scan_row(field, N, D, depth, traces, sizes):
    """The ScanRow of G_N, whose distinct rows of the first max(D, depth)
    log_p(q) basis-twist traces are traces, with sizes copies each: every
    twist histogram and the cylinder counts are read off those counts, the
    cylinders through their digit codes and a dict of prefixes."""
    p, m = field.p, field.m
    counts = (tuple(row) for block in twist_counts(traces[:, :D * m], sizes, p) for row in block)
    next(counts)  # the zero twist is not scanned
    first = {}  # each distinct histogram -> the first twist that has it
    for mi, row in enumerate(counts, 1):
        first.setdefault(row, mi)
    hists = [(CharSum(p, row), mi) for row, mi in first.items()]
    sup = max(hist.normalized() for hist, _ in hists)
    witness = next((str(poly_from_index(field, mi, D))
                    for hist, mi in hists if hist.is_full()), None)
    disc = None
    if depth is not None:
        prefixes = _trace_digits(field, traces[:, :depth * m])
        if D > depth:  # rows that differ past the depth share a prefix
            prefixes, sizes = count_rows(prefixes, sizes)
        counts = dict(zip(map(tuple, prefixes.tolist()), sizes.tolist()))
        # max over every prefix of |count q^depth - q^N|, an empty one counting 0
        cells, total = field.q ** depth, field.q ** N
        worst = max(abs(c * cells - total) for c in counts.values())
        if len(counts) < cells:
            worst = max(worst, total)
        disc = Fraction(worst, total * cells)
    return equidist.ScanRow(N, sup, witness, disc)


def direct_traces(f, N, width):
    """The first `width` basis-twist traces, member s*m + k = Tr(e_k d_s),
    at every point of G_N, from the digit rows d_0, d_1, ... of the direct
    path; width is a multiple of m."""
    field = f.field
    p, m = field.p, field.m
    digits = _digit_rows_direct(f, N, width // m, 0, field.q ** N)
    trace, mul = field._trace, field._mul
    traces = np.array([[trace[mul[p ** k][d]] for k in range(m)] for d in range(field.q)],
                      dtype=np.int64)  # [code, k]
    return traces[digits].reshape(len(digits), width)


def weyl_scan_loop(f, N_list, D, depth=None, budget=None):
    """weyl_scan with one pass per N, in ascending order: each N checks its
    twist floors, its depth and its engine pass, then counts the trace rows
    of the direct path with count_rows, and reads its row off them."""
    if D < 1:
        raise DomainError("the twist bound D must be positive")
    if depth is not None and depth < 1:
        raise DomainError("depth must be at least 1")
    field = f.field
    m = field.m
    twists = power_count(field.q, D, budget, "twist scan") - 1
    for N in N_list:  # as weyl_scan charges its one pass over G_{max N}
        check_budget(gn_size(field, N, budget, "twist scan") * twists, budget, "twist scan")
    if depth is not None:
        widest = gn_size(field, max(N_list, default=0), budget, "cylinder count")
        check_budget(widest * depth * m, budget, "cylinder count")
        if field.q ** min(depth, 4 * PRINT_DIGITS) >= 10 ** (PRINT_DIGITS - 1):
            raise DomainError(f"the depth-{depth} discrepancy denominator "
                              f"{field.q}^{depth} has at least {PRINT_DIGITS} digits")
    rows = []
    width = max(D, depth or 1) * m
    for N in sorted(N_list):
        for d in range(D):
            for r, c in f.terms:
                _check_floor(c, r, N, 1, d)
        if depth is not None:
            for r, c in f.terms:
                _check_floor(c, r, N, depth)
        _pass_checks(f, width, N, 0, field.q ** N, budget)
        counted = count_rows(direct_traces(f, N, width))
        rows.append(scan_row(field, N, D, depth, *counted))
    flags = {"failure_certificate": any(r.witness is not None for r in rows)}
    return equidist.Verdict(tuple(rows), flags)


def t_mn_loop(phi, alpha, M, N_list, field, gm=None, mode="literal", budget=None):
    """t_mn_rows with one substitution and one weyl_sum per N, in list order."""
    if gm is None:
        gm = gm_build(field, M, phi, mode=mode, budget=budget)
    if gm.root is None:
        raise HypothesisError(f"modulus has no root: {gm.reason}")
    out = []
    for N in N_list:
        check_power(field.q, N, budget, "congruence average")
        f = ExpPoly(field, {r: kmul_poly(alpha, c) for r, c in phi.items()})
        f = f.substitute(gm.modulus, gm.root)
        if N == 0:  # G_0 = {0} reads the constant term alone
            f = ExpPoly(field, {0: f.constant()})
        hist = weyl_sum(f, N, budget=budget)
        exact_one = hist.is_full() and hist.full_residue() == 0
        out.append(TmnResult(hist, hist.normalized(), exact_one, gm.modulus.deg, gm.mode))
    return out


# ---------------------------------------------------------------------------
# The literal readers as they stood before the shared term reader
# (algebra.read_terms), kept as oracles for the equivalence tests: each
# reader's code is unchanged but for the names it calls.

def split_terms_oracle(s):
    """Split on top-level +/- signs; '[...]' and '(...)' groups and '^-'
    exponents stay intact."""
    out = []
    sign, buf, depth = "+", [], 0
    prev = ""
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
        else:
            buf.append(ch)
        if not ch.isspace():
            prev = ch
    if any(not c.isspace() for c in buf):
        out.append((sign, "".join(buf)))
    if not out:
        raise DomainError("empty polynomial text")
    return out


def parse_fp_poly_oracle(s, p):
    """Parse a monic modulus like 'x^2+x+1' into an F_p coefficient tuple."""
    coeffs = {}
    for sign, term in split_terms_oracle(s):
        mt = re.fullmatch(r"(?:(\d+)\s*\*?\s*)?(x(?:\^(\d+))?)?", term.strip())
        if mt is None or not term.strip():
            raise DomainError(f"bad modulus term {term!r}")
        c = int(mt.group(1)) if mt.group(1) else 1
        if mt.group(2) is None:
            e = 0
        else:
            e = int(mt.group(3)) if mt.group(3) else 1
        c = (-c if sign == "-" else c) % p
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    deg = max((e for e, c in coeffs.items() if c), default=0)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


_COEFF_VEC = re.compile(r"\[([^\]]*)\]")


def parse_terms_oracle(field, s):
    """Parse the t-power syntax into {exponent: code}; exponents may be negative."""
    terms = {}
    for sign, raw in split_terms_oracle(s):
        term = raw.strip()
        if not term:
            raise DomainError("empty term in polynomial text")
        code = None
        mvec = _COEFF_VEC.match(term)
        if mvec:
            vals = [int(v) for v in mvec.group(1).split(",")] if mvec.group(1).strip() else []
            if len(vals) != field.m:
                raise DomainError(f"coefficient vector {mvec.group(0)} needs {field.m} entries")
            code = field.from_coords(list(reversed(vals)))
            term = term[mvec.end():].strip()
        mt = re.fullmatch(r"(?:(\d+)\s*)?(?:\*\s*)?(t(?:\^(-?\d+))?)?", term)
        if mt is None:
            raise DomainError(f"bad polynomial term {raw!r}")
        if mt.group(1) is not None:
            if code is not None:
                raise DomainError(f"two coefficients in term {raw!r}")
            code = int(mt.group(1)) % field.p
        if code is None:
            if mt.group(2) is None:
                raise DomainError(f"bad polynomial term {raw!r}")
            code = 1
        if mt.group(2) is None:
            e = 0
        else:
            e = int(mt.group(3)) if mt.group(3) else 1
        if sign == "-":
            code = field.neg(code)
        terms[e] = field.add(terms.get(e, 0), code)
    return terms


def parse_poly_oracle(field, s):
    terms = parse_terms_oracle(field, s)
    if any(e < 0 and c for e, c in terms.items()):
        raise DomainError("negative exponent in a polynomial")
    deg = max((e for e, c in terms.items() if c), default=-1)
    return Poly(field, [terms.get(i, 0) for i in range(deg + 1)])


def parse_upoly_oracle(field, s):
    """Parse a u-polynomial with F_q[t] coefficients, e.g. '(t^2+1)*u^3 + u + t'."""
    out = {}
    for sign, term in split_terms_oracle(s):
        term = term.strip()
        upos = None
        depth = 0
        for i, ch in enumerate(term):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "u" and depth == 0:
                upos = i
                break
        if upos is None:
            exp = 0
            coeff_text = term
        else:
            rest = term[upos + 1:].strip()
            exp = 1
            if rest.startswith("^"):
                exp = int(rest[1:])
            elif rest:
                raise FFWeylError(f"bad u-term tail {rest!r}")
            coeff_text = term[:upos].strip()
            if coeff_text.endswith("*"):
                coeff_text = coeff_text[:-1].strip()
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        coeff = parse_poly_oracle(field, coeff_text) if coeff_text else field.poly_one
        if sign == "-":
            coeff = -coeff
        out[exp] = out.get(exp, field.poly_zero) + coeff
    return {e: c for e, c in out.items() if not c.is_zero()}


def parse_kelem_oracle(field, s):
    s = s.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        return RationalK(parse_poly_oracle(field, num_s), parse_poly_oracle(field, den_s))
    if "O(" in s:
        body, otail = s.rsplit("O(", 1)
        otail = otail.strip()
        if not otail.endswith(")"):
            raise DomainError("unterminated O-term")
        inner = otail[:-1].strip()
        if inner in ("1", "t^0"):
            floor = 0
        else:
            if not inner.startswith("t^"):
                raise DomainError(f"bad O-term {inner!r}")
            floor = int(inner[2:])
        body = body.strip()
        if body.endswith("+"):
            body = body[:-1].strip()
        terms = parse_terms_oracle(field, body) if body else {}
        return TruncSeries.from_digits(field, floor, terms)
    return RationalK(parse_poly_oracle(field, s))
