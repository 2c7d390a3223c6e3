"""Seeded operation lists for the three benchmark workloads.

``generate(workload, seed)`` returns a list of operations.  Every
coefficient, kernel seed, twist, shift set, family and slice position comes
from ``random.Random`` seeded with (workload, seed), and nothing here imports
the program, so the same seed gives a byte-identical list (``dump``) on every
commit.  The shape of each operation (field, N, exponents, coefficient form)
is fixed per workload; the seed only chooses values, so the cost of a pass
barely depends on the seed.

An operation is a JSON-able dict:

* ``id``, ``kind`` ("cli" or "lib"), ``exit`` (expected exit code) and
  ``points`` (elements the operation enumerates, for ``points_per_s``);
* for "cli": ``argv``, handed to ``ffweyl.cli.main`` unchanged;
* for "lib": ``fn`` and ``args``, a library call in ``libops.py``;
* ``spec``: the generated parameters again, for the checker;
* optional ``tag``: marks the ``--threads`` twin scans.
"""
from __future__ import annotations

import json
import random

WORKLOADS = ("weyl_bulk", "scan_twists", "exact_arith")

#: The seed whose outputs are pinned by digests.json.
DEFAULT_SEED = 0

#: q -> (p, m)
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}

#: Largest oracle slice the checker evaluates per sum.
SLICE = 1 << 10


# ---------------------------------------------------------------------------
# Text forms, written independently of the program's own formatter.

def fmt_elem(q, code):
    p, m = FIELDS[q]
    if m == 1:
        return str(code)
    coords = []
    for _ in range(m):
        code, c = divmod(code, p)
        coords.append(c)
    return "[" + ",".join(str(c) for c in reversed(coords)) + "]"


def fmt_terms(q, terms):
    """{exponent: code} in the t-power syntax, highest exponent first."""
    parts = []
    for e in sorted((e for e, c in terms.items() if c), reverse=True):
        cs = fmt_elem(q, terms[e])
        if e == 0:
            parts.append(cs)
        else:
            te = "t" if e == 1 else f"t^{e}"
            parts.append(te if cs == "1" else f"{cs}*{te}")
    return " + ".join(parts) if parts else "0"


def fmt_poly(q, coeffs):
    return fmt_terms(q, dict(enumerate(coeffs)))


# ---------------------------------------------------------------------------
# Random elements.

def rand_poly(rng, q, n):
    """Coefficients of a polynomial of degree < n (possibly zero)."""
    return [rng.randrange(q) for _ in range(n)]


def rand_full_poly(rng, q, n):
    """Coefficients of a polynomial of degree exactly n - 1 (zero for n = 0)."""
    if n == 0:
        return []
    return rand_poly(rng, q, n - 1) + [rng.randrange(1, q)]


def rand_monic(rng, q, deg):
    return rand_poly(rng, q, deg) + [1]


def _has_root(coeffs, p):
    return any(sum(c * x ** i for i, c in enumerate(coeffs)) % p == 0
               for x in range(p))


def rand_irreducible(rng, p, deg):
    """A monic irreducible of degree 2 or 3 over the prime field F_p."""
    if deg not in (2, 3):
        raise ValueError("root test decides irreducibility only for degree 2, 3")
    while True:
        c = rand_monic(rng, p, deg)
        if not _has_root(c, p):
            return c


def rand_series(rng, q, floor, top=0):
    digits = {e: rng.randrange(q) for e in range(floor, top + 1)}
    body = fmt_terms(q, digits)
    text = f"O(t^{floor})" if body == "0" else f"{body} + O(t^{floor})"
    return {"series": text, "floor": floor}


def rand_rat(rng, q, den_deg, den=None):
    den = den if den is not None else rand_monic(rng, q, den_deg)
    num = rand_full_poly(rng, q, len(den) - 1)
    return {"rat": [fmt_poly(q, num), fmt_poly(q, den)]}


def rand_coeff(rng, q, form, floor):
    if form == "rat":
        return rand_rat(rng, q, 3)
    if form == "series":
        return rand_series(rng, q, floor)
    if form == "kernel":
        return {"kernel": {"floor": floor, "seed": rng.randrange(1 << 30)}}
    raise ValueError(f"unknown coefficient form {form!r}")


def sum_floor(r, N, depth=1):
    """Series floor residue-exact over G_N at the given depth, plus margin."""
    return -(depth + r * max(N - 1, 0)) - 8


def exppoly(rng, q, shape, N, depth=1):
    """ExpPoly JSON for [(exponent, form), ...] over G_N."""
    terms = [{"exp": r, "coeff": rand_coeff(rng, q, form, sum_floor(r, N, depth))}
             for r, form in shape]
    return {"field": f"q={q}", "terms": terms}


def _js(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _slice(rng, total):
    width = min(SLICE, total)
    lo = rng.randrange(total - width + 1)
    return [lo, lo + width]


# ---------------------------------------------------------------------------
# Operation builders.

def weyl_op(rng, oid, q, N, shape, m_deg=None):
    f = exppoly(rng, q, shape, N)
    argv = ["weyl", "--field", f"q={q}", "--f", _js(f), "--N", str(N)]
    spec = {"q": q, "N": N, "f": f, "m": None, "slice": _slice(rng, q ** N)}
    if m_deg is not None:
        spec["m"] = fmt_poly(q, rand_full_poly(rng, q, m_deg + 1))
        argv += ["--m", spec["m"]]
    return {"id": oid, "kind": "cli", "argv": argv, "exit": 0,
            "points": q ** N, "spec": spec}


def slice_op(rng, oid, q, N, shape, width):
    f = exppoly(rng, q, shape, N)
    lo = rng.randrange(q ** N - width + 1)
    args = {"f": f, "N": N, "lo": lo, "hi": lo + width}
    sub = rng.randrange(width - 64 + 1)
    spec = {"q": q, "N": N, "f": f, "oracle": [lo + sub, lo + sub + 64]}
    return {"id": oid, "kind": "lib", "fn": "weyl_slice", "args": args,
            "exit": 0, "points": width, "spec": spec}


def scan_op(rng, oid, q, N_hi, D, depth, shape, f=None, threads=1, tag=None):
    f = f if f is not None else exppoly(rng, q, shape, N_hi, depth)
    Ns = list(range(1, N_hi + 1))
    argv = ["equidist", "--field", f"q={q}", "--f", _js(f), "--N", f"1..{N_hi}",
            "--D", str(D), "--depth", str(depth)]
    if threads != 1:
        argv = ["--threads", str(threads)] + argv
    # oracle: one seeded (N, twist) with a sum slice, one small N for cylinders
    N_chk = rng.choice(Ns)
    spec = {"q": q, "N": Ns, "D": D, "depth": depth, "f": f,
            "twist": [N_chk, rng.randrange(1, q ** D)],
            "slice": _slice(rng, q ** N_chk),
            "cyl_N": max(n for n in Ns if q ** n <= SLICE)}
    # each N: q^D - 1 twisted sums plus one cylinder count
    points = sum(q ** n * q ** D for n in Ns)
    op = {"id": oid, "kind": "cli", "argv": argv, "exit": 0,
          "points": points, "spec": spec}
    if tag:
        op["tag"] = tag
    return op


def tmn_op(rng, oid, q, M, N_hi, phi_deg, divides):
    """sieve-tmn; with ``divides`` the denominator of alpha divides g_M."""
    p = FIELDS[q][0]
    c = fmt_poly(q, rand_poly(rng, q, 2))
    phi = f"u^{phi_deg}" if c == "0" else f"u^{phi_deg} + ({c})*u"
    if divides:
        den = rand_monic(rng, q, rng.randrange(1, M))  # a factor of g_M
    else:
        den = rand_irreducible(rng, p, M)             # degree M: never a factor
    alpha_obj = rand_rat(rng, q, None, den=den)
    alpha = f"{alpha_obj['rat'][0]} / {alpha_obj['rat'][1]}"
    Ns = list(range(1, N_hi + 1))
    argv = ["sieve-tmn", "--field", f"q={q}", "--phi", phi, "--alpha", alpha,
            "--M", str(M), "--N", f"1..{N_hi}"]
    return {"id": oid, "kind": "cli", "argv": argv, "exit": 0,
            "points": sum(q ** n for n in Ns),
            "spec": {"q": q, "N": Ns, "exact_one": divides}}


def mixed_exppoly(rng, q, shape, den_deg=2):
    """C9-style coefficients: rationals over irreducible denominators and
    series with floors near -60."""
    p = FIELDS[q][0]
    terms = []
    for r, form in shape:
        if form == "rat":
            coeff = rand_rat(rng, q, None, den=rand_irreducible(rng, p, den_deg))
        else:
            coeff = rand_series(rng, q, -60 - rng.randrange(3), top=1)
        terms.append({"exp": r, "coeff": coeff})
    return {"field": f"q={q}", "terms": terms}


def shift_check_op(rng, oid, q, N, shape, n_shifts):
    f = mixed_exppoly(rng, q, shape)
    shifts = [fmt_poly(q, rand_full_poly(rng, q, N)) for _ in range(n_shifts)]
    return {"id": oid, "kind": "lib", "fn": "shift_check",
            "args": {"f": f, "shifts": shifts, "N": N}, "exit": 0,
            "points": q ** N * (1 + n_shifts), "spec": {"q": q}}


def shift_expand_op(rng, oid, q, N, shape, k):
    f = mixed_exppoly(rng, q, shape)
    x = fmt_poly(q, rand_full_poly(rng, q, N))
    return {"id": oid, "kind": "lib", "fn": "shift_expand",
            "args": {"f": f, "x": x, "k": k, "N": N}, "exit": 0,
            "points": q ** N, "spec": {"q": q, "k": k,
                                       "support": [r for r, _ in shape if r]}}


def large_sieve_op(rng, oid, q, N, gdeg, size):
    g = rand_monic(rng, q, gdeg)
    nums = rng.sample(range(q ** gdeg), size)
    points = []
    for i in nums:
        digits = []
        for _ in range(gdeg):
            i, d = divmod(i, q)
            digits.append(d)
        points.append([fmt_poly(q, digits), fmt_poly(q, g)])
    weights = [[round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]
               for _ in range(q ** N)]
    return {"id": oid, "kind": "lib", "fn": "large_sieve",
            "args": {"field": f"q={q}", "points": points, "weights": weights,
                     "N": N}, "exit": 0, "points": size * q ** N, "spec": {"q": q}}


def reduce_qp_op(rng, oid, q, shape, N):
    f = mixed_exppoly(rng, q, shape)
    return {"id": oid, "kind": "lib", "fn": "reduce_qp", "args": {"f": f},
            "exit": 0, "points": 0, "spec": {"q": q, "N": N}}


def cor53_op(rng, oid, q, shape, k, m_bound):
    f = mixed_exppoly(rng, q, shape)
    return {"id": oid, "kind": "lib", "fn": "cor53",
            "args": {"f": f, "k": k, "m_bound": m_bound}, "exit": 0,
            "points": 0, "spec": {"q": q, "twists": q ** m_bound - 1}}


def cli_op(oid, argv, points=0, exit_code=0, spec=None):
    return {"id": oid, "kind": "cli", "argv": argv, "exit": exit_code,
            "points": points, "spec": spec or {}}


def budget_op(rng, oid, q, N):
    """A weyl sum whose --budget is below q^N: must exit 3."""
    f = exppoly(rng, q, [(2, "rat")], N)
    budget = q ** N - 1 - rng.randrange(q ** (N - 1))
    return cli_op(oid, ["--budget", str(budget), "weyl", "--field", f"q={q}",
                        "--f", _js(f), "--N", str(N)], exit_code=3)


def shallow_op(rng, oid, q, N, command="weyl"):
    """A series floor too shallow for N: must exit 2."""
    f = {"field": f"q={q}", "terms": [
        {"exp": 3, "coeff": rand_series(rng, q, -(N + rng.randrange(3)))}]}
    argv = [command, "--field", f"q={q}", "--f", _js(f)]
    if command == "weyl":
        argv += ["--N", str(N)]
    else:
        argv += ["--N", f"1..{N}", "--D", "1", "--depth", "1"]
    return cli_op(oid, argv, exit_code=2)


# ---------------------------------------------------------------------------
# The workloads.

def _weyl_bulk(rng):
    return [
        # prime fields: q^N above TABLE_LIMIT, tables streamed in blocks
        weyl_op(rng, "wb01", 2, 17, [(4, "kernel"), (3, "rat"), (1, "series")]),
        weyl_op(rng, "wb02", 3, 11, [(4, "rat"), (2, "kernel")], m_deg=1),
        weyl_op(rng, "wb03", 5, 8, [(3, "kernel"), (2, "series")]),
        weyl_op(rng, "wb04", 7, 6, [(4, "rat"), (1, "kernel")]),
        weyl_op(rng, "wb05", 2, 18, [(2, "series"), (1, "rat")]),
        # extension fields: full sums at table scale (per-point fill) ...
        weyl_op(rng, "wb06", 4, 7, [(3, "kernel"), (1, "rat")]),
        weyl_op(rng, "wb07", 8, 4, [(3, "series"), (1, "kernel")]),
        weyl_op(rng, "wb08", 9, 4, [(3, "rat"), (2, "kernel")]),
        # ... and library slices above TABLE_LIMIT (the direct path)
        slice_op(rng, "wb09", 4, 9, [(3, "kernel"), (2, "rat")], 1 << 12),
        slice_op(rng, "wb10", 8, 6, [(2, "series"), (1, "rat")], 1 << 12),
        slice_op(rng, "wb11", 9, 6, [(2, "kernel")], 1 << 12),
        budget_op(rng, "wb12", 2, 12),
        shallow_op(rng, "wb13", 3, 6),
    ]


def _scan_twists(rng):
    q3k2 = [(2, "kernel")]
    twin_f = exppoly(rng, 3, q3k2, 10, depth=3)
    return [
        scan_op(rng, "st01", 2, 16, 2, 3, [(3, "kernel")]),
        scan_op(rng, "st02", 2, 14, 3, 2, [(3, "kernel")]),
        scan_op(rng, "st03", 5, 6, 2, 2, [(2, "kernel"), (1, "kernel")]),
        scan_op(rng, "st04", 4, 4, 2, 2, [(3, "kernel")]),
        # the same (q, N, exponent) tables warm before both twins
        scan_op(rng, "st05", 3, 10, 2, 2, q3k2),
        scan_op(rng, "st06", 3, 10, 2, 3, q3k2, f=twin_f, tag="threads1"),
        scan_op(rng, "st07", 3, 10, 2, 3, q3k2, f=twin_f, threads=2, tag="threads2"),
        budget_op(rng, "st08", 3, 9),
        shallow_op(rng, "st09", 2, 8, command="equidist"),
    ]


def _exact_arith(rng):
    ops = [
        tmn_op(rng, "ea01", 3, 2, 7, 2, divides=True),
        tmn_op(rng, "ea02", 3, 2, 6, 2, divides=False),
        tmn_op(rng, "ea03", 2, 3, 8, 3, divides=True),
        tmn_op(rng, "ea04", 2, 2, 9, 2, divides=False),
        shift_check_op(rng, "ea05", 2, 3, [(5, "series"), (3, "rat"), (1, "series")], 3),
        shift_check_op(rng, "ea06", 3, 2, [(4, "rat"), (2, "series")], 3),
        shift_check_op(rng, "ea07", 2, 3, [(3, "series"), (2, "rat"), (0, "rat")], 2),
        shift_expand_op(rng, "ea08", 3, 3, [(4, "series"), (2, "rat")], 4),
        shift_expand_op(rng, "ea09", 5, 2, [(3, "rat"), (1, "series")], 3),
        large_sieve_op(rng, "ea10", 3, 5, 2, 6),
        reduce_qp_op(rng, "ea11", 2, [(1, "series"), (2, "rat"), (4, "series"),
                                      (3, "rat"), (6, "series")], 4),
        cor53_op(rng, "ea12", 3, [(2, "series"), (6, "rat")], 2, 2),
    ]
    q = 2
    den = fmt_poly(q, rand_irreducible(rng, q, 3))
    num = fmt_poly(q, rand_full_poly(rng, q, 3))
    ops.append(cli_op("ea13", ["cf", "--field", "q=2", "--alpha", f"{num} / {den}"],
                      spec={"q": 2, "alpha": f"{num} / {den}"}))
    series = rand_series(rng, 3, -40, top=2)["series"]
    ops.append(cli_op("ea14", ["cf", "--field", "q=3", "--alpha", series,
                               "--max-terms", "24"], spec={"q": 3, "alpha": series}))
    probe_f = {"field": "q=3", "terms": [{"exp": 2, "coeff": rand_rat(
        rng, 3, None, den=rand_irreducible(rng, 3, 2))}]}
    ops.append(cli_op("ea15", ["probe", "--field", "q=3", "--f", _js(probe_f),
                               "--k", "2", "--N", "6", "--eta", "2"],
                      points=3 ** 6, spec={"q": 3, "N": 6, "f": probe_f,
                                           "slice": _slice(rng, 3 ** 6)}))
    for oid, q, K, s, Ns in (("ea16", 2, [1, 2], 2, [1, 2, 3]),
                             ("ea17", 3, [1, 2], 2, [1, 2])):
        ops.append(cli_op(oid, ["js", "--field", f"q={q}", "--set",
                                ",".join(map(str, K)), "--s", str(s),
                                "--N", ",".join(map(str, Ns))],
                          points=sum(q ** (s * n) for n in Ns),
                          spec={"q": q, "K": K, "s": s, "N": Ns}))
    residue = fmt_poly(2, rand_poly(rng, 2, 2))
    ops.append(cli_op("ea18", ["intersective", "--field", "q=2", "--phi", "u^2",
                               "--A", _js({"mod": "t^2", "residues": [residue]}),
                               "--N", "9", "--xbound", "5"],
                      spec={"q": 2, "density": "1/4"}))
    exps = sorted(rng.sample(range(1, 40), 5))
    ops.append(cli_op("ea19", ["exponents", "--p", "2", "--set",
                                ",".join(map(str, exps))], spec={"set": exps}))
    ops.append(budget_op(rng, "ea20", 2, 11))
    ops.append(shallow_op(rng, "ea21", 2, 7))
    return ops


_BUILDERS = {"weyl_bulk": _weyl_bulk, "scan_twists": _scan_twists,
             "exact_arith": _exact_arith}


def generate(workload, seed):
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def dump(ops):
    """The canonical byte form of an operation list."""
    return _js(ops).encode()
