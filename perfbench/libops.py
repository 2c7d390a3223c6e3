"""The operations a pass runs: CLI calls in-process and library calls.

CLI operations go through ``ffweyl.cli.main(argv)`` with stdout and stderr
captured.  Library operations call public functions directly and return a
JSON-able result.  Functions are looked up on their modules at call time, so
a traced pass sees its wrappers.
"""
import contextlib
import io
import time
import traceback

import ffweyl.cli
from ffweyl import equidist, expsum, weylmachinery
from ffweyl.algebra import Field, enumerate_GN, parse_poly
from ffweyl.kinfty import RationalK
from speed import reference


def _exppoly(obj):
    return expsum.ExpPoly.from_json(obj)


def lib_weyl_slice(f, N, lo, hi):
    hist = expsum.weyl_sum(_exppoly(f), N, lo, hi)
    return {"counts": list(hist.counts)}


def lib_shift_check(f, shifts, N):
    f = _exppoly(f)
    ys = [parse_poly(f.field, s) for s in shifts]
    return {"ok": weylmachinery.weyl_shift_check(f, ys, N)}


def lib_shift_expand(f, x, k, N):
    """Expand f(y - x) around k, then compare it with f pointwise over G_N."""
    f = _exppoly(f)
    x = parse_poly(f.field, x)
    se = weylmachinery.shift_expand(f, x, k)
    expanded = se.as_exppoly(f.field)
    ok = all(expsum.e_of(f.evaluate(y - x)) == expsum.e_of(expanded.evaluate(y))
             for y in enumerate_GN(f.field, N))
    return {"ok": ok, "gammas": sorted(se.gamma_map())}


def lib_large_sieve(field, points, weights, N):
    F = Field.parse(field)
    fam = weylmachinery.space_family(
        [RationalK(parse_poly(F, a), parse_poly(F, g)) for a, g in points])
    K = 1 if fam.gap == float("inf") else max(1, 1 - fam.gap)
    rep = weylmachinery.large_sieve_check(fam, [complex(a, b) for a, b in weights],
                                          N, K=K)
    return {"passed": rep.passed, "lhs": rep.lhs, "rhs": rep.rhs, "K": K}


def lib_reduce_qp(f):
    red = equidist.reduce_qp(_exppoly(f))
    return {"indices": sorted(red.indices), "reduced": red.reduced.to_json()}


def lib_cor53(f, k, m_bound):
    rep = equidist.cor53_probe(_exppoly(f), k, m_bound)
    return {"statuses": [e.status for e in rep.entries], "clear": rep.clear}


LIB = {"weyl_slice": lib_weyl_slice, "shift_check": lib_shift_check,
       "shift_expand": lib_shift_expand, "large_sieve": lib_large_sieve,
       "reduce_qp": lib_reduce_qp, "cor53": lib_cor53}


def run_op(op):
    """Run one operation; returns (exit code, stdout or result, stderr).

    An exception that escapes the program counts as exit code 1 with its
    traceback on stderr, so the checker reports a failed operation and the
    run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                return ffweyl.cli.main(op["argv"]), out.getvalue(), err.getvalue()
            return 0, LIB[op["fn"]](**op["args"]), err.getvalue()
    except Exception:
        return 1, out.getvalue(), err.getvalue() + traceback.format_exc()


def run_pass(ops, tracer=None):
    """Run every operation once; each is bracketed by reference timings."""
    results = []
    elapsed = 0.0
    ref = reference()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        code, out, err = run_op(op)
        dt = time.perf_counter() - t0
        elapsed += dt
        ref_after = reference()
        results.append({"id": op["id"], "exit": code, "out": out, "err": err,
                        "dt": dt, "ref": (ref + ref_after) / 2})
        ref = ref_after
    return elapsed, results
