"""Command-line front end.

One executable, one subcommand per experiment.  Every successful run prints
a single JSON envelope (or CSV with a fixed, versioned column order) that
embeds the tool version, the field spec, and the seed, so identical configs
reproduce byte-identical artifacts.  Validation and precision problems exit
2 with a machine-readable error on stderr; blown budgets exit 3.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .algebra import NEG_INF, Field, check_budget, parse_poly, read_terms
from .contfrac import _tail_quality, cf_expand, convergents
from .equidist import weyl_scan
from .errors import BudgetError, DomainError, FFWeylError
from .expsum import ExpPoly, twisted_sum, weyl_sum
from .exponents import derived_sets
from .kinfty import parse_kelem
from .meanvalue import growth_table, profile
from .sieve import DenseSet, difference_search, gm_build, t_mn_rows
from .weylmachinery import minor_arc_probe

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _fmt_float(x):
    return float(f"{x:.12g}")


def _fmt_float_str(x):
    return f"{x:.12g}"


def _fmt_ord(v):
    if v is None:
        return None
    if v is NEG_INF:
        return "-inf"
    return int(v)


def _parse_int_list(text):
    """Accept '3', '1,2,5' and '1..12' (an inclusive range, kept as a range,
    so that a long one costs nothing until it is read); never empty."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        out = range(int(lo), int(hi) + 1)
    else:
        out = [int(part) for part in text.split(",") if part.strip()]
    if not out:
        raise DomainError(f"empty integer list {text!r}")
    return out


def _parse_int_set(text, budget):
    """The exponent set of --set, its length charged against the budget
    before the set is built."""
    items = _parse_int_list(text)
    check_budget(len(items), budget, "exponent set")
    return frozenset(items)


def _load_json_arg(text):
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_upoly(field, s, budget=None):
    """Parse a u-polynomial with F_q[t] coefficients, e.g. '(t^2+1)*u^3 + u + t';
    each coefficient, its enclosing parentheses dropped, is a polynomial
    literal charged against the budget."""
    out = {}
    for sign, c, e in read_terms(s, "u"):
        if c.startswith("(") and c.endswith(")"):
            c = c[1:-1]
        coeff = parse_poly(field, c, budget) if c else field.poly_one
        out[e] = out.get(e, field.poly_zero) + (-coeff if sign == "-" else coeff)
    return {e: c for e, c in out.items() if not c.is_zero()}


def _load_exppoly(args, field):
    obj = _load_json_arg(args.f)
    return ExpPoly.from_json(obj, field=field, default_seed=args.seed, budget=args.budget)


def _emit(args, command, field, params, result, csv_rows=None):
    if args.out == "json":
        envelope = {
            "version": __version__,
            "command": command,
            "field": field.spec_string() if field is not None else None,
            "seed": args.seed,
            "params": params,
            "result": result,
        }
        print(json.dumps(envelope, sort_keys=True))
        return
    header, rows = csv_rows
    fieldspec = field.spec_string() if field is not None else ""
    print(f"# ffweyl {__version__} command={command} field={fieldspec} seed={args.seed}")
    print(",".join(header))
    for row in rows:
        print(",".join("" if v is None else str(v) for v in row))


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_exponents(args):
    K = _parse_int_set(args.set, args.budget)
    wanted = [w.strip() for w in args.emit.split(",") if w.strip()]
    known = {"shadow", "kstar", "sprime", "ktilde", "maximal"}
    bad = set(wanted) - known
    if bad:
        raise FFWeylError(f"unknown emit keys {sorted(bad)}")
    sets = derived_sets(K, args.p, args.budget)
    result = {name: sorted(getattr(sets, name)) for name in wanted}
    rows = [(name, " ".join(str(v) for v in result[name])) for name in wanted]
    _emit(args, "exponents", None, {"p": args.p, "set": sorted(K)},
          result, (("set", "elements"), rows))


def _cmd_cf(args):
    field = Field.parse(args.field)
    alpha = parse_kelem(field, args.alpha, args.budget)
    cf = cf_expand(alpha, max_terms=args.max_terms)
    table = convergents(cf)
    conv_rows = []
    for n, (a, g) in enumerate(table.pairs):
        try:
            quality = _fmt_ord(_tail_quality(alpha, table, n))
        except FFWeylError:
            quality = None
        conv_rows.append({"n": n, "b": str(cf.quotients[n]), "a": str(a),
                          "g": str(g), "quality": quality})
    result = {"quotients": [str(b) for b in cf.quotients],
              "convergents": conv_rows, "stopped": cf.stopped}
    rows = [(r["n"], r["b"], r["a"], r["g"], r["quality"]) for r in conv_rows]
    _emit(args, "cf", field, {"alpha": args.alpha, "max_terms": args.max_terms},
          result, (("n", "b", "a", "g", "quality"), rows))


def _cmd_weyl(args):
    field = Field.parse(args.field)
    f = _load_exppoly(args, field)
    if args.m is not None:
        hist = twisted_sum(f, parse_poly(field, args.m, args.budget), args.N,
                           budget=args.budget)
    else:
        hist = weyl_sum(f, args.N, budget=args.budget)
    result = {"counts": list(hist.counts), "total": hist.total,
              "magnitude": _fmt_float(hist.magnitude()),
              "normalized": _fmt_float(hist.normalized()),
              "is_zero": hist.is_zero(), "is_full": hist.is_full()}
    rows = [(r, c) for r, c in enumerate(hist.counts)]
    _emit(args, "weyl", field, {"N": args.N, "m": args.m},
          result, (("residue", "count"), rows))


def _cmd_equidist(args):
    field = Field.parse(args.field)
    f = _load_exppoly(args, field)
    N_list = _parse_int_list(args.N)
    verdict = weyl_scan(f, N_list, args.D, depth=args.depth, budget=args.budget)
    rows = verdict.rows
    result = {
        "rows": [{"N": r.N, "sup": _fmt_float(r.sup), "witness": r.witness,
                  "discrepancy": None if r.discrepancy is None else str(r.discrepancy)}
                 for r in rows],
        "flags": verdict.flags,
    }
    csv = [(r.N, _fmt_float_str(r.sup), r.witness,
            None if r.discrepancy is None else str(r.discrepancy)) for r in rows]
    _emit(args, "equidist", field,
          {"N": list(N_list), "D": args.D, "depth": args.depth}, result,
          (("N", "sup_m", "witness", "discrepancy"), csv))


def _cmd_js(args):
    field = Field.parse(args.field)
    K = _parse_int_set(args.set, args.budget)
    prof = profile(K, field.p)
    rows = growth_table(K, args.s, _parse_int_list(args.N), field,
                        budget=args.budget)
    result = {
        "profile": {"psi": prof.psi, "phi": prof.phi, "kappa": prof.kappa,
                    "s_min": prof.s_min},
        "rows": [{"N": N, "J": J, "ratio": str(ratio)} for N, J, ratio in rows],
    }
    csv = [(N, J, str(ratio)) for N, J, ratio in rows]
    _emit(args, "js", field, {"set": sorted(K), "s": args.s}, result,
          (("N", "J", "ratio"), csv))


def _cmd_probe(args):
    field = Field.parse(args.field)
    f = _load_exppoly(args, field)
    report = minor_arc_probe(f, args.k, args.N, args.eta, budget=args.budget)
    sweep = [{"M": e.M, "a": str(e.a), "g": str(e.g), "quality_kind": e.quality_kind,
              "quality": _fmt_ord(e.quality), "ord_g": _fmt_ord(e.ord_g)}
             for e in report.entries]
    best = None
    if report.best is not None:
        b = report.best
        best = {"M": b.M, "a": str(b.a), "g": str(b.g),
                "quality": _fmt_ord(b.quality), "ord_g": _fmt_ord(b.ord_g)}
    result = {"counts": list(report.histogram.counts),
              "magnitude": _fmt_float(report.magnitude),
              "threshold": _fmt_float(report.threshold),
              "triggered": report.triggered, "sweep": sweep, "best": best}
    csv = [(e["M"], e["a"], e["g"], e["quality"], e["ord_g"]) for e in sweep]
    _emit(args, "probe", field,
          {"k": args.k, "N": args.N, "eta": args.eta}, result,
          (("M", "a", "g", "quality", "ord_g"), csv))


def _parse_dense_set(field, N, obj, budget):
    def polys(key):
        value = obj.get(key)
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise DomainError(f"dense set {key!r} must be a list of polynomial strings")
        return [parse_poly(field, s, budget) for s in value]

    if not isinstance(obj, dict):
        raise DomainError("dense set must be a JSON object")
    if "elems" in obj:
        return DenseSet.from_elems(field, N, polys("elems"))
    if "mod" in obj:
        if not isinstance(obj["mod"], str):
            raise DomainError("dense set 'mod' must be a polynomial string")
        return DenseSet.from_residues(field, N, parse_poly(field, obj["mod"], budget),
                                      polys("residues"), budget)
    raise FFWeylError("dense set needs 'elems' or 'mod'/'residues'")


def _cmd_intersective(args):
    field = Field.parse(args.field)
    phi = parse_upoly(field, args.phi, args.budget)
    A = _parse_dense_set(field, args.N, _load_json_arg(args.A), args.budget)
    witness = difference_search(A, phi, args.xbound, budget=args.budget)
    wit = None
    if witness is not None:
        if not witness.verify():
            raise FFWeylError("witness failed re-verification")
        wit = {"a": str(witness.a), "a_prime": str(witness.a_prime),
               "x": str(witness.x), "value": str(witness.value)}
    result = {"witness": wit, "density": str(A.density()),
              "searched_x": field.q ** args.xbound}
    csv = [(wit["a"], wit["a_prime"], wit["x"], wit["value"])] if wit else []
    _emit(args, "intersective", field,
          {"phi": args.phi, "N": args.N, "xbound": args.xbound}, result,
          (("a", "a_prime", "x", "value"), csv))


def _cmd_sieve_tmn(args):
    field = Field.parse(args.field)
    phi = parse_upoly(field, args.phi, args.budget)
    alpha = parse_kelem(field, args.alpha, args.budget)
    gm = gm_build(field, args.M, phi, mode=args.mode, budget=args.budget)
    N_list = _parse_int_list(args.N)
    results = t_mn_rows(phi, alpha, args.M, N_list, field, gm=gm, budget=args.budget)
    rows = [{"N": N, "normalized": _fmt_float(r.normalized), "exact_one": r.exact_one}
            for N, r in zip(N_list, results)]
    result = {"modulus_degree": gm.modulus.deg, "mode": gm.mode,
              "root": None if gm.root is None else str(gm.root), "rows": rows}
    csv = [(r["N"], _fmt_float_str(r["normalized"]), r["exact_one"]) for r in rows]
    _emit(args, "sieve-tmn", field,
          {"phi": args.phi, "alpha": args.alpha, "M": args.M, "mode": args.mode},
          result, (("N", "normalized", "exact_one"), csv))


def _add_common(parser, suppress):
    """Global options, valid both before and after the subcommand."""
    sup = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--out", choices=("json", "csv"),
                        **(sup or {"default": "json"}))
    parser.add_argument("--seed", type=int, **(sup or {"default": 0}))
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; runs are single-threaded",
                        **(sup or {"default": 1}))
    parser.add_argument("--budget", type=int,
                        help="cap on q^N-style enumerations",
                        **(sup or {"default": None}))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, so they exit 2 with a JSON error;
    subparsers are built from the same class."""

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    main call; callers must not mutate it."""
    parser = _Parser(
        prog="ffweyl",
        description="Exact function-field character-sum experiments.")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common(p, suppress=True)
        return p

    p = add_parser("exponents", help="shadow/core/peeling of an exponent set")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--emit", default="shadow,kstar,sprime,ktilde,maximal")
    p.set_defaults(func=_cmd_exponents)

    p = add_parser("cf", help="continued fraction expansion and convergents")
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-terms", type=int, default=32, dest="max_terms")
    p.set_defaults(func=_cmd_cf)

    p = add_parser("weyl", help="one exact character-sum histogram")
    p.add_argument("--field", required=True)
    p.add_argument("--f", required=True, help="ExpPoly JSON (inline or path)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", default=None, help="optional twist polynomial")
    p.set_defaults(func=_cmd_weyl)

    p = add_parser("equidist", help="twist scan plus cylinder discrepancy")
    p.add_argument("--field", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--N", required=True, help="list or range, e.g. 1..12")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_equidist)

    p = add_parser("js", help="power-sum mean values")
    p.add_argument("--field", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", required=True)
    p.set_defaults(func=_cmd_js)

    p = add_parser("probe", help="large-sum diagnostic with approximation sweep")
    p.add_argument("--field", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eta", type=int, required=True)
    p.set_defaults(func=_cmd_probe)

    p = add_parser("intersective", help="difference-set witness search")
    p.add_argument("--field", required=True)
    p.add_argument("--phi", required=True, help="u-polynomial, e.g. 'u^2'")
    p.add_argument("--A", required=True, help="dense set JSON (inline or path)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xbound", type=int, required=True)
    p.set_defaults(func=_cmd_intersective)

    p = add_parser("sieve-tmn", help="congruence-average sums")
    p.add_argument("--field", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--mode", choices=("literal", "squarefree"), default="literal")
    p.set_defaults(func=_cmd_sieve_tmn)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except BudgetError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return EXIT_BUDGET
    except (FFWeylError, ValueError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
