"""Checks every operation's outcome, outside the timed region.

``Checker.check(op, result)`` returns a list of problems, empty when the
outcome passes.  It checks the exit code, the error JSON of a failing
command, the envelope against ``ffweyl.schemas.SCHEMAS[command]``, the
invariants of each command (histogram total q^N, ``is_zero``/``is_full``
against the counts, ``exact_one`` where alpha's denominator divides g_M, a
true result from shift and large-sieve checks), and oracles: for each sum a
seeded slice of at most 2^10 points against ``method="direct"``, for small
``js`` the naive count.  Given digests (the default seed), it also compares
each canonical outcome, the envelope without ``version``, with the pinned
digest.

The checker imports the program, so ``src`` must be on ``sys.path``.
"""
from __future__ import annotations

import hashlib
import json

import jsonschema

from ffweyl.algebra import Field, parse_poly, poly_from_index
from ffweyl.equidist import cylinder_counts, discrepancy
from ffweyl.exponents import shadow
from ffweyl.expsum import CharSum, ExpPoly, e_of, weyl_residues
from ffweyl.kinfty import RationalK, parse_kelem
from ffweyl.meanvalue import js_naive
from ffweyl.schemas import SCHEMAS

OBSTRUCTIONS = {"rational", "zero", "cf-match"}
COR53_STATUSES = OBSTRUCTIONS | {"clear", "inconclusive"}


def canonical(result):
    """The bytes an outcome must reproduce: exit code plus envelope or error."""
    code, out = result["exit"], result["out"]
    if isinstance(out, str) and code == 0:
        env = json.loads(out)
        env.pop("version", None)
        body = json.dumps(env, sort_keys=True)
    elif isinstance(out, str):
        body = result["err"]
    else:
        body = json.dumps(out, sort_keys=True)
    return f"{code}\n{body}".encode()


def digest(result):
    return hashlib.sha256(canonical(result)).hexdigest()


def _field(q):
    return Field.parse(f"q={q}")


def _slice_problems(f, N, lo, hi, what):
    """The default evaluation path against the direct oracle on [lo, hi)."""
    fast = CharSum.from_residues(f.field.p, weyl_residues(f, N, lo, hi))
    slow = CharSum.from_residues(f.field.p, weyl_residues(f, N, lo, hi, method="direct"))
    if fast != slow:
        return [f"{what}: slice [{lo},{hi}) default {fast.counts} != direct {slow.counts}"]
    return []


def _hist_problems(counts, total, q, N):
    problems = []
    if sum(counts) != total or total != q ** N:
        problems.append(f"histogram total {sum(counts)} / {total} != q^N = {q ** N}")
    return problems


class Checker:
    def __init__(self, digests=None):
        self.digests = digests

    def check(self, op, result):
        if result["exit"] != op["exit"]:
            return [f"exit {result['exit']}, expected {op['exit']}: {result['err'][:200]}"]
        try:
            if op["kind"] == "cli":
                problems = self._cli(op, result)
            else:
                problems = getattr(self, "_lib_" + op["fn"])(op, result["out"])
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"malformed outcome: {exc!r}"]  # e.g. stdout that is not JSON
        if self.digests is not None:
            want = self.digests.get(op["id"])
            if want != digest(result):
                problems.append(f"digest mismatch (pinned {want})")
        return problems

    # -- CLI --------------------------------------------------------------

    def _cli(self, op, result):
        if result["exit"] != 0:
            try:
                err = json.loads(result["err"])
            except json.JSONDecodeError:
                return [f"stderr is not JSON: {result['err'][:200]!r}"]
            if result["out"] or not isinstance(err.get("error"), dict):
                return ["a failing command must print only an error object"]
            return []
        env = json.loads(result["out"])
        command = env["command"]
        if command not in op["argv"]:
            return [f"envelope of {command!r} for argv {op['argv'][:1]}"]
        try:
            jsonschema.validate(env, SCHEMAS[command])
        except jsonschema.ValidationError as exc:
            return [f"schema: {exc.message}"]
        check = getattr(self, "_cmd_" + command.replace("-", "_"))
        return check(op["spec"], env["result"])

    def _cmd_weyl(self, spec, res):
        q, N = spec["q"], spec["N"]
        counts = res["counts"]
        problems = _hist_problems(counts, res["total"], q, N)
        if res["is_zero"] != (len(set(counts)) == 1):
            problems.append("is_zero disagrees with the counts")
        if res["is_full"] != (max(counts) == res["total"]):
            problems.append("is_full disagrees with the counts")
        f = ExpPoly.from_json(spec["f"])
        if spec["m"] is not None:
            f = f.scale_poly(parse_poly(f.field, spec["m"]))
        return problems + _slice_problems(f, N, *spec["slice"], "sum")

    def _cmd_probe(self, spec, res):
        q, N = spec["q"], spec["N"]
        problems = _hist_problems(res["counts"], sum(res["counts"]), q, N)
        if res["triggered"] != (res["magnitude"] >= res["threshold"]):
            problems.append("triggered disagrees with magnitude and threshold")
        f = ExpPoly.from_json(spec["f"])
        return problems + _slice_problems(f, N, *spec["slice"], "probe sum")

    def _cmd_equidist(self, spec, res):
        q, D, depth = spec["q"], spec["D"], spec["depth"]
        rows = {row["N"]: row for row in res["rows"]}
        if sorted(rows) != spec["N"]:
            return [f"rows for N = {sorted(rows)}, expected {spec['N']}"]
        problems = []
        if res["flags"]["failure_certificate"] != any(
                r["witness"] is not None for r in rows.values()):
            problems.append("failure_certificate disagrees with the witnesses")
        f = ExpPoly.from_json(spec["f"])
        N, mi = spec["twist"]
        g = f.scale_poly(poly_from_index(f.field, mi, D))
        hist = CharSum.from_residues(f.field.p, weyl_residues(g, N))
        row = rows[N]
        if hist.normalized() > row["sup"] * (1 + 1e-9) + 1e-12:
            problems.append(f"twist {mi} at N={N} exceeds the reported sup")
        if hist.is_full() and row["witness"] is None:
            problems.append(f"twist {mi} at N={N} is full but no witness is reported")
        problems += _slice_problems(g, N, *spec["slice"], "twisted sum")
        cyl_N = spec["cyl_N"]
        want = discrepancy(cylinder_counts(f, cyl_N, depth, method="direct"), q)
        if rows[cyl_N]["discrepancy"] != str(want):
            problems.append(f"discrepancy at N={cyl_N} {rows[cyl_N]['discrepancy']} "
                            f"!= direct {want}")
        return problems

    def _cmd_sieve_tmn(self, spec, res):
        if [r["N"] for r in res["rows"]] != spec["N"]:
            return ["rows do not match the requested N"]
        problems = []
        for r in res["rows"]:
            if not 0 <= r["normalized"] <= 1 + 1e-9:
                problems.append(f"N={r['N']}: normalized {r['normalized']} outside [0, 1]")
            if r["exact_one"] and r["normalized"] != 1.0:
                problems.append(f"N={r['N']}: exact_one with normalized {r['normalized']}")
            if spec["exact_one"] and not r["exact_one"]:
                problems.append(f"N={r['N']}: alpha's denominator divides g_M "
                                "but exact_one is false")
        return problems

    def _cmd_js(self, spec, res):
        F = _field(spec["q"])
        problems = []
        for r in res["rows"]:
            want = js_naive(frozenset(spec["K"]), spec["s"], r["N"], F)
            if r["J"] != want:
                problems.append(f"N={r['N']}: J = {r['J']}, naive count {want}")
        return problems

    def _cmd_cf(self, spec, res):
        convs = res["convergents"]
        if len(convs) != len(res["quotients"]):
            return ["one convergent per quotient expected"]
        alpha = parse_kelem(_field(spec["q"]), spec["alpha"])
        if not isinstance(alpha, RationalK):
            return [] if res["stopped"] in ("max-terms", "precision") else \
                [f"a truncated series cannot stop by {res['stopped']!r}"]
        F = alpha.field
        last = RationalK(parse_poly(F, convs[-1]["a"]), parse_poly(F, convs[-1]["g"]))
        if res["stopped"] is not None or last != alpha:
            return ["a rational expansion must end exactly at alpha"]
        return []

    def _cmd_intersective(self, spec, res):
        problems = []
        if res["density"] != spec["density"]:
            problems.append(f"density {res['density']} != {spec['density']}")
        w = res["witness"]
        if w is not None:
            F = _field(spec["q"])
            a, a2, x, v = (parse_poly(F, w[k]) for k in ("a", "a_prime", "x", "value"))
            if a - a2 != v or v.is_zero() or v != x * x:
                problems.append("witness does not satisfy a - a' = x^2 != 0")
        return problems

    def _cmd_exponents(self, spec, res):
        K = set(spec["set"])
        if not set(res["maximal"]) <= K <= set(res["shadow"]):
            return ["expected maximal <= set <= shadow"]
        return []

    # -- library ----------------------------------------------------------

    def _lib_weyl_slice(self, op, out):
        spec, args = op["spec"], op["args"]
        counts = out["counts"]
        if sum(counts) != args["hi"] - args["lo"]:
            return [f"slice total {sum(counts)} != {args['hi'] - args['lo']}"]
        f = ExpPoly.from_json(spec["f"])
        lo, hi = spec["oracle"]
        oracle = [e_of(f.evaluate(poly_from_index(f.field, i, spec["N"])))
                  for i in range(lo, hi)]
        direct = weyl_residues(f, spec["N"], lo, hi, method="direct")
        if list(direct) != oracle:
            return [f"direct path disagrees with ExpPoly.evaluate on [{lo},{hi})"]
        return []

    def _lib_shift_check(self, op, out):
        return [] if out["ok"] is True else ["shift identity failed"]

    def _lib_shift_expand(self, op, out):
        problems = [] if out["ok"] is True else ["expansion disagrees pointwise"]
        p = _field(op["spec"]["q"]).p
        allowed = shadow(frozenset(op["spec"]["support"]), p) - {op["spec"]["k"]}
        if not set(out["gammas"]) <= allowed:
            problems.append(f"cross terms {out['gammas']} outside the shadow")
        return problems

    def _lib_large_sieve(self, op, out):
        if out["passed"] is not True or out["lhs"] > out["rhs"] * (1 + 1e-6):
            return [f"large sieve inequality failed: {out['lhs']} > {out['rhs']}"]
        return []

    def _lib_reduce_qp(self, op, out):
        f = ExpPoly.from_json(op["args"]["f"])
        reduced = ExpPoly.from_json(out["reduced"])
        N = op["spec"]["N"]
        if list(weyl_residues(f, N, method="direct")) != \
                list(weyl_residues(reduced, N, method="direct")):
            return ["the reduced polynomial changes character values"]
        return []

    def _lib_cor53(self, op, out):
        statuses = out["statuses"]
        problems = []
        if len(statuses) != op["spec"]["twists"]:
            problems.append(f"{len(statuses)} entries for {op['spec']['twists']} twists")
        if not set(statuses) <= COR53_STATUSES:
            problems.append(f"unknown statuses {sorted(set(statuses) - COR53_STATUSES)}")
        if out["clear"] != (not OBSTRUCTIONS & set(statuses)):
            problems.append("clear disagrees with the statuses")
        return problems
