import argparse
import json
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from ffweyl import cli, contfrac
from ffweyl.cli import main, parse_upoly
from ffweyl.algebra import parse_fp_poly, parse_poly, parse_terms
from ffweyl.errors import DomainError
from ffweyl.expsum import CharSum, ExpPoly, weyl_residues
from ffweyl.kinfty import parse_kelem
from ffweyl.schemas import SCHEMAS

from helpers import field


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_exponents_paper_values(capsys):
    doc = run_json(["exponents", "--p", "2", "--set", "9,5,3,1"], capsys)
    assert doc["result"]["kstar"] == [3, 5, 9]
    assert doc["result"]["maximal"] == [3, 5, 9]
    jsonschema.validate(doc, SCHEMAS["exponents"])


def test_every_subcommand_validates(capsys):
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 3, "coeff": {"kernel": {"floor": -40, "seed": 3}}}]})
    cases = {
        "exponents": ["exponents", "--p", "3", "--set", "3,9,2"],
        "cf": ["cf", "--field", "q=2", "--alpha", "t^2+1 / t^3"],
        "weyl": ["weyl", "--field", "q=3", "--f", json.dumps(
            {"field": "q=3", "terms": [
                {"exp": 1, "coeff": {"rat": ["1", "t^3"]}}]}), "--N", "2"],
        "equidist": ["equidist", "--field", "q=2", "--f", f_json,
                     "--N", "1..4", "--D", "2", "--depth", "1"],
        "js": ["js", "--field", "q=2", "--set", "1,2", "--s", "2", "--N", "1,2"],
        "probe": ["probe", "--field", "q=3", "--f", json.dumps(
            {"field": "q=3", "terms": [
                {"exp": 2, "coeff": {"rat": ["1", "t"]}}]}),
            "--k", "2", "--N", "4", "--eta", "2"],
        "intersective": ["intersective", "--field", "q=2", "--phi", "u^2",
                         "--A", '{"mod":"t","residues":["0"]}',
                         "--N", "8", "--xbound", "3"],
        "sieve-tmn": ["sieve-tmn", "--field", "q=2", "--phi", "u^2",
                      "--alpha", "1 / t+1", "--M", "3", "--N", "2,4"],
    }
    for command, args in cases.items():
        doc = run_json(args, capsys)
        assert doc["command"] == command
        assert doc["version"] == "0.1.0"
        assert "seed" in doc
        jsonschema.validate(doc, SCHEMAS[command])


def test_weyl_twist_flag(capsys):
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 1, "coeff": {"rat": ["1", "t^2"]}}]})
    doc = run_json(["weyl", "--field", "q=2", "--f", f_json,
                    "--N", "1", "--m", "t"], capsys)
    assert doc["result"]["counts"] == [1, 1]
    assert doc["result"]["is_zero"] is True
    jsonschema.validate(doc, SCHEMAS["weyl"])


def test_equidist_zero_polynomial_sups(capsys):
    doc = run_json(["equidist", "--field", "q=2", "--f",
                    '{"field":"q=2","terms":[]}', "--N", "1..3", "--D", "2"],
                   capsys)
    assert all(row["sup"] == 1.0 and row["witness"] is not None
               for row in doc["result"]["rows"])


def test_byte_identical_reruns(capsys):
    args = ["equidist", "--field", "q=2", "--f", json.dumps(
        {"field": "q=2", "terms": [
            {"exp": 3, "coeff": {"kernel": {"floor": -40}}}]}),
        "--N", "1..5", "--D", "2", "--seed", "11"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    # a different seed changes the kernel coefficient, hence the artifact
    _, out3, _ = run_cli(args[:-1] + ["12"], capsys)
    assert out3 != out1


def test_threads_do_not_change_output(capsys):
    args = ["equidist", "--field", "q=2", "--f", json.dumps(
        {"field": "q=2", "terms": [
            {"exp": 3, "coeff": {"kernel": {"floor": -40}}}]}),
        "--N", "1..6", "--D", "2"]
    _, seq, _ = run_cli(args, capsys)
    _, par, _ = run_cli(args + ["--threads", "4"], capsys)
    assert seq == par


def test_csv_emission(capsys):
    code, out, _ = run_cli(["js", "--field", "q=2", "--set", "1", "--s", "1",
                            "--N", "1,2,3", "--out", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ffweyl 0.1.0 command=js")
    assert lines[1] == "N,J,ratio"
    assert lines[2] == "1,2,1"


def test_cf_builds_one_convergent_table(capsys, monkeypatch):
    # every row's quality is read off one table and equals approx_quality
    calls = []
    real = contfrac.convergents
    monkeypatch.setattr(cli, "convergents", lambda cf: calls.append(1) or real(cf))
    monkeypatch.setattr(contfrac, "convergents", cli.convergents)
    F3 = field(3)
    for alpha in ("t^2+1 / t^3+2*t+1", "2*t + t^-1 + 2*t^-2 + t^-5 + t^-7 + O(t^-12)"):
        del calls[:]
        rows = run_json(["cf", "--field", "q=3", "--alpha", alpha],
                        capsys)["result"]["convergents"]
        assert len(calls) == 1 and len(rows) > 2
        al = parse_kelem(F3, alpha)
        for row in rows[:-1]:
            assert row["quality"] == contfrac.approx_quality(al, row["n"])


def test_error_exit_codes(capsys):
    # validation problem: malformed alpha
    code, out, err = run_cli(["cf", "--field", "q=2", "--alpha", "%%%"], capsys)
    assert code == 2 and not out
    assert json.loads(err)["error"]["type"]
    # budget exhaustion
    code, _, err = run_cli(["weyl", "--field", "q=2", "--f",
                            '{"field":"q=2","terms":[]}', "--N", "30"], capsys)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "BudgetError"


def test_uncertifiable_probe_sweep_exits_2(capsys):
    # the series runs out of digits before M = 5 of the sweep is certified
    series = ("t^-1 + t^-3 + t^-5 + t^-8 + t^-9 + t^-12 + t^-13 + t^-15 + t^-16 + "
              "t^-17 + t^-18 + t^-20 + t^-21 + t^-23 + t^-26 + t^-27 + O(t^-28)")
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 3, "coeff": {"series": series, "floor": -28}}]})
    code, out, err = run_cli(["probe", "--field", "q=2", "--f", f_json,
                              "--k", "3", "--N", "8", "--eta", "8"], capsys)
    assert code == 2 and not out
    assert json.loads(err)["error"]["type"] == "PrecisionError"


def test_budget_is_checked_before_building(capsys):
    # a kernel floor is charged before its series is built, and deg g_M is
    # known before any irreducible is enumerated; both exit 3 at once
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 1, "coeff": {"kernel": {"floor": -300000}}}]})
    code, out, err = run_cli(["weyl", "--field", "q=2", "--f", f_json, "--N", "1",
                              "--budget", "10"], capsys)
    assert code == 3 and not out
    assert json.loads(err)["error"]["message"] == \
        "kernel series of 300000 points exceeds budget 10"
    code, out, err = run_cli(["sieve-tmn", "--field", "q=9", "--phi", "u^2", "--alpha",
                              "1 / t", "--M", "5", "--N", "1", "--budget", "1000"], capsys)
    assert code == 3 and not out
    assert json.loads(err)["error"]["message"] == "deg g_M = 28602 exceeds the budget 64"


def test_residue_class_sets_are_charged_against_the_budget(capsys):
    argv = ["intersective", "--field", "q=2", "--phi", "u^2",
            "--A", '{"mod":"t^2","residues":["1"]}', "--N", "12", "--xbound", "1"]
    code, out, err = run_cli(argv + ["--budget", "3"], capsys)
    assert code == 3 and not out
    assert json.loads(err)["error"] == {
        "type": "BudgetError", "message": "enumeration of 4096 points exceeds budget 3"}
    assert run_json(argv, capsys)["result"]["density"] == "1/4"


def test_the_difference_search_is_charged_for_its_pair_tests(capsys):
    # 2048 elements times 2^6 values of x: 131072 pair tests, refused at once
    start = time.perf_counter()
    code, out, err = run_cli(["intersective", "--field", "q=2", "--phi", "t^12*u",
                              "--A", '{"mod":"t","residues":["0"]}', "--N", "12",
                              "--xbound", "6", "--budget", "5000"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert json.loads(err)["error"] == {
        "type": "BudgetError",
        "message": "difference search of 131072 points exceeds budget 5000"}


def test_the_difference_search_walks_with_the_callers_budget(capsys):
    # 4 * 2^25 pair tests fit the budget, and so do the 2^25 values of x
    doc = run_json(["intersective", "--field", "q=2", "--phi", "u",
                    "--A", '{"elems":["0","1","t","t+1"]}', "--N", "2",
                    "--xbound", "25", "--budget", "268435456"], capsys)
    assert doc["result"]["witness"] == {"a": "0", "a_prime": "1", "x": "1", "value": "1"}


def test_unknown_emit_keys_are_refused_before_any_set_is_derived(capsys):
    # deriving the sets of 1..4000 takes tens of seconds
    start = time.perf_counter()
    code, out, err = run_cli(["exponents", "--p", "2", "--set", "1..4000",
                              "--emit", "bogus"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert json.loads(err)["error"] == {
        "type": "FFWeylError", "message": "unknown emit keys ['bogus']"}


_F3_LIN = json.dumps({"field": "q=3", "terms": [{"exp": 1, "coeff": {"rat": ["1", "t^2+1"]}}]})
_TMN = ["sieve-tmn", "--field", "q=3", "--phi", "u^2", "--alpha", "1 / t+1"]


@pytest.mark.parametrize("argv, message", [
    (["weyl", "--field", "q=3", "--f", _F3_LIN, "--N", "10000000"],
     "character sum of 3^10000000 points exceeds budget 16777216"),
    (["equidist", "--field", "q=3", "--f", _F3_LIN, "--N", "1", "--D", "10000000"],
     "twist scan of 3^10000000 points exceeds budget 16777216"),
    (["probe", "--field", "q=3", "--f", _F3_LIN, "--k", "1", "--N", "10000000", "--eta", "1"],
     "character sum of 3^10000000 points exceeds budget 16777216"),
    (["js", "--field", "q=3", "--set", "1,2", "--s", "2", "--N", "10000000"],
     "histogram mean-value scan of 3^20000000 points exceeds budget 16777216"),
    (_TMN + ["--M", "2", "--N", "10000000"],
     "congruence average of 3^10000000 points exceeds budget 16777216"),
    (["intersective", "--field", "q=3", "--phi", "u^2", "--A", '{"elems":["0","1"]}',
      "--N", "2", "--xbound", "10000000"],
     "difference search of 3^10000000 points exceeds budget 16777216"),
    (_TMN + ["--M", "10000000", "--N", "1"], "deg g_M >= 3^9999998 exceeds the budget 64"),
    # both factors print, their product would not
    (["equidist", "--field", "q=2", "--f", '{"field":"q=2","terms":[]}', "--N", "9000",
      "--D", "9000"], "twist scan of over 10^4300 points exceeds budget 16777216"),
])
def test_huge_exponents_are_refused_before_any_power(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert json.loads(err)["error"] == {"type": "BudgetError", "message": message}


def test_printable_counts_keep_their_decimal_text(capsys):
    code, _, err = run_cli(["weyl", "--field", "q=3", "--f", _F3_LIN, "--N", "30"], capsys)
    assert code == 3
    assert json.loads(err)["error"]["message"] == \
        f"character sum of {3 ** 30} points exceeds budget 16777216"


def test_zero_twist_reads_no_digit(capsys):
    # the series cannot serve N = 3 at u^3, but the twist 0 reads none of it
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 3, "coeff": {"series": "t^-1 + O(t^-2)", "floor": -2}}]})
    argv = ["weyl", "--field", "q=2", "--f", f_json, "--N", "3"]
    assert run_cli(argv + ["--m", "1"], capsys)[0] == 2
    doc = run_json(argv + ["--m", "0"], capsys)
    assert doc["result"]["counts"] == [8, 0] and doc["result"]["is_full"] is True


def test_malformed_input_exits_2(capsys):
    term = {"exp": 1, "coeff": {"rat": ["1", "t"]}}
    for f_obj, N in (({"field": "q=2"}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1}]}, "2"),
                     ({"field": "q=2", "terms": [term]}, "-1"),
                     ({"field": "q=2", "terms": 5}, "2"),
                     ({"field": "q=2", "terms": [{**term, "exp": None}]}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1, "coeff": 5}]}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1, "coeff": {"rat": 5}}]}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1, "coeff": {"series": 5}}]}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1, "coeff": {"kernel": 5}}]}, "2")):
        code, out, err = run_cli(["weyl", "--field", "q=2", "--f", json.dumps(f_obj),
                                  "--N", N], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"]["type"] == "DomainError"
    f_json = json.dumps({"field": "q=2", "terms": [term]})
    for argv in (["exponents", "--p", "4", "--set", "1,2"],
                 ["exponents", "--p", "2", "--set", "0,1"],
                 ["equidist", "--field", "q=2", "--f", f_json, "--N", "5..1", "--D", "1"],
                 ["sieve-tmn", "--field", "q=2", "--phi=", "--alpha", "1/t",
                  "--M", "2", "--N", "1"],
                 ["intersective", "--field", "q=2", "--phi=", "--A",
                  '{"elems": ["0", "1"]}', "--N", "1", "--xbound", "1"],
                 ["intersective", "--field", "q=2", "--phi", "u^2", "--A",
                  '{"mod": "t"}', "--N", "2", "--xbound", "1"],
                 ["intersective", "--field", "q=2", "--phi", "u^2", "--A",
                  '{"mod": "t", "residues": 5}', "--N", "2", "--xbound", "1"],
                 ["intersective", "--field", "q=2", "--phi", "u^2", "--A",
                  '{"elems": ["0", "1"]}', "--N", "2", "--xbound=-2"],
                 ["js", "--field", "q=2", "--set", "1", "--s=-1", "--N", "1"],
                 ["js", "--field", "q=2", "--set", "1", "--s", "1", "--N=-1"],
                 ["js", "--field", "q=2", "--set", "0", "--s", "1", "--N", "1"],
                 ["weyl", "--field", "q=2", "--f", "{}", "--N", "abc"],
                 ["cf", "--field", "q=0^2 modulus=x^2+1", "--alpha", "1 / t"],
                 ["cf", "--field", "q=9", "--alpha", "[a,1]*t / t+1"],
                 ["cf", "--field", "q=9", "--alpha", "[1_0,2]*t / t+1"],
                 ["cf", "--field", "q=9", "--alpha", "1 + O(t^-2-)"],
                 ["equidist", "--field", "q=2", "--f", f_json, "--N", "-2..1", "--D", "1"],
                 []):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out, argv
        assert json.loads(err)["error"]["type"] == "DomainError", argv
    code, out, err = run_cli(["weyl", "--field", "q=2", "--f", "{bad", "--N", "1"], capsys)
    assert code == 2 and not out
    assert json.loads(err)["error"]["type"] == "JSONDecodeError"


def test_equidist_budget_covers_the_whole_scan(capsys):
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 1, "coeff": {"rat": ["1", "t^3"]}}]})
    scan = ["equidist", "--field", "q=2", "--f", f_json]
    # each twisted sum has at most 8 points, the scan's one pass 8 * 16383
    code, out, err = run_cli(scan + ["--N", "1..3", "--D", "14",
                                     "--budget", "1000"], capsys)
    assert code == 3 and not out
    assert json.loads(err)["error"]["type"] == "BudgetError"
    # the 8 points of G_3 for each of the 3 nonzero twists in G_2
    scan += ["--N", "1..3", "--D", "2", "--budget"]
    assert run_cli(scan + ["23"], capsys)[0] == 3
    assert run_cli(scan + ["24"], capsys)[0] == 0


def test_an_n_list_is_charged_as_its_largest_n(capsys):
    # --N 1..10 runs the same 1024-point pass as --N 10, so both share one boundary
    f_json = json.dumps({"field": "q=2", "terms": [
        {"exp": 3, "coeff": {"rat": ["1", "t^3+t+1"]}}]})
    for n in ("1..10", "10"):
        scan = ["equidist", "--field", "q=2", "--f", f_json, "--N", n, "--D", "1",
                "--depth", "1"]
        code, out, err = run_cli(["--budget", "1023"] + scan, capsys)
        assert code == 3 and not out
        assert json.loads(err)["error"] == {
            "type": "BudgetError", "message": "twist scan of 1024 points exceeds budget 1023"}
        assert run_cli(["--budget", "1024"] + scan, capsys)[0] == 0


_F2 = json.dumps({"field": "q=2", "terms": [
    {"exp": 3, "coeff": {"kernel": {"floor": -12, "seed": 3}}},
    {"exp": 1, "coeff": {"rat": ["1", "t^2+t+1"]}}]})
_F3 = json.dumps({"field": "q=3", "terms": [
    {"exp": 2, "coeff": {"rat": ["1", "t"]}},
    {"exp": 1, "coeff": {"series": "2*t^-1 + O(t^-12)", "floor": -12}}]})
_F4 = json.dumps({"field": "q=4", "terms": [{"exp": 1, "coeff": {"rat": ["1", "t^3"]}}]})

#: One valid argv per subcommand, every option as --name=value, small budget.
FUZZ_CORPUS = (
    ["exponents", "--p=3", "--set=3,9,2", "--emit=shadow,kstar"],
    ["cf", "--field=q=2", "--alpha=t^2+1 / t^3", "--max-terms=8"],
    ["weyl", "--field=q=3", "--f=" + _F3, "--N=2"],
    ["weyl", "--field=q=4", "--f=" + _F4, "--N=2", "--m=t"],
    ["equidist", "--field=q=2", "--f=" + _F2, "--N=1..3", "--D=2", "--depth=1"],
    ["js", "--field=q=2", "--set=1,2", "--s=2", "--N=1,2"],
    ["probe", "--field=q=3", "--f=" + _F3, "--k=2", "--N=3", "--eta=2"],
    ["intersective", "--field=q=2", "--phi=u^2", '--A={"mod":"t","residues":["0"]}',
     "--N=3", "--xbound=2"],
    ["intersective", "--field=q=3", "--phi=u^2+t", '--A={"elems":["0","1","t"]}',
     "--N=2", "--xbound=1"],
    ["sieve-tmn", "--field=q=2", "--phi=u^2", "--alpha=1 / t+1", "--M=2", "--N=1,2"],
)

#: Replacement values by option; options left out (--out, --mode) take
#: choices, which argparse itself enforces (and reports as a DomainError).
_INTS = ("-1", "-7", "0", "1", "3", "9", "abc", "1.5")
_INT_LISTS = ("", " ", "-3", "0", "5..1", "1..", "-2..1", "1,,2", "a", "0..2")
_JSON = ("", "5", "[]", "{", "{}", '{"field": 5, "terms": []}',
         '{"terms": 5}', '{"terms": [5]}', '{"terms": [{"exp": "1", "coeff": {}}]}',
         '{"terms": [{"exp": -1, "coeff": {"rat": ["1", "t"]}}]}',
         '{"terms": [{"exp": 1, "coeff": {"rat": ["1"]}}]}',
         '{"terms": [{"exp": 1, "coeff": {"rat": [1, 2]}}]}',
         '{"terms": [{"exp": 1, "coeff": {"series": "t^-1", "floor": "x"}}]}',
         '{"terms": [{"exp": 1, "coeff": {"kernel": {"floor": null}}}]}',
         '{"terms": [{"exp": 1, "coeff": {"kernel": {"floor": -9, "seed": []}}}]}',
         '{"elems": 5}', '{"elems": [5]}', '{"elems": []}', '{"elems": ["0", "t^9"]}',
         '{"mod": 5, "residues": []}', '{"mod": "0", "residues": ["1"]}',
         '{"mod": "t", "residues": [null]}',
         # literals of degree or depth 10^6 to 10^8, charged before they are built
         '{"terms": [{"exp": 1, "coeff": {"rat": ["t^100000000", "t+1"]}}]}',
         '{"terms": [{"exp": 1, "coeff": {"series": "1 + O(t^-10000000)"}}]}',
         '{"terms": [{"exp": 1, "coeff": {"series": "t^1000000 / t+1", "floor": -5}}]}',
         '{"terms": [{"exp": 1, "coeff": {"series": "1 / t+1", "floor": -99999999}}]}',
         '{"elems": ["0", "t^100000000"]}', '{"mod": "t^1000000", "residues": ["1"]}')
_TEXT = ("", " ", "q=", "q=6", "q=4 modulus=x^2+1", "q=2^", "t^", "t^-1", "1/0",
         "u^-1", "u^", "[1", "x", "%%", "O(t^3", "1 / t + O(t^-3)", "shadow,bogus",
         # literals of degree or depth 10^6 to 10^8, charged before they are built
         "t^1000000", "t^99999999 / t+1", "1 + O(t^-10000000)", "t^1000000 + O(t^-3)",
         "(t^100000000+1)*u", "q=4 modulus=x^99999999+x+1", "q=8 modulus=x^1000000+x+1")
_POOLS = {
    **dict.fromkeys(("--p", "--max-terms", "--D", "--depth", "--s", "--k", "--eta",
                     "--M", "--xbound", "--budget"), _INTS),
    "--set": _INT_LISTS,
    "--f": _JSON, "--A": _JSON,
    **dict.fromkeys(("--field", "--alpha", "--phi", "--m", "--emit"), _TEXT),
}


def test_cli_fuzz_exit_codes(capsys):
    """Mutated option values never crash: exit 0, 2 or 3, JSON error last."""
    rng = random.Random(2024)
    for _ in range(500):
        base = rng.choice(FUZZ_CORPUS) + ["--budget=5000"]
        argv = list(base)
        for i in rng.sample(range(1, len(argv)), rng.randint(1, 2)):
            name = argv[i].split("=", 1)[0]
            if name == "--N":
                pool = _INTS if argv[0] in ("weyl", "probe", "intersective") else _INT_LISTS
            else:
                pool = _POOLS[name]
            argv[i] = f"{name}={rng.choice(pool)}"
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
            pytest.fail(f"{argv}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        if code:
            assert "error" in json.loads(err.strip().splitlines()[-1]), argv


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "ffweyl.cli", "exponents", "--p", "2",
         "--set", "1", "--bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_parse_upoly():
    F2 = field(2)
    phi = parse_upoly(F2, "(t^2+1)*u^3 + u + t")
    assert phi[3] == parse_poly(F2, "t^2+1")
    assert phi[1] == F2.poly_one
    assert phi[0] == F2.poly_t
    assert parse_upoly(F2, "u^2") == {2: F2.poly_one}
    F3 = field(3)
    phi = parse_upoly(F3, "2*u^2 - u")
    assert phi[2] == parse_poly(F3, "2") and phi[1] == parse_poly(F3, "2")
    assert parse_upoly(F3, "(t+1)*u") == {1: parse_poly(F3, "t+1")}
    assert parse_upoly(F3, "t*u") == {1: F3.poly_t}
    # each form reads alike in u, in t and in a modulus in x, or is refused
    # by all three with a DomainError
    readers = (lambda s: {e: c.coeffs[0] for e, c in parse_upoly(F3, s).items()},
               lambda s: parse_terms(F3, s.replace("u", "t")),
               lambda s: dict(enumerate(parse_fp_poly(s.replace("u", "x"), 3, 3))))
    for text, want in (("2*u", {1: 2}), ("2u", {1: 2}), ("*u", {1: 1}), ("u ^3", {3: 1}),
                       ("u^+3", {3: 1}), ("u*2", None)):
        for read in readers:
            if want is None:
                with pytest.raises(DomainError):
                    read(text)
            else:
                assert {e: c for e, c in read(text).items() if c} == want, text


_F2_RAT = json.dumps({"field": "q=2", "terms": [
    {"exp": 1, "coeff": {"rat": ["t+1", "t^5+t^2+1"]}},
    {"exp": 3, "coeff": {"rat": ["1", "t^7+t+1"]}}]})


def test_digit_rows_charge_every_digit_before_any_sum(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["equidist", "--field", "q=2", "--f", _F2_RAT, "--N", "10",
                              "--D", "1", "--depth", "20000"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    # q^N * depth * log_p(q) = 1024 * 20000 digit residues
    message = "cylinder count of 20480000 points exceeds budget 16777216"
    assert json.loads(err)["error"] == {"type": "BudgetError", "message": message}


@pytest.mark.parametrize("q, f_json, first", [
    (2, _F2_RAT, 14281),   # 2^14281 is the least power of 2 with 4300 digits
    (3, _F3_LIN, 9011)], ids=["q=2", "q=3"])
def test_unprintable_discrepancy_is_refused_before_any_sum(capsys, q, f_json, first):
    scan = ["equidist", "--field", f"q={q}", "--f", f_json, "--N", "1", "--D", "1", "--depth"]
    for depth in (first, 30000):
        start = time.perf_counter()
        code, out, err = run_cli(scan + [str(depth)], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert json.loads(err)["error"] == {"type": "DomainError", "message":
                                            f"the depth-{depth} discrepancy denominator "
                                            f"{q}^{depth} has at least 4300 digits"}
    doc = run_json(scan + [str(first - 1)], capsys)
    disc = doc["result"]["rows"][0]["discrepancy"]
    assert len(str(Fraction(disc).denominator)) <= 4299


def test_depth_below_one_is_refused(capsys):
    for depth in ("0", "-2"):
        code, out, err = run_cli(["equidist", "--field", "q=2", "--f", _F2_RAT, "--N", "1..3",
                                  "--D", "1", "--depth", depth], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"] == {"type": "DomainError",
                                            "message": "depth must be at least 1"}


def _fresh_process(argv, **kwargs):
    proc = subprocess.run([sys.executable, "-m", "ffweyl.cli"] + argv, capture_output=True,
                          text=True, timeout=120, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_leaks_nothing_between_commands(capsys, monkeypatch):
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        argparse.ArgumentParser.__init__(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    weyl = ["weyl", "--field", "q=2", "--f", _F2_RAT, "--N", "4"]
    exponents = ["exponents", "--p", "2", "--set", "1,3"]
    sequence = (["--seed", "5", "--out", "csv"] + exponents,  # global options before
                exponents,  # the default JSON and seed
                exponents + ["--out", "csv", "--seed", "7"],  # and after the subcommand
                ["--budget", "10"] + weyl,  # exit 3
                weyl,
                weyl[:-2],  # no --N: exit 2
                weyl)
    fresh = {}
    codes = []
    for argv in sequence:
        result = run_cli(argv, capsys)
        if not codes:
            assert built  # the first call builds the parser
            first = len(built)
        codes.append(result[0])
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _fresh_process(argv)
        assert result == fresh[tuple(argv)], argv
    assert len(built) == first
    assert codes == [0, 0, 0, 3, 0, 2, 0]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_limited(argv):
    """argv in a fresh process under a 2 GB address space, where a list of
    10^8 ints would be a MemoryError; it must finish within 15 s."""
    start = time.perf_counter()
    result = _fresh_process(argv, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 15
    return result


@pytest.mark.parametrize("argv, message", [
    (["equidist", "--field", "q=2", "--f", _F2_RAT, "--N", "1..100000000", "--D", "1"],
     "twist scan of 33554432 points exceeds budget 16777216"),
    (["js", "--field", "q=2", "--set", "1,2", "--s", "1", "--N", "1..100000000"],
     "histogram mean-value scan of 33554432 points exceeds budget 16777216"),
    (["sieve-tmn", "--field", "q=2", "--phi", "u^2", "--alpha", "1 / t+1", "--M", "2",
      "--N", "1..100000000"],
     "congruence average of 33554432 points exceeds budget 16777216")],
    ids=["equidist", "js", "sieve-tmn"])
def test_long_n_ranges_are_refused_without_being_listed(argv, message):
    code, out, err = _run_limited(argv)
    assert code == 3 and not out
    assert json.loads(err) == {"error": {"type": "BudgetError", "message": message}}


def test_a_huge_shadow_is_refused_before_it_is_built():
    # at p = 2 every positive integer below 2^30 - 1 = 1073741823 lies digitwise below it
    start = time.perf_counter()
    code, out, err = _fresh_process(["exponents", "--p", "2", "--set", "1073741823"])
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert json.loads(err) == {"error": {
        "type": "BudgetError", "message": "shadow of 1073741823 points exceeds budget 16777216"}}


def _one_term(r):
    return json.dumps({"field": "q=2", "terms": [{"exp": r, "coeff": {"rat": ["1", "t+1"]}}]})


def test_a_high_power_reads_only_its_shadow():
    # 8192 = 2^13: the engine reads x^0 and x^8192, one Frobenius step apart
    code, out, err = _run_limited(["weyl", "--field", "q=2", "--N", "3", "--f", _one_term(8192)])
    assert code == 0, err
    f = ExpPoly.from_json(json.loads(_one_term(8192)))
    direct = CharSum.from_residues(2, weyl_residues(f, 3, method="direct"))
    assert json.loads(out)["result"]["counts"] == list(direct.counts)


def test_an_all_ones_exponent_is_refused_before_its_power_table():
    # 2^20 - 1 has 2^20 exponents digitwise below it
    start = time.perf_counter()
    code, out, err = _fresh_process(["weyl", "--field", "q=2", "--N", "3",
                                     "--f", _one_term((1 << 20) - 1)])
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert json.loads(err) == {"error": {
        "type": "BudgetError",
        "message": "power table of 2199025352704 points exceeds budget 16777216"}}


@pytest.mark.parametrize("argv", [
    ["exponents", "--p", "2", "--set", "1..100000000"],
    ["js", "--field", "q=2", "--set", "1..100000000", "--s", "1", "--N", "1"]],
    ids=["exponents", "js"])
def test_long_exponent_sets_are_refused_before_they_are_built(argv):
    code, out, err = _run_limited(argv)
    assert code == 3 and not out
    assert json.loads(err) == {"error": {
        "type": "BudgetError",
        "message": "exponent set of 100000000 points exceeds budget 16777216"}}


def _rat_f(num, den):
    return json.dumps({"field": "q=2", "terms": [{"exp": 1, "coeff": {"rat": [num, den]}}]})


@pytest.mark.parametrize("argv, code, message", [
    (["cf", "--field", "q=2", "--alpha", "t^99999999 / t+1", "--max-terms", "3"], 3,
     "polynomial literal of 100000000 points exceeds budget 16777216"),
    (["weyl", "--field", "q=2", "--N", "1", "--f", _rat_f("t^99999999", "t+1")], 3,
     "polynomial literal of 100000000 points exceeds budget 16777216"),
    (["weyl", "--field", "q=2", "--N", "1", "--f", json.dumps({"field": "q=2", "terms": [
        {"exp": 1, "coeff": {"series": "1 + O(t^-99999999)"}}]})], 3,
     "series literal of 100000000 points exceeds budget 16777216"),
    (["cf", "--field", "q=4 modulus=x^99999999+x+1", "--alpha", "1 / t"], 2,
     "modulus exponent 99999999 outside 0..2")],
    ids=["cf-alpha", "f-rat", "f-series", "field-modulus"])
def test_literals_are_charged_before_they_are_built(argv, code, message):
    start = time.perf_counter()
    got = _fresh_process(argv, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 1
    assert got[0] == code and not got[1]
    error = json.loads(got[2])["error"]
    assert error == {"type": "BudgetError" if code == 3 else "DomainError", "message": message}
