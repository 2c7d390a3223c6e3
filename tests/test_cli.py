import json
import subprocess
import sys

import jsonschema

from ffweyl.cli import main, parse_upoly
from ffweyl.algebra import parse_poly
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


def test_malformed_input_exits_2(capsys):
    term = {"exp": 1, "coeff": {"rat": ["1", "t"]}}
    for f_obj, N in (({"field": "q=2"}, "2"),
                     ({"field": "q=2", "terms": [{"exp": 1}]}, "2"),
                     ({"field": "q=2", "terms": [term]}, "-1")):
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
                  '{"elems": ["0", "1"]}', "--N", "1", "--xbound", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out, argv
        assert json.loads(err)["error"]["type"] == "DomainError", argv


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
