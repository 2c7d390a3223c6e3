import json
import random

import check
import libops
import workloads


def _weyl_op():
    rng = random.Random(11)
    return workloads.weyl_op(rng, "t01", 2, 6, [(3, "rat"), (1, "kernel")])


def _outcome(op):
    code, out, err = libops.run_op(op)
    return {"id": op["id"], "exit": code, "out": out, "err": err}


def test_correct_outcome_passes():
    op = _weyl_op()
    assert check.Checker().check(op, _outcome(op)) == []


def _corrupt(result, *deltas):
    env = json.loads(result["out"])
    for i, d in enumerate(deltas):
        env["result"]["counts"][i] += d
    return dict(result, out=json.dumps(env))


def test_rejects_corrupted_count():
    op = _weyl_op()
    bad = _corrupt(_outcome(op), 1)
    assert any("total" in p for p in check.Checker().check(op, bad))


def test_digest_catches_a_corruption_that_keeps_the_total():
    op = _weyl_op()
    result = _outcome(op)
    pinned = {op["id"]: check.digest(result)}
    bad = _corrupt(result, 1, -1)
    assert any("digest" in p for p in check.Checker(pinned).check(op, bad))


def test_rejects_wrong_exit_code():
    op = dict(_weyl_op(), exit=3)
    assert check.Checker().check(op, _outcome(op))


def test_rejects_digest_mismatch_and_accepts_match():
    op = _weyl_op()
    result = _outcome(op)
    good = {op["id"]: check.digest(result)}
    assert check.Checker(good).check(op, result) == []
    bad = {op["id"]: "0" * 64}
    assert any("digest" in p for p in check.Checker(bad).check(op, result))


def test_digest_ignores_version():
    op = _weyl_op()
    result = _outcome(op)
    env = json.loads(result["out"])
    env["version"] = "9.9.9"
    other = dict(result, out=json.dumps(env))
    assert check.digest(result) == check.digest(other)


def test_expected_error_passes_and_requires_json_stderr():
    rng = random.Random(2)
    op = workloads.budget_op(rng, "t02", 2, 8)
    result = _outcome(op)
    assert result["exit"] == 3
    assert check.Checker().check(op, result) == []
    assert check.Checker().check(op, dict(result, err="Traceback ..."))


def test_rejects_false_shift_identity():
    op = {"id": "t03", "kind": "lib", "fn": "shift_check", "exit": 0,
          "spec": {"q": 2}, "args": {}}
    assert check.Checker().check(op, {"exit": 0, "out": {"ok": False}, "err": ""})


def test_rejects_stdout_that_is_not_json():
    op = _weyl_op()
    result = dict(_outcome(op), out="counts: 1 2\n")
    assert any("malformed" in p for p in check.Checker().check(op, result))


def test_an_escaping_exception_is_a_failed_operation():
    op = {"id": "t04", "kind": "lib", "fn": "shift_check", "exit": 0, "spec": {},
          "args": {"f": {"field": "q=2", "terms": []}, "shifts": [], "N": 1}}
    result = _outcome(op)
    assert result["exit"] == 1 and "Traceback" in result["err"]
    assert check.Checker().check(op, result)
