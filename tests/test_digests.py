"""Every seed-0 operation of the benchmark workloads, run once in-process and
checked against the pinned digests, so that a changed output shows in the
unit tests and not only in a benchmark run."""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import libops  # noqa: E402
import workloads  # noqa: E402

PINNED = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_0_outcomes_match_the_pinned_digests(workload):
    checker = check.Checker(PINNED[workload])
    failed = {}
    for op in workloads.generate(workload, workloads.DEFAULT_SEED):
        code, out, err = libops.run_op(op)
        problems = checker.check(op, {"id": op["id"], "exit": code, "out": out, "err": err})
        if problems:
            failed[op["id"]] = problems
    assert not failed, failed
