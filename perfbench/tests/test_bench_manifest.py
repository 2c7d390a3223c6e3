import json
from pathlib import Path

import run
import tracing
import workloads

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_manifest_lists_what_the_command_reports():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]


def test_digests_cover_every_default_operation():
    pinned = json.loads(run.DIGESTS.read_text())
    for workload in workloads.WORKLOADS:
        ids = [op["id"] for op in workloads.generate(workload, workloads.DEFAULT_SEED)]
        assert sorted(pinned[workload]) == sorted(ids)
