"""The ffweyl benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-digests

Run from the root of a checkout.  Each workload (see workloads.py) is a
closed loop with one client: passes over the workload's operation list run
back to back, each in a fresh Python process (worker.py), so module caches
start cold as they do for a CLI user.  Passes repeat until the next one
would end after ``--seconds``.  Every outcome is checked (check.py) outside
the timed region: the first pass fully, later passes byte for byte against
the first.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
setup_s (import ffweyl.cli plus build_parser, also sampled by extra
set-up-only processes), run_s (one pass), points_per_s (elements the pass
enumerates per second of run_s) and peak_rss_mb (peak RSS of a pass
process).  setup_s and run_s are scaled to a machine of nominal speed by a
reference loop timed next to them (speed.py); the unscaled times are
printed too.  The failed fraction is ``failed / attempted`` of the result
line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (tracing.py), medians over the traced passes, plus
trace.overhead_frac, the traced run_s over the untraced one, minus one.
The spans of each traced pass are saved under perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without src/ffweyl in the checkout the
command exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 5      # set-up-only processes per run, besides one per pass
MIN_PASSES = 3        # untraced passes in a --trace 0 run, whatever --seconds says
PASS_TIMEOUT = 120    # seconds; a pass that takes longer is killed

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class PassError(RuntimeError):
    """A worker process failed or printed no record."""


def run_worker(workload, seed, *flags):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=PASS_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


class Run:
    """The passes of one benchmark run and the checks of their outcomes."""

    def __init__(self, workload, seed, ops, checker):
        self.workload, self.seed, self.ops = workload, seed, ops
        self.checker = checker
        self.first = None
        self.attempted = self.failed = 0
        self.problems = []

    def check(self, results):
        for op, result in zip(self.ops, results, strict=True):
            if self.first is None:
                problems = self.checker.check(op, result)
            else:
                first = self.first[op["id"]]
                same = all(result[k] == first[k] for k in ("exit", "out", "err"))
                problems = [] if same else ["outcome differs from the first pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append((op["id"], problems))
        if self.first is None:
            self.first = {op["id"]: r for op, r in zip(self.ops, results)}

    def passes(self, seconds, traced):
        """Run passes until the next would end after ``seconds``.

        Yields (is_traced, record).  Untraced passes alternate with traced
        ones when ``traced`` is set.
        """
        start = time.perf_counter()
        walls = {False: [], True: []}
        k = 0
        while True:
            is_traced = traced and k % 2 == 1
            flags = []
            if is_traced:
                OUT.mkdir(exist_ok=True)
                flags = ["--trace", "--spans-out",
                         str(OUT / f"spans-{self.workload}-{self.seed}-{k}.npz")]
            record = run_worker(self.workload, self.seed, *flags)
            self.check(record["ops"])
            walls[is_traced].append(record["wall_s"])
            yield is_traced, record
            k += 1
            nxt = traced and k % 2 == 1
            enough = (len(walls[False]) >= (1 if traced else MIN_PASSES)
                      and (not traced or walls[True]))
            estimate = statistics.median(walls[nxt] or walls[False])
            if enough and time.perf_counter() - start + estimate > seconds:
                return


def scaled(dt, ref):
    """A time measured next to a reference loop of ``ref`` seconds, at nominal speed."""
    return dt * speed.NOMINAL_S / ref


def op_medians(ops, records, scale=True):
    """Each operation's median time over the passes."""
    return [statistics.median(scaled(r["ops"][i]["dt"], r["ops"][i]["ref"]) if scale
                              else r["ops"][i]["dt"] for r in records)
            for i in range(len(ops))]


def setup_times(setups, scale=True):
    return [scaled(r["setup_s"], r["setup_ref"]) if scale else r["setup_s"]
            for r in setups]


def end_to_end(ops, setups, records):
    # The sum of per-operation medians: a machine that is slow for part of a
    # pass moves it less than the median of whole-pass times.
    run_s = sum(op_medians(ops, records))
    points = sum(op["points"] for op in ops)
    values = {
        "setup_s": statistics.median(setup_times(setups + records)),
        "run_s": run_s,
        "points_per_s": points / run_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain, traced):
    layers = [r["layers"] for r in traced]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]}
    values["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain) - 1)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.PER_LAYER}


def write_digests(workload, seed):
    """Pin the outcomes of one fully checked pass at the default seed."""
    import check
    ops = workloads.generate(workload, seed)
    run = Run(workload, seed, ops, check.Checker())
    run.check(run_worker(workload, seed)["ops"])
    if run.failed:
        sys.exit(f"not pinning failing outcomes: {run.problems}")
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned[workload] = {op_id: check.digest(r) for op_id, r in run.first.items()}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} outcomes of {workload} at seed {seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ffweyl" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'ffweyl'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    if args.write_digests:
        write_digests(args.workload, args.seed)
        return 0

    ops = workloads.generate(args.workload, args.seed)
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())[args.workload]
    run = Run(args.workload, args.seed, ops, check.Checker(pinned))
    t0 = time.perf_counter()
    setups = [] if args.trace else [
        run_worker(args.workload, args.seed, "--setup-only")
        for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    for is_traced, record in run.passes(args.seconds - (time.perf_counter() - t0),
                                        bool(args.trace)):
        (traced if is_traced else plain).append(record)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(ops, setups, plain)

    for op_id, problems in run.problems[:20]:
        print(f"FAILED {op_id}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {run.attempted} operations checked, "
          f"{run.failed} failed")
    for kind, records in (("untraced", plain), ("traced", traced)):
        if records:
            print(f"  {kind} run_s: " + " ".join(f"{r['run_s']:.3f}" for r in records))
    if not args.trace:
        print(f"  unscaled setup_s {statistics.median(setup_times(setups + plain, False)):.4f}"
              f" run_s {sum(op_medians(ops, plain, False)):.4f}")
        for op, dt in zip(ops, op_medians(ops, plain)):
            print(f"  op {op['id']} {dt:.4f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {run.failed / run.attempted:.6g} ratio")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
