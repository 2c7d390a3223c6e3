"""One pass over a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

Times its own set-up (``import ffweyl.cli`` plus ``build_parser()``, measured
from the start of this script), then runs every operation of the workload
once, back to back, and prints one JSON line: set-up and pass times, peak
RSS, and each operation's exit code and output.  With ``--trace`` the public
functions of the program are wrapped first (see tracing.py) and the line
also carries the per-layer metrics.

Only the checkout's own ``src`` is imported, never an installed ffweyl.
"""
import time

from speed import reference

_REF0 = [reference(), reference()]
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import ffweyl.cli
    if not Path(ffweyl.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ffweyl imported from {ffweyl.cli.__file__}, not {SRC}")
    ffweyl.cli.build_parser()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    _import_program()
    record = {"setup_s": time.perf_counter() - _T0}
    # The loop's speed around the set-up: the mean of the middle two of four.
    refs = sorted(_REF0 + [reference(), reference()])
    record["setup_ref"] = (refs[1] + refs[2]) / 2
    if not args.setup_only:
        import libops
        import workloads
        ops = workloads.generate(args.workload, args.seed)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        run_s, results = libops.run_pass(ops, tracer)
        record.update(run_s=run_s, ops=results)
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.spans()
            record["layers"] = tracing.layer_metrics(spans, tracer.counts, ops, run_s)
            if args.spans_out:
                tracing.write_spans(spans, args.spans_out)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
