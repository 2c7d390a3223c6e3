import io
import contextlib
from array import array

import pytest

import tracing


def _spans(rows, names):
    """rows: (name id, start, end, parent, op, flags)."""
    cols = tracing.Spans(list(names), array("H"), array("d"), array("d"),
                         array("q"), array("q"), array("d"), array("B"))
    for nid, s, e, parent, op, flags in rows:
        cols.name.append(nid)
        cols.start.append(s)
        cols.end.append(e)
        cols.parent.append(parent)
        cols.op.append(op)
        cols.work.append(0)
        cols.flags.append(flags)
    return cols


NAMES = ["cli.main", "equidist.weyl_scan", "expsum.twisted_sum", "algebra.irreducibles"]


def test_self_time_subtracts_children():
    spans = _spans([
        (0, 0.0, 10.0, -1, 0, 0),   # 0 root
        (1, 1.0, 4.0, 0, 0, 0),     # 1 child of root
        (2, 2.0, 3.0, 1, 0, 0),     # 2 grandchild
        (1, 5.0, 6.0, 0, 0, 0),     # 3 child of root
    ], NAMES)
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # two pool threads under one root: [6.5, 9] and [7, 9.5] cover 3, not 4.5
    spans = _spans([
        (0, 0.0, 10.0, -1, 0, 0),
        (1, 6.5, 9.0, 0, 0, 0),
        (1, 7.0, 9.5, 0, 0, 0),
        (2, 7.5, 8.0, 2, 0, 0),
    ], NAMES)
    assert tracing.self_times(spans) == pytest.approx([7.0, 2.5, 2.0, 0.5])


def test_layer_metrics_inclusive_time_skips_nested_calls():
    spans = _spans([
        (3, 0.0, 4.0, -1, 0, 0),                  # irreducibles(2)
        (3, 1.0, 2.0, 0, 0, tracing.NESTED),      # recursive irreducibles(1)
        (0, 5.0, 7.0, -1, 1, 0),                  # cli.main of op 1
        (1, 5.5, 6.5, 2, 1, 0),
        (2, 5.6, 6.0, 3, 1, 0),
    ], NAMES)
    ops = [{"id": "a"}, {"id": "b", "tag": "threads1"}]
    out = tracing.layer_metrics(spans, {}, ops, run_s=8.0)
    assert out["algebra.irreducibles.s"] == pytest.approx(4.0)
    assert out["algebra.self_s"] == pytest.approx(4.0)
    assert out["cli.main.calls"] == 1
    assert out["cli.main.self_s"] == pytest.approx(1.0)
    assert out["equidist.weyl_scan.self_s"] == pytest.approx(0.6)
    assert out["equidist.weyl_scan.twists"] == 1
    assert out["cli.equidist.threads1_s"] == pytest.approx(2.0)
    assert out["trace.unattributed_s"] == pytest.approx(2.0)
    names = {name for name, _, _ in tracing.PER_LAYER}
    assert names - set(out) == {"trace.overhead_frac"}


def test_install_patches_import_sites_and_uninstall_restores():
    import ffweyl.cli
    from ffweyl import expsum
    original = expsum.weyl_sum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ffweyl.cli.weyl_sum is expsum.weyl_sum is not original
        f = '{"field":"q=3","terms":[{"exp":2,"coeff":{"rat":["1","t^2+1"]}}]}'
        with contextlib.redirect_stdout(io.StringIO()):
            assert ffweyl.cli.main(["weyl", "--field", "q=3", "--f", f, "--N", "3"]) == 0
    finally:
        tracer.uninstall()
    assert ffweyl.cli.weyl_sum is expsum.weyl_sum is original
    spans = tracer.spans()
    out = tracing.layer_metrics(spans, tracer.counts, [{"id": "x"}], run_s=1.0)
    assert out["cli.main.calls"] == 1
    assert out["expsum.weyl_sum.calls"] == 1
    assert out["expsum.weyl_sum.points"] == 27
    assert out["algebra.Field.parse.calls"] == 1
    assert out["algebra.Poly.divmod.calls"] > 0
