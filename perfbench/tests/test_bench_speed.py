from pytest import approx

import run
import speed


def _record(slowdown):
    """A pass on a machine ``slowdown`` times slower than nominal."""
    ref = speed.NOMINAL_S * slowdown
    return {"setup_s": 0.2 * slowdown, "setup_ref": ref, "rss_mb": 50.0,
            "ops": [{"dt": 1.0 * slowdown, "ref": ref}, {"dt": 3.0 * slowdown, "ref": ref}]}


def test_machine_speed_cancels_out_of_scaled_times():
    ops = [{"points": 10}, {"points": 30}]
    metrics = run.end_to_end(ops, [_record(1.5)], [_record(1.0), _record(2.0), _record(1.3)])
    assert metrics["run_s"]["value"] == approx(4.0)
    assert metrics["setup_s"]["value"] == approx(0.2)
    assert metrics["points_per_s"]["value"] == approx(10.0)


def test_a_slower_program_still_reads_slower():
    slow = _record(1.0)
    slow["ops"][1]["dt"] *= 2
    assert run.end_to_end([{"points": 1}] * 2, [], [slow])["run_s"]["value"] == approx(7.0)


def test_reference_loop_takes_measurable_time():
    assert speed.reference() > 0
