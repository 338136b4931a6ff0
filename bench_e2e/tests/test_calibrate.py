import pytest

from bench_e2e import calibrate


def test_slowdown_is_mean_reference_wall_over_nominal():
    nominal = calibrate.REF_NOMINAL_S
    assert calibrate.slowdown(nominal) == pytest.approx(1.0)
    assert calibrate.slowdown(nominal, 3 * nominal) == pytest.approx(2.0)


def test_reference_records_every_sample_and_has_fixed_inputs():
    a, b = calibrate.Reference(), calibrate.Reference()
    first = a.sample()
    second = a.sample()
    assert a.samples == [first, second] and first > 0 and second > 0
    # Same work every time: the inputs are a fixed function of nothing.
    assert (a._table == b._table).all() and (a._index == b._index).all()


def test_a_uniformly_slower_machine_cancels():
    """wall and reference both x1.3 -> the calibrated time is unchanged."""
    wall, ref = 0.200, calibrate.REF_NOMINAL_S * 1.1
    quiet = wall / calibrate.slowdown(ref, ref)
    busy = (1.3 * wall) / calibrate.slowdown(1.3 * ref, 1.3 * ref)
    assert busy == pytest.approx(quiet)
    # ... and a slower *program* on the same machine shows in full.
    slower = (1.3 * wall) / calibrate.slowdown(ref, ref)
    assert slower == pytest.approx(1.3 * quiet)
