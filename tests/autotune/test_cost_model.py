"""CostModel unit tests: priors and calibration."""

import pytest

from repro.autotune.cost_model import DISPATCH_OVERHEAD_S, CostModel


def test_priors_are_positive_before_any_measurement():
    m = CostModel()
    assert m.forward_s(1000) > 0.0
    assert m.backward_s(1000) > 0.0
    assert m.adam_s(1000) > 0.0
    assert m.critical_adam_s(1000) > 0.0
    assert m.overhead_s(1000) > 0.0
    assert m.observations == 0


def test_prior_shape_backward_slower_than_forward():
    """The specs encode the relative shape the argmin relies on."""
    m = CostModel()
    assert m.backward_s(1000) > m.forward_s(1000)


def test_first_observation_replaces_prior():
    m = CostModel()
    m.observe(("adam",), units=1000, seconds=2.0)
    assert m.rate(("adam",)) == pytest.approx(2e-3)
    assert m.measured(("adam",))
    assert m.observations == 1


def test_ema_tracks_subsequent_observations():
    m = CostModel(ema=0.5)
    m.observe(("adam",), 1000, 2.0)  # rate 2e-3
    m.observe(("adam",), 1000, 4.0)  # rate 4e-3 -> EMA 3e-3
    assert m.rate(("adam",)) == pytest.approx(3e-3)


def test_empty_measurements_ignored():
    m = CostModel()
    m.observe(("adam",), 0, 1.0)
    m.observe(("adam",), 100, 0.0)
    m.observe(("adam",), 100, -0.5)
    assert not m.measured(("adam",))
    assert m.observations == 0


def test_invalid_ema_rejected():
    with pytest.raises(ValueError):
        CostModel(ema=0.0)
    with pytest.raises(ValueError):
        CostModel(ema=1.5)


def test_rates_never_cross_ops():
    m = CostModel()
    m.observe(("forward",), 1000, 1.0)
    prior_backward = CostModel().rate(("backward",))
    assert m.rate(("backward",)) == pytest.approx(prior_backward)


def test_unknown_op_raises():
    with pytest.raises(KeyError):
        CostModel().rate(("warp_drive",))


def test_snapshot_flat_keys():
    m = CostModel()
    m.observe(("forward",), 1000, 1.0)
    m.observe(("adam",), 1000, 2.0)
    snap = m.snapshot()
    assert snap["adam"] == pytest.approx(2e-3)
    assert snap["forward"] == pytest.approx(1e-3)


def test_dispatch_overhead_is_small_but_nonzero():
    assert 0.0 < DISPATCH_OVERHEAD_S < 1e-3
