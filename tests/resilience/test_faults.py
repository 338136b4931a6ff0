"""Deterministic fault injection: events, schedules, injector, topology."""

import json

import pytest

from repro.hardware.simulator import Simulator
from repro.hardware.specs import HOST, RTX4090_TESTBED, DeviceTopology
from repro.resilience import (
    FAIL_STOP,
    STRAGGLER,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.resilience.faults import LINK_BACKOFF_S, MAX_LINK_RETRIES


# -- events & schedules -------------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultEvent(kind="meteor", batch=0, device=0)
    with pytest.raises(ValueError, match="factor"):
        FaultEvent.straggler(0, 0, factor=0.5)
    with pytest.raises(ValueError, match="loss_prob"):
        FaultEvent.link_fault(0, 0, peer=1, loss_prob=1.0)
    with pytest.raises(ValueError, match="duration"):
        FaultEvent.straggler(0, 0, factor=2.0, duration=0)
    with pytest.raises(ValueError, match="batch"):
        FaultEvent.fail_stop(-1, 0)


def test_schedule_canonical_order_and_lookup():
    sched = FaultSchedule(
        events=(
            FaultEvent.straggler(3, 1, 2.0),
            FaultEvent.fail_stop(1, 0),
            FaultEvent.fail_stop(3, 2),
        )
    )
    assert [e.batch for e in sched.events] == [1, 3, 3]
    assert sched.fail_stop_count == 2
    assert [e.kind for e in sched.events_at(3)] == [FAIL_STOP, STRAGGLER]
    assert sched.events_at(0) == ()


def test_generate_is_deterministic_and_bounded():
    a = FaultSchedule.generate(
        seed=7, num_devices=4, num_batches=50,
        fail_stop_prob=0.05, straggler_prob=0.1, link_fault_prob=0.1,
    )
    b = FaultSchedule.generate(
        seed=7, num_devices=4, num_batches=50,
        fail_stop_prob=0.05, straggler_prob=0.1, link_fault_prob=0.1,
    )
    assert a.events == b.events
    # Never kills the last survivor.
    assert a.fail_stop_count <= 3
    c = FaultSchedule.generate(
        seed=8, num_devices=4, num_batches=50,
        fail_stop_prob=0.05, straggler_prob=0.1, link_fault_prob=0.1,
    )
    assert a.events != c.events


# -- the injector -------------------------------------------------------
def test_injector_fail_stop_is_permanent():
    inj = FaultInjector(FaultSchedule(events=(FaultEvent.fail_stop(2, 1),)))
    assert inj.begin_batch(0).clean
    assert inj.begin_batch(1).clean
    state = inj.begin_batch(2)
    assert state.new_failures == (1,) and state.failed == (1,)
    later = inj.begin_batch(3)
    assert later.new_failures == () and later.failed == (1,)
    assert inj.stats.fail_stops == 1


def test_injector_straggler_expires_after_duration():
    inj = FaultInjector(
        FaultSchedule(events=(FaultEvent.straggler(1, 0, 3.0, duration=2),))
    )
    inj.begin_batch(0)
    assert inj.begin_batch(1).slowdown(0) == 3.0
    assert inj.begin_batch(2).slowdown(0) == 3.0
    assert inj.begin_batch(3).slowdown(0) == 1.0  # expired


def test_event_log_replays_bit_identically():
    sched = FaultSchedule.generate(
        seed=3, num_devices=4, num_batches=30,
        fail_stop_prob=0.05, straggler_prob=0.15, link_fault_prob=0.15,
    )

    def log(inj):
        for batch in range(30):
            state = inj.begin_batch(batch)
            for src, dst in state.link_faults:
                fault = state.link_faults[(src, dst)]
                inj.draw_link_retries(fault.loss_prob)
        return inj.log_json(), json.dumps(inj.stats.as_dict(), sort_keys=True)

    assert log(FaultInjector(sched)) == log(FaultInjector(sched))


def test_link_retries_seeded_and_capped():
    inj = FaultInjector(FaultSchedule(events=(), seed=5))
    draws = [inj.draw_link_retries(0.9) for _ in range(64)]
    inj2 = FaultInjector(FaultSchedule(events=(), seed=5))
    assert draws == [inj2.draw_link_retries(0.9) for _ in range(64)]
    assert all(0 <= d <= MAX_LINK_RETRIES for d in draws)
    assert any(d > 0 for d in draws)
    assert inj.draw_link_retries(0.0) == 0


# -- degraded topology --------------------------------------------------
def test_degraded_topology_costs_retries_and_backoff():
    topo = DeviceTopology.homogeneous(RTX4090_TESTBED, 2)
    inj = FaultInjector(
        FaultSchedule(
            events=(
                FaultEvent.link_fault(0, 0, peer=1, factor=2.0,
                                      loss_prob=0.5),
            ),
            seed=1,
        )
    )
    state = inj.begin_batch(0)
    degraded = inj.degraded_topology(topo, state)
    base_s = topo.transfer_time(0, 1, 1 << 20)
    slow_s = degraded.transfer_time(0, 1, 1 << 20)
    assert slow_s >= 2.0 * base_s  # at least the factor, plus retries
    retries = inj.stats.link_retries
    expected = 2.0 * base_s * (1 + retries) + sum(
        LINK_BACKOFF_S * 2**k for k in range(retries)
    )
    assert slow_s == pytest.approx(expected, rel=1e-12)
    # Unaffected links and delegation pass straight through.
    assert degraded.transfer_time(1, HOST, 1 << 20) == topo.transfer_time(
        1, HOST, 1 << 20
    )
    assert degraded.num_devices == topo.num_devices


def test_clean_state_returns_base_topology():
    topo = DeviceTopology.homogeneous(RTX4090_TESTBED, 2)
    inj = FaultInjector(FaultSchedule(events=()))
    state = inj.begin_batch(0)
    assert inj.degraded_topology(topo, state) is topo


def test_degraded_topology_drives_simulator():
    topo = DeviceTopology.homogeneous(RTX4090_TESTBED, 2)
    sim = Simulator(topology=topo)
    assert sim is not None  # smoke: the base topology stays simulator-valid
