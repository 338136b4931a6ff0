"""Deterministic fault injection: events, schedules, the injector."""

import pytest
from fault_schedules import generate_schedule

from repro.resilience import FaultEvent, FaultInjector, FaultSchedule


# -- events & schedules -------------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError, match="batch"):
        FaultEvent.fail_stop(-1, 0)


def test_schedule_canonical_order_and_lookup():
    sched = FaultSchedule(
        events=(
            FaultEvent.fail_stop(3, 2),
            FaultEvent.fail_stop(1, 0),
            FaultEvent.fail_stop(3, 1),
        )
    )
    assert [(e.batch, e.device) for e in sched.events] == [(1, 0), (3, 1), (3, 2)]
    assert [e.device for e in sched.events_at(3)] == [1, 2]
    assert sched.events_at(0) == ()


def test_generate_is_deterministic_and_bounded():
    def draw(seed):
        return generate_schedule(
            seed=seed, num_devices=4, num_batches=50, fail_stop_prob=0.05
        )

    a = draw(7)
    assert a.events == draw(7).events
    # Never kills the last survivor.
    assert 0 < len(a.events) <= 3
    assert a.events != draw(8).events


def test_generate_fails_each_device_once_and_keeps_a_survivor():
    for seed in range(5):
        sched = generate_schedule(
            seed=seed, num_devices=4, num_batches=6, fail_stop_prob=0.9
        )
        devices = [e.device for e in sched.events]
        assert len(devices) == len(set(devices)) == 3
        assert all(0 <= e.batch < 6 and 0 <= e.device < 4 for e in sched.events)


def test_generate_honours_max_fail_stops():
    sched = generate_schedule(
        seed=0, num_devices=8, num_batches=10, fail_stop_prob=1.0,
        max_fail_stops=2,
    )
    assert sched.events == (FaultEvent.fail_stop(0, 0), FaultEvent.fail_stop(0, 1))


def test_schedules_of_one_event_set_are_equal():
    a, b = FaultEvent.fail_stop(4, 1), FaultEvent.fail_stop(2, 3)
    assert FaultSchedule(events=(a, b)) == FaultSchedule(events=(b, a))


# -- the injector -------------------------------------------------------
def test_injector_fail_stop_is_permanent():
    inj = FaultInjector(FaultSchedule(events=(FaultEvent.fail_stop(2, 1),)))
    assert inj.begin_batch(0).new_failures == ()
    assert inj.begin_batch(1).failed == ()
    state = inj.begin_batch(2)
    assert state.new_failures == (1,) and state.failed == (1,)
    later = inj.begin_batch(3)
    assert later.new_failures == () and later.failed == (1,)
    assert inj.event_log == [FaultEvent.fail_stop(2, 1)]


def test_a_dead_device_does_not_fail_again():
    inj = FaultInjector(
        FaultSchedule(
            events=(FaultEvent.fail_stop(1, 0), FaultEvent.fail_stop(2, 0))
        )
    )
    assert [inj.begin_batch(b).new_failures for b in range(3)] == [(), (0,), ()]
    assert inj.event_log == [FaultEvent.fail_stop(1, 0)]


def test_an_empty_schedule_leaves_every_batch_clean():
    inj = FaultInjector(FaultSchedule())
    states = [inj.begin_batch(b) for b in range(4)]
    assert all(s.new_failures == () and s.failed == () for s in states)
    assert [s.batch for s in states] == [0, 1, 2, 3]
    assert inj.event_log == [] and inj.failed == set()


def test_event_log_replays_bit_identically():
    sched = generate_schedule(
        seed=3, num_devices=4, num_batches=30, fail_stop_prob=0.05
    )

    def log(inj):
        for batch in range(30):
            inj.begin_batch(batch)
        return inj.event_log

    assert log(FaultInjector(sched)) == log(FaultInjector(sched))
