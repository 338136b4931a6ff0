"""Elastic recovery: snapshots, fail-stop failover, and replay equivalence.

The acceptance bar of the robustness issue:

- a K=4 run with one injected fail-stop must match a fault-free run
  restarted from the same snapshot boundary to <= 1e-10 (it is in fact
  bit-identical);
- the same fault seed must replay to a bit-identical fault event log and
  bit-identical post-recovery parameters.
"""

import numpy as np
import pytest

from repro.core.checkpoint import capture_engine_state, restore_engine_state
from repro.core.config import EngineConfig
from repro.engines.clm_sharded import ShardedCLMEngine
from repro.gaussians.model import GaussianModel
from repro.resilience import FaultEvent, FaultSchedule

BATCHES = [
    [0, 1, 2, 3],
    [4, 5, 6, 7],
    [8, 9, 1, 3],
    [0, 2, 5, 7],
    [1, 4, 6, 9],
    [2, 3, 7, 8],
]


@pytest.fixture()
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    targets = {
        c.view_id: img
        for c, img in zip(trainable_scene.cameras, trainable_scene.images)
    }
    return trainable_scene, init, targets


def make_engine(scene, init, schedule, num_devices=4, **kwargs):
    cfg = EngineConfig(
        batch_size=4,
        num_devices=num_devices,
        fault_schedule=schedule,
        **kwargs,
    )
    return ShardedCLMEngine(init, scene.cameras, cfg)


def params_of(engine):
    return engine.snapshot_model().parameters()


# -- snapshot machinery -------------------------------------------------
def test_snapshot_roundtrip_restores_exact_state(setup):
    scene, init, targets = setup
    engine = make_engine(scene, init, None)
    engine.train_batch(BATCHES[0], targets)
    snap = capture_engine_state(engine)
    before = {k: v.copy() for k, v in params_of(engine).items()}
    engine.train_batch(BATCHES[1], targets)  # diverge
    restore_engine_state(engine, snap)
    after = params_of(engine)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


def test_snapshot_is_a_deep_copy(setup):
    scene, init, targets = setup
    engine = make_engine(scene, init, None)
    snap = capture_engine_state(engine)
    frozen = {k: v.copy() for k, v in snap.params.items()}
    engine.train_batch(BATCHES[0], targets)
    for name in frozen:
        np.testing.assert_array_equal(frozen[name], snap.params[name])


def test_restore_rejects_mismatched_rows(setup):
    scene, init, targets = setup
    engine = make_engine(scene, init, None)
    other = ShardedCLMEngine(
        init.gather(np.arange(init.num_gaussians - 3)),
        scene.cameras,
        EngineConfig(batch_size=4, num_devices=4),
    )
    snap = capture_engine_state(other)
    with pytest.raises(ValueError, match="Gaussians"):
        restore_engine_state(engine, snap)


# -- fail-stop failover -------------------------------------------------
def test_fail_stop_recovers_and_counts(setup):
    scene, init, targets = setup
    sched = FaultSchedule(events=(FaultEvent.fail_stop(2, 1),))
    engine = make_engine(scene, init, sched)
    results = [engine.train_batch(b, targets) for b in BATCHES]
    assert engine.alive == [0, 2, 3]
    faulty = results[2]
    assert faulty.failed_devices == 1
    assert faulty.lost_batches == 1
    assert faulty.recovery_s > 0.0
    assert engine.perf.lost_batches == 1
    assert engine.perf.failed_devices == 1
    assert engine.perf.recovery_s > 0.0
    # Batches before/after the fault are clean.
    assert results[1].failed_devices == 0 and results[3].failed_devices == 0


def test_failover_matches_explicit_removal_bit_exactly(setup):
    """The 1e-10 equivalence criterion (actually exact): a faulty K=4 run
    equals a fault-free run restarted from the same snapshot with the dead
    device removed by hand."""
    scene, init, targets = setup
    faulty = make_engine(
        scene, init, FaultSchedule(events=(FaultEvent.fail_stop(2, 1),))
    )
    for b in BATCHES:
        faulty.train_batch(b, targets)

    twin = make_engine(scene, init, FaultSchedule(events=()))
    for b in BATCHES[:2]:
        twin.train_batch(b, targets)
    twin.remove_device(1)
    for b in BATCHES[2:]:
        twin.train_batch(b, targets)

    assert faulty.alive == twin.alive == [0, 2, 3]
    pf, pt = params_of(faulty), params_of(twin)
    for name in pf:
        np.testing.assert_allclose(
            pf[name], pt[name], atol=1e-10, err_msg=name
        )
        np.testing.assert_array_equal(pf[name], pt[name], err_msg=name)


def test_same_seed_replays_identically(setup):
    scene, init, targets = setup
    sched = FaultSchedule.generate(
        seed=11, num_devices=4, num_batches=len(BATCHES),
        fail_stop_prob=0.15, straggler_prob=0.2, link_fault_prob=0.2,
    )

    def run():
        engine = make_engine(scene, init, sched)
        for b in BATCHES:
            engine.train_batch(b, targets)
        return engine

    a, b = run(), run()
    assert a.injector.log_json() == b.injector.log_json()
    assert a.injector.stats.as_dict() == b.injector.stats.as_dict()
    pa, pb = params_of(a), params_of(b)
    for name in pa:
        np.testing.assert_array_equal(pa[name], pb[name], err_msg=name)


def test_two_fail_stops_leave_two_survivors(setup):
    scene, init, targets = setup
    sched = FaultSchedule(
        events=(FaultEvent.fail_stop(1, 3), FaultEvent.fail_stop(3, 0))
    )
    engine = make_engine(scene, init, sched)
    for b in BATCHES[:5]:
        engine.train_batch(b, targets)
    assert engine.alive == [1, 2]
    assert engine.perf.failed_devices == 2
    assert engine.perf.lost_batches == 2


def test_losing_every_device_raises(setup):
    scene, init, targets = setup
    sched = FaultSchedule(
        events=(FaultEvent.fail_stop(1, 0), FaultEvent.fail_stop(1, 1))
    )
    engine = make_engine(scene, init, sched, num_devices=2)
    engine.train_batch(BATCHES[0], targets)
    with pytest.raises(RuntimeError, match="no survivors"):
        engine.train_batch(BATCHES[1], targets)


def test_remove_device_validates(setup):
    scene, init, targets = setup
    engine = make_engine(scene, init, None, num_devices=2)
    with pytest.raises(ValueError, match="not alive"):
        engine.remove_device(5)
    engine.remove_device(0)
    with pytest.raises(RuntimeError, match="last"):
        engine.remove_device(1)


# -- performance-model faults ------------------------------------------
def test_straggler_slows_makespan_but_not_results(setup):
    scene, init, targets = setup
    clean = make_engine(scene, init, None)
    rc = [clean.train_batch(b, targets) for b in BATCHES[:3]]
    strag = make_engine(
        scene, init,
        FaultSchedule(events=(FaultEvent.straggler(1, 0, 3.0),)),
    )
    rs = [strag.train_batch(b, targets) for b in BATCHES[:3]]
    assert rs[1].sim_makespan_s > rc[1].sim_makespan_s
    assert rs[2].sim_makespan_s == pytest.approx(rc[2].sim_makespan_s)
    pc, ps = params_of(clean), params_of(strag)
    for name in pc:
        np.testing.assert_array_equal(pc[name], ps[name], err_msg=name)


def test_link_fault_costs_retries_into_counters(setup):
    scene, init, targets = setup
    sched = FaultSchedule(
        events=(
            FaultEvent.link_fault(
                1, 0, peer=1, factor=2.0, loss_prob=0.5, duration=2
            ),
        )
    )
    engine = make_engine(scene, init, sched)
    results = [engine.train_batch(b, targets) for b in BATCHES[:4]]
    assert engine.perf.link_retries == engine.injector.stats.link_retries
    assert engine.perf.link_retries > 0
    assert sum(r.link_retries for r in results) == engine.perf.link_retries


@pytest.mark.parametrize("fail_at, devices_saved", [(4, True), (3, True), (3, False)])
def test_a_resumed_run_replays_its_fault_schedule_at_the_same_batches(
    setup, tmp_path, fail_at, devices_saved
):
    """Checkpointed after 3 of 6 batches and restored into a fresh engine,
    a run fails device 1 at batch index ``fail_at`` as the uninterrupted one
    does, and ends with the same 3 devices, losses and parameters.  At index
    3, the first batch after the restore, recovery rolls back to the
    restored state, not to the fresh engine's — also from a file that
    predates saved devices (the engine keeps its own)."""
    import json

    from repro.core.checkpoint import read_checkpoint, restore_into_engine, save_checkpoint

    scene, init, targets = setup
    sched = FaultSchedule(events=(FaultEvent.fail_stop(fail_at, 1),))
    whole = make_engine(scene, init.clone(), sched)
    want = [whole.train_batch(b, targets) for b in BATCHES]
    assert want[fail_at].failed_devices == 1 and whole.alive == [0, 2, 3]

    first = make_engine(scene, init.clone(), sched)
    for b in BATCHES[:3]:
        first.train_batch(b, targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, first)
    if not devices_saved:
        arrays, meta = read_checkpoint(path)
        del meta["alive"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    resumed = make_engine(scene, init.clone(), sched)
    restore_into_engine(path, resumed)
    got = [resumed.train_batch(b, targets) for b in BATCHES[3:]]
    assert [r.failed_devices for r in got] == [r.failed_devices for r in want[3:]]
    assert got[fail_at - 3].failed_devices == 1 and resumed.alive == [0, 2, 3]
    assert [r.loss for r in got] == [r.loss for r in want[3:]]
    got_params, want_params = params_of(resumed), params_of(whole)
    assert all(np.array_equal(got_params[k], want_params[k]) for k in want_params)


@pytest.mark.parametrize("field, value", [
    ("alive", []),
    ("alive", [2, 1]),
    ("alive", [1, 1]),
    ("alive", [0, 3]),
    ("alive", [0, "1"]),
    ("engine_batches", -1),
    ("engine_batches", 2.5),
])
def test_a_checkpoint_whose_devices_or_count_do_not_fit_is_refused_with_nothing_written(
    setup, tmp_path, field, value
):
    """A file whose devices are not increasing ids of the engine's (here 2
    devices), or whose batch count is not an int >= 0, is refused before any
    parameter, device or count is written."""
    import json

    from repro.core.checkpoint import (
        CheckpointError, read_checkpoint, restore_into_engine, save_checkpoint,
    )

    scene, init, targets = setup
    source = make_engine(scene, init.clone(), None, num_devices=2)
    source.train_batch(BATCHES[0], targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, source)
    arrays, meta = read_checkpoint(path)
    meta[field] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    target = make_engine(scene, init.clone(), None, num_devices=2)
    before = params_of(target)
    with pytest.raises(CheckpointError, match="does not fit"):
        restore_into_engine(path, target)
    after = params_of(target)
    assert all(np.array_equal(after[k], before[k]) for k in before)
    assert target.alive == [0, 1] and target.batches_trained == 0
