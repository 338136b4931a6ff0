"""Per-batch timing and transfer counters (PerfCounters / wall_time_s).

The bench subsystem reads these into BenchRecords; they must be stamped
uniformly by the EngineBase template method for every registered engine.
"""

import pytest

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.model import GaussianModel

BATCH = [0, 1, 2, 3]


@pytest.fixture()
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {c.view_id: img for c, img in
               zip(trainable_scene.cameras, trainable_scene.images)}
    return trainable_scene, init, targets


@pytest.mark.parametrize("name", available_engines())
def test_batch_result_carries_wall_time(name, setup):
    scene, init, targets = setup
    engine = create_engine(name, init, scene.cameras,
                           EngineConfig(batch_size=4))
    result = engine.train_batch(BATCH, targets)
    assert result.wall_time_s > 0.0


@pytest.mark.parametrize("name", available_engines())
def test_batch_result_splits_forward_backward_time(name, setup):
    """The raster forward/backward split (PR 4 instrumentation) is stamped
    per batch and folded into the cumulative counters, and stays inside
    the measured wall time."""
    scene, init, targets = setup
    engine = create_engine(name, init, scene.cameras,
                           EngineConfig(batch_size=4))
    r1 = engine.train_batch(BATCH, targets)
    r2 = engine.train_batch(BATCH, targets)
    for r in (r1, r2):
        assert r.forward_s > 0.0
        assert r.backward_s > 0.0
        assert r.forward_s + r.backward_s <= r.wall_time_s
    perf = engine.perf
    assert perf.forward_s == pytest.approx(r1.forward_s + r2.forward_s)
    assert perf.backward_s == pytest.approx(r1.backward_s + r2.backward_s)


@pytest.mark.parametrize("name", available_engines())
def test_batch_result_carries_cull_time(name, setup):
    """Pre-rendering culling is a stage of every engine's batch: its time
    is stamped per batch and folded into the cumulative counters."""
    scene, init, targets = setup
    engine = create_engine(name, init, scene.cameras,
                           EngineConfig(batch_size=4))
    r1 = engine.train_batch(BATCH, targets)
    r2 = engine.train_batch(BATCH, targets)
    for r in (r1, r2):
        assert 0.0 < r.cull_s < r.wall_time_s
    assert engine.perf.cull_s == pytest.approx(r1.cull_s + r2.cull_s)


@pytest.mark.parametrize("name", available_engines())
def test_pool_enforced_engines_drop_blend_cache_without_touching_config(
    name, setup
):
    """Under an enforced GPU pool every engine opts out of blend-state
    retention (the analytic activation model assumes backward recompute) —
    via its engine-local raster settings, never by mutating the caller's
    shared EngineConfig."""
    scene, init, targets = setup
    shared = EngineConfig(batch_size=4, gpu_capacity_bytes=1e12)
    engine = create_engine(name, init, scene.cameras, shared)
    assert engine.raster_settings.cache_blend_state is False
    assert shared.raster.cache_blend_state is True
    # raster_settings is a live view, not a snapshot: in-place schedule
    # mutations of the shared config (the trainer's SH warmup) show up.
    shared.raster.active_sh_degree = 2
    assert engine.raster_settings.active_sh_degree == 2
    shared.raster.active_sh_degree = None
    # A pool-less engine built from the same config still retains.
    free = create_engine(name, init, scene.cameras,
                         EngineConfig(batch_size=4))
    assert free.raster_settings is free.config.raster
    assert free.raster_settings.cache_blend_state is True


@pytest.mark.parametrize("name", available_engines())
def test_perf_counters_accumulate(name, setup):
    scene, init, targets = setup
    engine = create_engine(name, init, scene.cameras,
                           EngineConfig(batch_size=4))
    assert engine.perf.batches == 0
    assert engine.perf.images_per_second == 0.0
    r1 = engine.train_batch(BATCH, targets)
    r2 = engine.train_batch(BATCH, targets)
    perf = engine.perf
    assert perf.batches == engine.batches_trained == 2
    assert perf.images == 2 * len(BATCH)
    assert perf.wall_time_s == pytest.approx(
        r1.wall_time_s + r2.wall_time_s
    )
    assert perf.loaded_bytes == r1.loaded_bytes + r2.loaded_bytes
    assert perf.stored_bytes == r1.stored_bytes + r2.stored_bytes
    assert perf.transfer_bytes == perf.loaded_bytes + perf.stored_bytes
    assert perf.images_per_second > 0.0


def test_session_exposes_perf_and_history_wall_time(trainable_scene):
    import repro
    from repro.core.trainer import TrainerConfig

    sess = repro.session(
        trainable_scene,
        engine="clm",
        config=EngineConfig(batch_size=4, seed=0),
        trainer_config=TrainerConfig(num_batches=3, batch_size=4, seed=0),
    )
    history = sess.train()
    assert sess.perf is sess.engine.perf
    assert sess.perf.batches == 3
    assert history.wall_time_s > 0.0
    assert sess.metrics.wall_time_s == pytest.approx(history.wall_time_s)
    # CLM moves bytes both ways; the history carries both directions.
    assert history.loaded_bytes > 0.0
    assert history.stored_bytes > 0.0
