"""Overlapped execution must be *bit-identical* to synchronous execution.

The §4.2.2 correctness argument: Adam chunks are pairwise disjoint row
sets, so running chunk ``F_j`` on a worker thread while microbatch ``j+1``
renders cannot change a single bit of any parameter, moment, or step
count.  This suite pins that property end-to-end across every registered
engine, multiple seeds and worker counts — `np.array_equal`, not
allclose — plus the crash-propagation contract (a worker exception
surfaces at the batch-end barrier as a `WorkerError` on the training
thread).
"""

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.engines import available_engines
from repro.engines.clm import CLMEngine
from repro.gaussians.model import GaussianModel
from repro.runtime import WorkerError

BATCHES = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 1, 3]]


@pytest.fixture(scope="module")
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    return trainable_scene, init


def run(setup, engine, seed, workers, **cfg_kwargs):
    scene, init = setup
    sess = repro.session(
        scene,
        engine=engine,
        config=EngineConfig(
            batch_size=4, seed=seed, overlap_workers=workers, **cfg_kwargs
        ),
        initial_model=init,
    )
    for batch in BATCHES:
        sess.train_batch(batch)
    return sess


def assert_bit_identical(a: GaussianModel, b: GaussianModel) -> None:
    for name in a.parameters():
        assert np.array_equal(
            a.parameters()[name], b.parameters()[name]
        ), f"{name} differs between overlapped and sequential execution"


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_overlapped_equals_sequential(setup, engine, seed, workers):
    """workers ∈ {1, 2} vs the synchronous fallback (workers=0)."""
    sequential = run(setup, engine, seed, workers=0)
    overlapped = run(setup, engine, seed, workers=workers)
    assert_bit_identical(
        sequential.snapshot_model(), overlapped.snapshot_model()
    )


def test_overlap_with_batch_end_ablation_still_identical(setup):
    """enable_overlap_adam=False + workers: chunks run at batch end on the
    pool, still bit-identical."""
    sequential = run(setup, "clm", 0, workers=0)
    ablated = run(setup, "clm", 0, workers=2, enable_overlap_adam=False)
    assert_bit_identical(sequential.snapshot_model(), ablated.snapshot_model())


def test_moments_and_steps_bit_identical(setup):
    """Optimizer state (not just parameters) agrees across modes."""
    a = run(setup, "clm", 3, workers=0).engine
    b = run(setup, "clm", 3, workers=2).engine
    for opt_a, opt_b in [
        (a.adam_critical, b.adam_critical),
        (a.adam_noncritical, b.adam_noncritical),
    ]:
        assert np.array_equal(opt_a.packed_m, opt_b.packed_m)
        assert np.array_equal(opt_a.packed_v, opt_b.packed_v)
        assert np.array_equal(opt_a.steps, opt_b.steps)


def test_adam_seconds_counted_every_mode(setup):
    """PerfCounters.adam_s is populated for all engines; hidden time only
    ever appears on the overlap path."""
    for engine in available_engines():
        sess = run(setup, engine, 0, workers=0)
        assert sess.perf.adam_s > 0.0, engine
        assert sess.perf.overlap_hidden_s == 0.0, engine


def test_hidden_seconds_reported_with_workers(setup):
    sess = run(setup, "clm", 0, workers=2)
    assert sess.perf.adam_s > 0.0
    assert sess.perf.overlap_hidden_s >= 0.0
    result = sess.train_batch(BATCHES[0])
    assert result.adam_s > 0.0


def test_worker_crash_surfaces_at_barrier(setup, monkeypatch):
    """A poisoned chunk task raises WorkerError out of train_batch on the
    training thread — never a silent drop, never a worker-thread death."""
    scene, init = setup
    sess = repro.session(
        scene,
        engine="clm",
        config=EngineConfig(batch_size=4, overlap_workers=1),
        initial_model=init,
    )
    targets = sess.targets()

    def boom(rows):
        raise RuntimeError("poisoned chunk")

    monkeypatch.setattr(sess.engine, "_apply_noncritical_adam", boom)
    with pytest.raises(WorkerError) as excinfo:
        sess.engine.train_batch(BATCHES[0], targets)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert "poisoned chunk" in str(excinfo.value.__cause__)


def test_engine_close_stops_workers(setup):
    scene, init = setup
    engine = CLMEngine(
        init, scene.cameras, EngineConfig(batch_size=4, overlap_workers=2)
    )
    assert len(engine.runtime._threads) == 2
    engine.close()
    assert engine.runtime._threads == []
    engine.close()  # idempotent
