"""The adaptive runtime wired into the CLM engine end-to-end."""

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.gaussians.model import GaussianModel

BATCHES = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 1, 3], [0, 2, 4, 6]]


@pytest.fixture(scope="module")
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    return trainable_scene, init


def run(setup, seed=0, **cfg_kwargs):
    scene, init = setup
    sess = repro.session(
        scene,
        engine="clm",
        config=EngineConfig(batch_size=4, seed=seed, **cfg_kwargs),
        initial_model=init,
    )
    results = [sess.train_batch(batch) for batch in BATCHES]
    return sess, results


def test_session_tuner_property(setup):
    plain, _ = run(setup)
    assert plain.tuner is None
    tuned, _ = run(setup, autotune=True)
    assert tuned.tuner is not None
    assert tuned.tuner is tuned.engine.tuner


def test_autotuned_results_stamped(setup):
    sess, results = run(
        setup,
        autotune=True,
        autotune_workers=(0, 2),
        autotune_orderings=("tsp",),
    )
    for result in results:
        assert result.autotuned
        assert result.tuned_workers in (0, 2)
        assert result.tuned_ordering == "tsp"
        assert result.predicted_makespan_s > 0.0
        assert result.autotune_rel_error >= 0.0
    assert sess.tuner.stats.batches == len(BATCHES)
    # One calibration probe, then the model decides.
    assert sess.tuner.stats.explored_batches == 1


def test_autotuned_batch_culls_once(setup, monkeypatch):
    """The candidate orderings plan the same index sets: one cull per
    batch, however many orderings the tuner prices."""
    from repro.engines import base

    calls = []

    def counting_cull(self, view_ids):
        calls.append(len(view_ids))
        return cull_views(self, view_ids)

    cull_views = base.EngineBase.cull_views
    monkeypatch.setattr(base.EngineBase, "cull_views", counting_cull)
    _, results = run(
        setup, autotune=True, autotune_orderings=("tsp", "gs_count", "identity")
    )
    assert all(r.autotuned for r in results)
    assert calls == [len(batch) for batch in BATCHES]


def test_untuned_results_not_stamped(setup):
    _, results = run(setup)
    for result in results:
        assert not result.autotuned
        assert result.tuned_workers is None
        assert result.predicted_makespan_s == 0.0


def test_perf_counters_fold_tuning(setup):
    sess, _ = run(setup, autotune=True, autotune_orderings=("tsp",))
    perf = sess.perf
    assert perf.autotuned_batches == len(BATCHES)
    assert perf.predicted_makespan_s > 0.0
    assert perf.autotune_mean_rel_error >= 0.0
    assert perf.tuned_config  # last chosen config recorded
    assert set(perf.tuned_config) == {"overlap_workers", "ordering"}


def test_autotune_bit_identical_to_plain_run(setup):
    """With the ordering pinned, tuning workers (and never the backend,
    the default) changes timing only — not one bit of results.
    Ordering stays a *semantic* knob: tuning over several orderings
    changes results exactly as the ``ordering`` config always has."""
    plain, _ = run(setup)
    tuned, _ = run(setup, autotune=True, autotune_orderings=("tsp",))
    a, b = plain.snapshot_model(), tuned.snapshot_model()
    for name in a.parameters():
        assert np.array_equal(
            a.parameters()[name], b.parameters()[name]
        ), f"autotune changed {name}"


def test_autotune_composes_with_task_graph(setup):
    plain, _ = run(setup)
    tuned, results = run(
        setup, autotune=True, use_task_graph=True,
        autotune_orderings=("tsp",),
    )
    assert all(r.autotuned for r in results)
    a, b = plain.snapshot_model(), tuned.snapshot_model()
    for name in a.parameters():
        assert np.array_equal(a.parameters()[name], b.parameters()[name])


def test_tuned_batches_render_with_the_live_settings(setup):
    """Tuning overlays nothing on the raster settings: the engine renders
    with ``config.raster`` itself."""
    sess, _ = run(setup, autotune=True, autotune_orderings=("tsp",))
    assert sess.engine.raster_settings is sess.engine.config.raster


def test_engine_close_closes_all_warm_runtimes(setup):
    sess, _ = run(
        setup, autotune=True, autotune_workers=(0, 1, 2), use_task_graph=True
    )
    engine = sess.engine
    assert engine._graph_runtimes  # tuning warmed at least one pool
    engine.close()
    for runtime in engine._runtimes.values():
        assert runtime._closed
    for runtime in engine._graph_runtimes.values():
        assert runtime._closed


def test_prediction_prices_the_overlap_ablation(setup):
    """``enable_overlap_adam=False`` runs every chunk at batch end; the
    tuner must price that DAG, not the eager one."""
    from repro.autotune import TunedConfig

    ablated, _ = run(
        setup, autotune=True, enable_overlap_adam=False,
        autotune_orderings=("tsp",),
    )
    eager, _ = run(setup, autotune=True, autotune_orderings=("tsp",))
    plan = ablated.engine.plan_batch(BATCHES[0])
    assert sum(plan.adam_chunk_sizes[:-1]) > 0  # something to hide
    config = TunedConfig(2, "tsp")

    schedule = ablated.tuner.build_simulator(plan, config).run()
    tasks = [rec.task for rec in schedule.records.values()]
    last_step = max(t.task_id for t in tasks if t.kind == "step")
    adams = [t for t in tasks if t.kind == "adam"]
    assert len(adams) == sum(1 for size in plan.adam_chunk_sizes if size)
    assert all(t.deps == (last_step,) for t in adams)

    # The same Adam-heavy machine on both sides: batch-end Adam has
    # nothing to hide under, eager Adam does.
    rates = {
        ("adam",): 1e-3,
        ("critical_adam",): 1e-7,
        ("overhead",): 1e-7,
        ("forward",): 1e-6,
        ("backward",): 1e-6,
    }
    ablated.tuner.model._rates = dict(rates)
    eager.tuner.model._rates = dict(rates)
    assert ablated.tuner.predict_makespan(plan, config) > (
        eager.tuner.predict_makespan(plan, config)
    )
