"""Protocol conformance: every registered engine satisfies the Engine ABC
and returns the unified BatchResult (ISSUE 1's apples-to-apples contract)."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import (
    BatchResult,
    Engine,
    available_engines,
    create_engine,
)
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


def build(name, setup):
    scene, init, _ = setup
    return create_engine(name, init, scene.cameras, EngineConfig(batch_size=4))


@pytest.mark.parametrize("name", available_engines())
def test_engine_satisfies_protocol(name, setup):
    engine = build(name, setup)
    assert isinstance(engine, Engine)
    for method in ("train_batch", "evaluate", "render_view",
                   "snapshot_model", "rebuild", "cull_views"):
        assert callable(getattr(engine, method))
    assert engine.num_gaussians > 0


@pytest.mark.parametrize("name", available_engines())
def test_train_batch_returns_unified_result(name, setup):
    scene, init, targets = setup
    engine = build(name, setup)
    result = engine.train_batch(BATCH, targets)
    assert isinstance(result, BatchResult)
    assert np.isfinite(result.loss)
    assert set(result.per_view_loss) == set(BATCH)
    assert sorted(result.order) == list(range(len(BATCH)))
    assert result.touched_gaussians > 0
    # Transfer accounting is uniform: zero for GPU-only engines, N per
    # direction for naive offloading, precise counters for CLM.
    assert result.loaded_gaussians >= 0
    assert result.loaded_bytes >= 0
    if name in ("baseline", "enhanced"):
        assert result.loaded_gaussians == result.stored_gaussians == 0
        assert result.loaded_bytes == result.stored_bytes == 0.0
    if name == "naive":
        assert result.loaded_gaussians == init.num_gaussians
        assert result.stored_gaussians == init.num_gaussians
    if name == "clm":
        assert result.loaded_bytes == result.loaded_gaussians * 49 * 4


@pytest.mark.parametrize("name", available_engines())
def test_cull_views_matches_single_level_oracle(name, setup, cull_oracle):
    """One batched call per batch, for every engine (``clm_sharded``
    included): the sets are those of the exact per-view cull on wherever
    the engine keeps its critical attributes — also after they moved."""
    scene, _, targets = setup
    engine = build(name, setup)
    views = [c.view_id for c in scene.cameras]
    for _ in range(2):
        sets = engine.cull_views(views)
        assert len(sets) == len(views)
        for vid, got in zip(views, sets):
            want = cull_oracle(engine.cameras[vid], *engine._culling_arrays())
            assert np.array_equal(got, want)
        engine.train_batch(BATCH, targets)
    assert engine.cull_views([]) == []


@pytest.mark.parametrize("name", available_engines())
def test_evaluate_and_render_view(name, setup):
    scene, init, targets = setup
    engine = build(name, setup)
    value = engine.evaluate([0, 1], targets)
    assert 3.0 < value < 60.0
    image = engine.render_view(0).image
    cam = scene.cameras[0]
    assert image.shape == (cam.height, cam.width, 3)
    assert np.isfinite(image).all()


@pytest.mark.parametrize("name", available_engines())
def test_snapshot_and_rebuild(name, setup):
    scene, init, targets = setup
    engine = build(name, setup)
    engine.train_batch(BATCH, targets)
    model = engine.snapshot_model()
    assert model.num_gaussians == engine.num_gaussians
    bigger = model.extend(model.gather(np.array([0, 1])))
    origins = np.concatenate([np.arange(model.num_gaussians), [-1, -1]])
    engine.rebuild(bigger, origins)
    assert engine.num_gaussians == model.num_gaussians + 2
    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)


@pytest.mark.parametrize("name", available_engines())
def test_position_grad_hook_uniform(name, setup):
    scene, init, targets = setup
    engine = build(name, setup)
    calls = []

    def hook(view_id, working_set, grads):
        calls.append((view_id, working_set.size, grads.shape))

    engine.train_batch(BATCH, targets, position_grad_hook=hook)
    assert [c[0] for c in sorted(calls)] == sorted(BATCH)
    for _, size, shape in calls:
        assert shape == (size, 3)
