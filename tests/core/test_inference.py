"""Offloaded inference (CLMEngine.render_view)."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.memory_model import MODEL_STATE_FULL_BPG
from repro.engines import CLMEngine
from repro.gaussians.model import GaussianModel
from repro.gaussians.render import render
from test_view_floor import BACKENDS, record_forward


@pytest.fixture()
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    return trainable_scene, init


@pytest.mark.parametrize("backend", BACKENDS)
def test_render_view_matches_full_model_render(setup, backend, monkeypatch):
    """Each view is one bound ``view_forward`` of the working set CLM
    assembled (every row of it) in the engine's forward workspace, with the
    full model's image, bit for bit."""
    scene, init = setup
    engine = CLMEngine(init, scene.cameras, EngineConfig(batch_size=4, kernel_backend=backend))
    calls = record_forward(monkeypatch)
    for cam in scene.cameras[:3]:
        offloaded = engine.render_view(cam.view_id)
        [(used, _, model, settings, rows, workspace, _)] = calls
        assert used == backend and rows is None and workspace is engine._forward_workspace
        assert not settings.cache_blend_state
        assert model.num_gaussians == engine._culling.set_for(cam.view_id).size
        direct = render(cam, init, engine.raster_settings)
        assert np.array_equal(offloaded.image, direct.image)
        assert offloaded.num_rendered == direct.num_rendered
        del calls[:]


@pytest.mark.parametrize("backend", BACKENDS)
def test_render_view_after_training(setup, backend):
    scene, init = setup
    targets = {c.view_id: img for c, img in zip(scene.cameras, scene.images)}
    engine = CLMEngine(init, scene.cameras, EngineConfig(batch_size=4, kernel_backend=backend))
    engine.train_batch([0, 1, 2, 3], targets)
    snapshot = engine.snapshot_model()
    offloaded = engine.render_view(0).image
    direct = render(scene.cameras[0], snapshot, engine.raster_settings).image
    assert np.array_equal(offloaded, direct)


def test_render_view_fits_under_tight_budget(setup):
    """Inference of a model whose full state exceeds the GPU: the paper's
    'render a 102M-Gaussian scene on a 4090' claim, in miniature."""
    scene, init = setup
    n = init.num_gaussians
    # Too small for the full training state, ample for CLM's working set.
    cap = 0.4 * MODEL_STATE_FULL_BPG * n + 600_000
    engine = CLMEngine(init, scene.cameras,
                       EngineConfig(batch_size=4, gpu_capacity_bytes=cap))
    image = engine.render_view(1).image
    assert np.isfinite(image).all()
    assert engine.pool.peak <= cap


def test_render_view_releases_working_set(setup):
    scene, init = setup
    engine = CLMEngine(init, scene.cameras,
                       EngineConfig(batch_size=4, gpu_capacity_bytes=1e9))
    before = engine.pool.used
    engine.render_view(0)
    assert engine.pool.used == before  # buffers freed after the view
