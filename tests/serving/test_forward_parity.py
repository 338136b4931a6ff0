"""Serving renders must be bit-identical to the training-time forward.

The serving path differs from training only in what it *retains*
(no blend-state cache, no gradients) — never in image math.  For every
registered engine, rendering a view through
:meth:`ServingSession.render_request` must reproduce, bit for bit, the
image of the engine's own training-path forward
(``EngineBase._render`` with ``raster_settings``) over the same planned
working set.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.scenes.images import make_trainable_scene
from repro.serving import RenderRequest, ServingConfig, ServingSession
from test_view_floor import record_forward

SEEDS = (0, 7)


@pytest.fixture(scope="module")
def scenes():
    return {
        seed: make_trainable_scene(
            reference_gaussians=120, num_views=6, image_size=(24, 18),
            seed=seed,
        )
        for seed in SEEDS
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", available_engines())
def test_serving_matches_training_forward(scenes, name, seed):
    scene = scenes[seed]
    engine = create_engine(
        name, scene.reference, scene.cameras,
        EngineConfig(batch_size=2, seed=seed),
    )
    # LOD off: parity is about the render path, not subset selection.
    sess = ServingSession.from_engine(
        engine, ServingConfig(lod=None, seed=seed)
    )
    for vid in (0, len(scene.cameras) - 1):
        cam = engine.cameras[vid]
        plan = engine.plan_batch([vid], strategy="identity")
        step = plan.steps[0]
        sub = engine.snapshot_model().gather(step.working_set)
        ref = engine._render(cam, sub, engine.raster_settings)

        request = RenderRequest(request_id=vid, view_id=vid, camera=cam,
                                arrival_s=0.0, slo_s=1.0)
        out = sess.render_request(request)
        assert np.array_equal(out.image, ref.image)
        assert out.num_rendered == ref.num_rendered


@pytest.mark.parametrize("name", available_engines())
def test_serving_settings_never_retain_blend_state(scenes, name, monkeypatch):
    """A served request renders on the engine's raster settings made
    forward-only: no blend state, the imaging knobs untouched."""
    scene = scenes[SEEDS[0]]
    engine = create_engine(name, scene.reference, scene.cameras,
                           EngineConfig(batch_size=2, seed=0))
    calls = record_forward(monkeypatch)
    sess = ServingSession.from_engine(engine, ServingConfig(lod=None, seed=0))
    cam = engine.cameras[0]
    sess.render_request(RenderRequest(0, cam.view_id, cam, 0.0, 1.0))
    [(_, _, _, serve, _, workspace, _)], train = calls, engine.raster_settings
    assert workspace is sess.workspace
    assert serve.cache_blend_state is False and train.cache_blend_state
    assert serve.active_sh_degree == train.active_sh_degree
    assert serve.tile_size == train.tile_size
