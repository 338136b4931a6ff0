"""``native`` keeps its blend records exactly when ``cache_blend_state``.

With the setting on, ``view_composite`` leaves, per cell that passed the
alpha threshold, its exp value, ``T_before`` and pixel (plus each tile's
final ``T``) in three blocks of the context, and ``view_backward`` walks
them instead of replaying the forward.  It sums the same terms in the same
order, so the gradients are ``np.array_equal`` to the recomputing path's —
checked here on every camera of every registered scene, both ``bench_e2e``
training scenes, generated models and the edge settings.  A pooled ``clm``
run (which turns the setting off) and an unpooled one therefore train to
the same bits; forward-only renders keep nothing; the records are read,
never consumed.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import MODEL_CASES, generated_model

import repro
from repro.core.config import EngineConfig
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import ellipsoids_in_frustum, frustum_planes
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.kernels import ENV_VAR, backend_status
from repro.scenes.datasets import build_scene, scene_names
from repro.scenes.images import make_trainable_scene
from repro.serving import RenderRequest, ServingConfig, ServingSession

BUILDS = {row["name"]: row for row in backend_status()}["native"]["available"]
pytestmark = [
    pytest.mark.skipif(not BUILDS, reason="no working C compiler"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]

GRAD_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")
NATIVE = RasterSettings(kernel_backend="native")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def records_of(ctx):
    """``(final T + exp values + T_before, pixels, ends)`` of a context."""
    assert ctx.kernel_backend == "native" and ctx.blend_cache is None
    return ctx.blocks[4:]


def assert_records_change_nothing(cam, model, opts=NATIVE, seed=0):
    """Image, transmittance and all five gradient arrays bit-equal with
    and without the records; returns the context that kept them."""
    opts = replace(opts, kernel_backend="native")
    img, t, kept = rasterize_forward(cam, model, replace(opts, cache_blend_state=True))
    ref_img, ref_t, replayed = rasterize_forward(
        cam, model, replace(opts, cache_blend_state=False)
    )
    assert len(records_of(kept)) == 3 and records_of(replayed) == ()
    assert np.array_equal(img, ref_img) and np.array_equal(t, ref_t)
    _, pixels, end = records_of(kept)
    bins = kept.bins
    assert end.size == bins.num_entries + 1 and end[0] == 0
    assert (np.diff(end) >= 0).all() and end[-1] <= pixels.size
    assert pixels.size <= bins.num_entries * bins.tile_size**2
    g_img = np.random.default_rng(seed).normal(size=img.shape)
    got = rasterize_backward(kept, model, g_img)
    want = rasterize_backward(replayed, model, g_img)
    for name in GRAD_NAMES:
        assert np.array_equal(got[name], want[name]), name
    return kept


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scene_name", scene_names())
def test_every_camera_of_every_registered_scene(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    for cam in scene.cameras:
        assert_records_change_nothing(cam, scene.model)


def test_bench_e2e_sparse_scene_whole_model_and_working_sets():
    scene = build_scene("bigcity", scale=2e-4, num_views=32, image_size=(32, 24), seed=0)
    model = scene.model
    for cam in scene.cameras[::2]:
        assert_records_change_nothing(cam, model)
        rows = np.flatnonzero(
            ellipsoids_in_frustum(
                frustum_planes(cam), model.positions, np.exp(model.log_scales),
                model.quaternions,
            )
        )
        assert_records_change_nothing(cam, model.gather(rows))


def test_bench_e2e_dense_scene():
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    for cam in scene.cameras:
        ctx = assert_records_change_nothing(cam, scene.reference)
        # Most of the footprint bound is used: it is not padding.
        _, pixels, end = records_of(ctx)
        assert end[-1] >= 0.6 * pixels.size


@given(
    case=st.fixed_dictionaries(MODEL_CASES),
    tau=st.sampled_from([1.0 / 255.0, 0.05, 0.0]),
    t_min=st.sampled_from([1e-4, 0.0, 0.5]),
    tile_size=st.sampled_from([4, 12, 16, 20]),
)
@settings(max_examples=120, deadline=None)
def test_generated_models(case, tau, t_min, tile_size):
    cam, model = generated_model(**case)
    opts = RasterSettings(
        alpha_threshold=tau, transmittance_min=t_min, tile_size=tile_size,
        background=(0.3, 0.6, 0.9),
    )
    assert_records_change_nothing(cam, model, opts, seed=case["seed"] % 1000)


# ---------------------------------------------------------------------------
# Edge settings
# ---------------------------------------------------------------------------
def test_zero_alpha_threshold_bounds_by_the_whole_rectangle():
    """No threshold: every cell of every footprint rectangle passes, so the
    bound is met exactly."""
    cam, model = generated_model(seed=3, num=30, size=(40, 30), scale=-2.0)
    opts = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    ctx = assert_records_change_nothing(cam, model, opts)
    _, pixels, end = records_of(ctx)
    assert end[-1] == pixels.size > 0


@pytest.mark.parametrize(
    "opts",
    [
        RasterSettings(transmittance_min=0.0),
        RasterSettings(transmittance_min=0.5),
        RasterSettings(background=(0.3, 0.6, 0.9)),
        RasterSettings(tile_size=12),
        RasterSettings(tile_size=20, background=(1.0, 0.0, 0.5)),
    ],
    ids=["no-termination", "early-termination", "background", "tile-12", "tile-20"],
)
def test_edge_settings(opts):
    cam, model = generated_model(seed=5, num=40, size=(61, 45), scale=-0.5)
    assert_records_change_nothing(cam, model, opts)


def test_splats_at_the_max_alpha_cap():
    """Opacities past 0.99: the cap clips alpha and stops the geometry
    gradient on the records' cells just as on the replayed ones."""
    cam, model = generated_model(seed=7, num=30, size=(40, 30), scale=-1.0)
    model.opacity_logits[::2] = 12.0
    ctx = assert_records_change_nothing(cam, model)
    assert (ctx.proj.opacities > ctx.settings.max_alpha).any()


def test_empty_model_and_a_view_with_no_survivors():
    cam = look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0), width=24, height=18)
    opts = RasterSettings(background=(0.2, 0.4, 0.6))
    behind = GaussianModel.random(25, extent=0.4, sh_degree=1, seed=0)
    behind.positions[:, 1] -= 8.0
    for model in (GaussianModel.random(0, sh_degree=1, seed=0), behind):
        ctx = assert_records_change_nothing(cam, model, opts)
        final_t, pixels, end = records_of(ctx)
        assert final_t.size == pixels.size == 0 and end.tolist() == [0]


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------
def test_two_backward_passes_over_one_context_are_equal():
    """The records are read, never consumed or written."""
    cam, model = generated_model(seed=5, num=40, size=(61, 45), scale=-0.5)
    ctx = rasterize_forward(cam, model, NATIVE)[2]
    snapshot = [block.copy() for block in records_of(ctx)]
    g_img = np.random.default_rng(1).normal(size=(45, 61, 3))
    first = rasterize_backward(ctx, model, g_img)
    second = rasterize_backward(ctx, model, g_img)
    assert all(np.array_equal(first[name], second[name]) for name in GRAD_NAMES)
    assert all(np.array_equal(a, b) for a, b in zip(records_of(ctx), snapshot))


@pytest.fixture(scope="module")
def dense():
    return make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )


def train(scene, pool):
    """12 ``clm`` batches on ``native``; the per-batch losses, the final
    parameters and the blend-state bytes of every render."""
    config = EngineConfig(batch_size=4, kernel_backend="native", seed=0)
    if pool:
        config.gpu_capacity_bytes = 1e12
    sess = repro.session(scene, engine="clm", config=config)
    engine = sess.engine
    assert engine.raster_settings.cache_blend_state is not pool
    render, held = engine._render, []

    def recording(camera, model, opts):
        result = render(camera, model, opts)
        held.append(result.ctx.blend_state_bytes())
        return result

    engine._render = recording
    rng = np.random.default_rng(0)
    views = len(scene.cameras)
    losses = [
        sess.train_batch(rng.choice(views, size=4, replace=False).tolist()).loss
        for _ in range(12)
    ]
    return losses, sess.snapshot_model().parameters(), held


def test_pooled_and_unpooled_clm_train_to_the_same_bits(dense):
    losses, params, held = train(dense, pool=False)
    pooled_losses, pooled, pooled_held = train(dense, pool=True)
    assert losses == pooled_losses
    assert all(np.array_equal(params[name], pooled[name]) for name in GRAD_NAMES)
    assert len(held) == len(pooled_held) == 48
    # Unpooled, every view keeps its records, under 2 MB on this scene;
    # under the pool none does.
    assert all(0 < b <= 2 << 20 for b in held) and not any(pooled_held)


def test_forward_only_renders_keep_no_records(dense):
    engine = repro.create_engine(
        "clm", dense.reference, dense.cameras,
        EngineConfig(batch_size=4, kernel_backend="native"),
    )
    render, held = engine._render, []

    def recording(camera, model, opts):
        result = render(camera, model, opts)
        held.append((result.ctx.kernel_backend, len(result.ctx.blocks)))
        return result

    engine._render = recording
    engine.render_view(0)
    engine.evaluate([0, 1], {v: dense.images[v] for v in (0, 1)})
    serving = ServingSession.from_engine(engine, ServingConfig(lod=None, seed=0))
    serving.render_request(
        RenderRequest(request_id=0, view_id=2, camera=engine.cameras[2],
                      arrival_s=0.0, slo_s=1.0)
    )
    assert len(held) == 4 and set(held) == {("native", 4)}
