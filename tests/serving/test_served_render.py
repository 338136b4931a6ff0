"""A served request renders in place: the working set's rows of the served
model, read through ``view_forward``'s ``rows=`` operand into the session's
workspace arenas, give the image of ``render(camera, model.gather(rows))``
bit for bit — on both kernel backends, with and without LOD."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import create_engine
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render
from repro.kernels import compile_with_fallback, get_backend, registry
from repro.scenes.images import make_trainable_scene
from repro.serving import (
    LodConfig,
    RenderRequest,
    ServingConfig,
    ServingSession,
    forward_only_settings,
    poisson_stream,
    ring_cameras,
)
from repro.serving.batcher import ServedImage

BACKENDS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not get_backend("native").available(), reason="no C compiler here"
        ),
    ),
]
LOD = LodConfig(distance_edges=(2.0, 5.0), keep_fractions=(0.5, 0.25))
#: Not black, so an image that is only background is told from one not
#: written at all.
SETTINGS = dict(background=(0.2, 0.4, 0.6))


@pytest.fixture(scope="module")
def model():
    return GaussianModel.random(300, extent=1.0, sh_degree=1, seed=11)


@pytest.fixture(scope="module")
def cams():
    return ring_cameras(views_per_ring=4, radii=(2.2, 5.5, 12.0), width=24, height_px=18)


def session(model, backend, lod=None, **config):
    return ServingSession(
        model, ServingConfig(lod=lod, seed=0, **config),
        settings=RasterSettings(kernel_backend=backend, **SETTINGS),
    )


def request(camera, request_id=0):
    return RenderRequest(request_id, camera.view_id, camera, 0.0, 1.0)


@pytest.mark.parametrize("lod", [None, LOD], ids=["lod_off", "lod_on"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_served_image_is_the_gathered_render(model, cams, backend, lod):
    sess = session(model, backend, lod)
    settings = forward_only_settings(RasterSettings(kernel_backend=backend, **SETTINGS))
    rendered = 0
    for camera in cams:
        served = sess.render_request(request(camera))
        rows = sess.grid.query(camera)
        if sess.lod is not None:
            rows = sess.lod.apply(sess.lod.level_for(camera), rows)
        direct = render(camera, model.gather(rows), settings)
        assert isinstance(served, ServedImage)
        assert np.array_equal(served.image, direct.image)
        assert served.num_rendered == direct.num_rendered
        rendered += served.num_rendered
    assert rendered > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_working_set_renders_the_background(model, cams, backend):
    sess = session(model, backend)
    camera = cams[0]
    sess.render_request(request(camera))  # the arenas hold a real render
    served = sess.batcher.render_rows(camera, np.empty(0, np.int64))
    assert served.num_rendered == 0
    assert served.image.shape == (camera.height, camera.width, 3)
    assert np.array_equal(served.image, np.broadcast_to(SETTINGS["background"], served.image.shape))


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_returned_image_is_not_overwritten_by_the_next_render(model, cams, backend):
    sess = session(model, backend)
    first = sess.render_request(request(cams[0]))
    kept = first.image.copy()
    sess.render_request(request(cams[1]))
    assert np.array_equal(first.image, kept)


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_arenas_stay_flat_over_a_stream(model, cams, backend, monkeypatch):
    sess = session(model, backend, LOD, queue_capacity=200)
    stream = poisson_stream(cams, 200, rate_rps=400.0, seed=3)
    sess.serve(stream)  # warm-up: the arenas reach the largest view
    ws = sess.workspace
    allocations, bindings = ws.allocations, ws.bindings
    renders = sess.batcher.counters.renders
    gathered, gather = [], GaussianModel.gather

    def counting(self, rows):
        gathered.append(len(rows))
        return gather(self, rows)

    monkeypatch.setattr(GaussianModel, "gather", counting)
    report = sess.serve(stream)
    assert len(report.completed) == 200
    assert (ws.allocations, ws.bindings) == (allocations, bindings)
    assert not ws.leased
    if backend == "native":
        assert allocations > 0 and bindings == 1  # the served model, once
        assert gathered == []  # read through the rows, never copied
    else:
        assert allocations == bindings == 0  # the reference keeps no arenas
        assert len(gathered) == sess.batcher.counters.renders - renders


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rows", [[3, -1], [0, 300], [1.0, 2.0]], ids=["negative", "n", "float"])
def test_a_row_outside_the_model_is_refused_before_anything_is_written(
    model, cams, backend, rows
):
    sess = session(model, backend)
    camera = cams[0]
    sess.render_request(request(camera))
    arenas = {name: held[0].copy() for name, held in sess.workspace._arenas.items()}
    with pytest.raises(IndexError):
        sess.batcher.render_rows(camera, np.array(rows))
    assert set(sess.workspace._arenas) == set(arenas)
    for name, held in sess.workspace._arenas.items():
        assert np.array_equal(held[0], arenas[name], equal_nan=True), name
    assert not sess.workspace.leased
    # Without a workspace too: the op, as ``render`` dispatches it.
    settings = RasterSettings(kernel_backend=backend)
    op, used = compile_with_fallback(get_backend(backend), "view_forward")
    assert used.name == backend
    with pytest.raises(IndexError):
        op(camera, model, settings, np.array(rows))


@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_without_a_workspace_render_the_gathered_model(model, cams, backend):
    """The op's context form: image, transmittance and context are the
    gathered model's, and so is the backward pass it carries."""
    settings = RasterSettings(kernel_backend=backend)
    op, _ = compile_with_fallback(get_backend(backend), "view_forward")
    camera = cams[1]
    rows = np.flatnonzero(np.arange(model.num_gaussians) % 3 != 1)[::-1].copy()
    sub = model.gather(rows)
    image, trans, ctx = op(camera, model, settings, rows)
    ref_image, ref_trans, ref = op(camera, sub, settings)
    assert np.array_equal(image, ref_image) and np.array_equal(trans, ref_trans)
    assert np.array_equal(ctx.proj.ids, ref.proj.ids)
    assert ctx.num_input == rows.size
    d_image = np.random.default_rng(0).standard_normal(image.shape)
    got = ctx.backward_pass()(ctx, sub, d_image)
    want = ref.backward_pass()(ref, sub, d_image)
    assert all(np.array_equal(got[name], want[name]) for name in want)


@pytest.fixture(scope="module")
def scene():
    return make_trainable_scene(
        reference_gaussians=120, num_views=4, image_size=(24, 18), seed=0
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_engine_binds_the_op_for_the_library_renderer(scene, backend, monkeypatch):
    engine = create_engine(
        "clm", scene.reference, scene.cameras,
        EngineConfig(batch_size=2, seed=0, kernel_backend=backend),
    )
    compiled, compile_op = [], registry.KernelBackend.compile

    def recording(kernels, op):
        compiled.append((kernels.name, op))
        return compile_op(kernels, op)

    monkeypatch.setattr(registry.KernelBackend, "compile", recording)
    sess = ServingSession.from_engine(engine, ServingConfig(lod=None, seed=0))
    # The op is resolved through the registry once, for the session.
    assert compiled.count((backend, "view_forward")) == 1
    camera = engine.cameras[0]
    served = sess.render_request(request(camera))
    assert isinstance(served, ServedImage)
    want = engine.render_forward(camera, engine.snapshot_model().gather(sess.grid.query(camera)))
    assert np.array_equal(served.image, want.image)
    assert served.num_rendered == want.num_rendered
    assert (sess.workspace.bindings > 0) == (backend == "native")


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_engine_wraps_a_custom_renderer_over_the_gathered_rows(scene, backend):
    seen = []

    def custom(camera, model_like, settings):
        seen.append((model_like.num_gaussians, settings.cache_blend_state))
        return render(camera, model_like, settings)

    engine = create_engine(
        "clm", scene.reference, scene.cameras,
        EngineConfig(batch_size=2, seed=0, kernel_backend=backend, renderer=custom),
    )
    sess = ServingSession.from_engine(engine, ServingConfig(lod=None, seed=0))
    camera = engine.cameras[0]
    served = sess.render_request(request(camera))
    rows = sess.grid.query(camera)
    assert seen == [(rows.size, False)]
    assert not isinstance(served, ServedImage)  # the renderer's own result
    want = render(camera, engine.snapshot_model().gather(rows), engine.serving_raster_settings)
    assert np.array_equal(served.image, want.image)
    assert sess.workspace.allocations == sess.workspace.bindings == 0
