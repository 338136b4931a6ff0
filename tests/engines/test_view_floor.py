"""The per-view floor: what one microbatch may compute, and how often.

Deterministic call-count guards on one ``clm`` batch — a view's geometry is
built once for the cull and once for the render, never again for the
backward pass; the loss is one kernel op a view over the target's kept
moments (on ``native`` inside the step's C call, on NumPy matrix products);
on ``native`` a ``clm`` microbatch is one C call over the engine's
workspace, and a view of the other engines its four C calls, with nothing
resolved, compiled, bound or allocated again — plus the engine-side
behaviours that ride along:
moments are invalidated by replacing a target, evaluation renders
forward-only.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.ndimage

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians import frustum, loss, quaternion, rasterizer
from repro.gaussians.loss import TargetMoments
from repro.gaussians.model import GaussianModel
from repro.kernels import get_backend
from repro import kernels
from repro.kernels import numpy_backend, registry

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


def build(name, setup, **config):
    scene, init, _ = setup
    return create_engine(
        name, init, scene.cameras, EngineConfig(batch_size=4, **config)
    )


def spy_on(monkeypatch, owner, name):
    """Replace ``owner.name`` by a counting pass-through; returns the spy."""
    spy = mock.Mock(wraps=getattr(owner, name))
    monkeypatch.setattr(owner, name, spy)
    return spy


def test_one_clm_batch_computes_each_views_geometry_once(setup, monkeypatch):
    _, _, targets = setup
    # The spies below watch NumPy functions: this counts the reference's
    # calls (``native`` computes a view's geometry in one C pass).
    engine = build("clm", setup, kernel_backend="numpy")
    engine.train_batch(BATCH, targets)  # warm-up: caches, lazy imports

    rotations = spy_on(monkeypatch, quaternion, "to_rotation_matrices")
    jacobians = spy_on(monkeypatch, quaternion, "rotation_matrix_jacobian")
    filters = [
        spy_on(monkeypatch, scipy.ndimage, name)
        for name in ("convolve1d", "correlate1d")
    ]
    moments = spy_on(monkeypatch, TargetMoments, "of")
    # Culls issued while ``preprocess`` is on the stack.
    nested_culls = []
    preprocess = rasterizer.preprocess

    def watched_preprocess(*args):
        before = culls.call_count + batch_culls.call_count
        try:
            return preprocess(*args)
        finally:
            nested_culls.append(culls.call_count + batch_culls.call_count - before)

    culls = spy_on(monkeypatch, frustum, "cull_gaussians")
    batch_culls = spy_on(monkeypatch, frustum, "cull_batch")
    monkeypatch.setattr(rasterizer, "preprocess", watched_preprocess)

    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)
    views = len(BATCH)
    assert len(nested_culls) == views and sum(nested_culls) == 0
    # Batch cull (band rows only, possibly none) + preprocess; the backward
    # pass reads the retained matrices.  Four a view before.
    assert views <= rotations.call_count <= 2 * views
    assert jacobians.call_count == 0
    assert all(f.call_count == 0 for f in filters)
    assert moments.call_count == 0  # every target's moments were kept


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
def test_one_native_clm_batch_calls_the_loss_once_a_view(setup, monkeypatch):
    """On ``native`` a view's loss is one C call over the kept moments —
    inside the step's ``train_step`` call, which makes it: no matrix
    filter, no moments recomputed after the warm-up."""
    _, _, targets = setup
    engine = build("clm", setup, kernel_backend="native")
    engine.train_batch(BATCH, targets)  # warm-up: moments, the library

    lib = get_backend("native").library().load()
    steps = spy_on(monkeypatch, lib, "train_step")
    calls = spy_on(monkeypatch, lib, "photometric_loss")
    filters = spy_on(monkeypatch, loss, "_filter_planes")
    moments = spy_on(monkeypatch, TargetMoments, "of")
    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)
    assert engine.perf.kernel_backend == "native"
    assert steps.call_count == len(BATCH)
    assert calls.call_count == 0  # from Python: train_step makes it
    assert filters.call_count == 0
    assert moments.call_count == 0


#: The entry points a ``native`` training view or step may call.
ENTRY_POINTS = (
    "assemble_rows", "view_project", "view_composite", "photometric_loss",
    "view_backward", "train_step",
)


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
@pytest.mark.parametrize("name", ["naive", "enhanced"])
def test_a_native_view_is_four_c_calls(name, setup, monkeypatch):
    """The engines that scatter a gathered view's gradients run it as
    ``view_train``: its four C calls a view, over the arenas the warm-up
    grew."""
    _, _, targets = setup
    engine = build(name, setup, kernel_backend="native")
    engine.train_batch(BATCH, targets)  # warm-up: the library, moments, arenas
    allocations = engine._workspace.allocations
    lib = get_backend("native").library().load()
    calls = {entry: spy_on(monkeypatch, lib, entry) for entry in ENTRY_POINTS}
    assert np.isfinite(engine.train_batch(BATCH, targets).loss)
    four = ("view_project", "view_composite", "photometric_loss", "view_backward")
    assert {entry: spy.call_count for entry, spy in calls.items()} == {
        entry: len(BATCH) if entry in four else 0 for entry in ENTRY_POINTS
    }
    assert engine._workspace.allocations == allocations
    assert engine._loss_ops.active == "native"


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
def test_a_native_clm_step_is_one_c_call_and_nothing_else(setup, monkeypatch):
    """After a warm-up batch, each microbatch of a repeated ``clm`` batch
    is one ``train_step`` call and no other C call: no backend is resolved,
    nothing compiled, nothing bound again, no arena grown."""
    _, _, targets = setup
    engine = build("clm", setup, kernel_backend="native")
    engine.train_batch(BATCH, targets)  # warm-up: the library, moments, arenas
    ws = engine._workspace
    allocations, bindings = ws.allocations, ws.bindings
    assert allocations > 0 and bindings > 0

    lib = get_backend("native").library().load()
    calls = {name: spy_on(monkeypatch, lib, name) for name in ENTRY_POINTS}
    in_step, resolved = [False], []

    def watch(owner, name):
        original = getattr(owner, name)

        def watched(*args, **kwargs):
            if in_step[0]:
                resolved.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, watched)

    # Every module that binds the two names (the rasterizer imports them
    # from ``repro.kernels`` at call time).
    for owner in (registry, numpy_backend, kernels):
        for name in ("resolve_backend", "compile_with_fallback"):
            if hasattr(owner, name):
                watch(owner, name)
    run_step = engine._run_step

    def step(*args):
        in_step[0] = True
        try:
            return run_step(*args)
        finally:
            in_step[0] = False

    engine._run_step = step
    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)
    assert {name: spy.call_count for name, spy in calls.items()} == {
        name: len(BATCH) if name == "train_step" else 0 for name in ENTRY_POINTS
    }
    assert resolved == []
    assert (ws.allocations, ws.bindings) == (allocations, bindings)
    assert not ws.leased
    assert engine.perf.kernel_backend == "native"


@pytest.mark.parametrize("name", available_engines())
def test_replacing_a_target_invalidates_its_moments(name, setup):
    """Same view, same shape, another array: the held moments must miss —
    and the loss must be the loss against the new target."""
    _, _, targets = setup
    engine = build(name, setup)
    fresh = build(name, setup)
    engine.train_batch(BATCH, targets)
    held = dict(engine._moments)
    assert set(held) == set(BATCH)
    assert all(held[v].target is targets[v] for v in BATCH)

    engine.train_batch(BATCH, targets)
    assert all(engine._moments[v] is held[v] for v in BATCH)  # reused

    replaced = dict(targets)
    replaced[BATCH[0]] = 1.0 - targets[BATCH[0]]
    fresh.train_batch(BATCH, targets)
    fresh.train_batch(BATCH, targets)
    got = engine.train_batch(BATCH, replaced)
    want = fresh.train_batch(BATCH, replaced)  # has never seen the old one
    assert engine._moments[BATCH[0]] is not held[BATCH[0]]
    assert engine._moments[BATCH[0]].target is replaced[BATCH[0]]
    assert all(engine._moments[v] is held[v] for v in BATCH[1:])
    assert got.loss == want.loss
    assert got.per_view_loss == want.per_view_loss


def test_l1_only_training_runs_the_loss_over_the_kept_moments(setup):
    """L1 alone is the loss at ``ssim_lambda == 0``: it takes the default
    loss's path, over the same kept moments, on every backend."""
    _, _, targets = setup
    engine = build("clm", setup, ssim_lambda=0.0)
    engine.train_batch(BATCH, targets)
    assert sorted(engine._moments) == sorted(BATCH)


@pytest.mark.parametrize("name", available_engines())
def test_evaluate_renders_forward_only(name, setup):
    """Evaluation retains no blend state, and scores the same images."""
    _, _, targets = setup
    engine = build(name, setup)
    seen = []
    render = engine._render

    def recording(camera, model, settings):
        result = render(camera, model, settings)
        seen.append((settings.cache_blend_state, result.ctx.blend_cache))
        return result

    engine._render = recording
    value = engine.evaluate(BATCH, targets)
    assert seen and all(s == (False, None) for s in seen)
    engine._render = render
    model = engine.snapshot_model()
    want = np.mean([
        -10.0 * np.log10(np.mean(
            (render(engine.cameras[v], model, engine.raster_settings).image
             - targets[v]) ** 2
        ))
        for v in BATCH
    ])
    assert engine.raster_settings.cache_blend_state
    assert value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", available_engines())
def test_render_view_renders_forward_only(name, setup):
    """``render_view`` keeps no blend state — on ``native`` its context holds
    no blend-record blocks — and renders the training settings' image."""
    engine = build(name, setup)
    seen = []
    render = engine._render

    def recording(camera, model, settings):
        result = render(camera, model, settings)
        seen.append((model, settings.cache_blend_state, result))
        return result

    engine._render = recording
    image = engine.render_view(BATCH[0]).image
    [(model, cached, result)] = seen
    assert not cached and result.ctx.blend_cache is None
    if result.ctx.kernel_backend == "native":
        assert len(result.ctx.blocks) == 4  # projection, fields, ints, clamp
    assert engine.raster_settings.cache_blend_state
    want = render(engine.cameras[BATCH[0]], model, engine.raster_settings).image
    assert np.array_equal(image, want)


def test_a_render_view_that_raises_leaves_the_pool_as_it_was(setup):
    _, _, targets = setup
    engine = build("clm", setup, gpu_capacity_bytes=1e12)
    engine.train_batch(BATCH, targets)
    used = engine.pool.used

    def failing(camera, model, settings):
        assert engine.pool.used > used  # the working set is accounted
        raise RuntimeError("render failed")

    engine._render = failing
    with pytest.raises(RuntimeError, match="render failed"):
        engine.render_view(BATCH[0])
    assert engine.pool.used == used


#: The variants the ruler trains: ``(engine, EngineConfig overrides)``.
TRAINED = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
    "naive": ("naive", {}),
    "enhanced": ("enhanced", {}),
    "baseline": ("baseline", {}),
}


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
def test_the_callers_resolve_every_kernel_op_and_no_other(setup, monkeypatch):
    """A batch of every engine, ``evaluate``, a CLM ``render_view``, a
    served request, a composed step (a wrapped renderer pair) and a
    simulator's culling index, all on ``native``: the ops they resolve are
    exactly ``KERNEL_OPS``, so the registry carries no op that no caller
    dispatches.  Training and serving cull through grids (``grid_cull``);
    the index a simulator, the CLI or the memory model builds is
    ``cull_batch``'s (``exact_cull``)."""
    from repro.core.culling_index import CullingIndex
    from repro.gaussians.render import render, render_backward
    from repro.serving import RenderRequest, ServingConfig, ServingSession

    scene, _, targets = setup
    resolved, log = set(), []
    compile_op = registry.KernelBackend.compile

    def recording(backend, op):
        resolved.add(op)
        log.append((backend.name, op))
        return compile_op(backend, op)

    monkeypatch.setattr(registry.KernelBackend, "compile", recording)
    wrapped = {
        "renderer": lambda *args: render(*args),
        "renderer_backward": lambda *args: render_backward(*args),
    }
    runs = [(engine, overrides) for engine, overrides in TRAINED.values()]
    for engine_name, overrides in runs + [("clm", wrapped)]:
        engine = build(engine_name, setup, kernel_backend="native", **overrides)
        assert np.isfinite(engine.train_batch(BATCH, targets).loss)
        if engine_name == "clm" and not overrides:
            engine.evaluate(BATCH, targets)
            engine.render_view(BATCH[0])
            camera = scene.cameras[0]
            mark = len(log)
            served = ServingSession.from_engine(engine, ServingConfig(seed=0)).serve(
                [RenderRequest(0, camera.view_id, camera, 0.0, 1.0)]
            )
            assert len(served.completed) == 1
            # Serving culls through its grid: one native call a request.
            assert ("native", "grid_cull") in log[mark:]
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    assert "exact_cull" not in resolved  # no training or serving cull
    CullingIndex.build(setup[1], scene.cameras)
    assert resolved == set(kernels.KERNEL_OPS)
