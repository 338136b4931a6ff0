"""The per-view floor: what one microbatch may compute, and how often.

Deterministic call-count guards on one ``clm`` batch — a view's geometry is
built once for the cull and once for the render, never again for the
backward pass; the loss is one kernel op a view over the target's kept
moments (on ``native`` inside the step's C call, on NumPy matrix products);
on ``native`` a microbatch of every engine is one C call over the engine's
workspace, with nothing resolved, compiled or allocated again — plus the
engine-side behaviours that ride along: moments are invalidated by
replacing a target, evaluation renders forward-only.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.ndimage

from repro.core.config import EngineConfig
from repro.engines import CLMEngine, available_engines, create_engine
from repro.engines import base as engine_base
from repro.gaussians import frustum, loss, quaternion, rasterizer
from repro.gaussians.loss import TargetMoments
from repro.gaussians.model import GaussianModel
from repro.gaussians.render import render
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


def walk_nodes(monkeypatch) -> None:
    """``clm`` batches walk their nodes, as a hooked, pooled or
    custom-rendered batch does: a ``train_step`` call a step."""
    fused = CLMEngine._fused_op
    monkeypatch.setattr(
        CLMEngine, "_fused_op",
        lambda self, working, settings, op: None if op == "train_batch"
        else fused(self, working, settings, op),
    )


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
@pytest.mark.parametrize("walked", [False, True], ids=["batch call", "walk"])
def test_one_native_clm_batch_calls_the_loss_once_a_view(setup, monkeypatch, walked):
    """On ``native`` a view's loss is one C call over the kept moments —
    inside the batch's one ``train_batch`` call, or inside each step's
    ``train_step`` call where the batch walks its nodes, which makes it: no
    matrix filter, no moments recomputed after the warm-up."""
    _, _, targets = setup
    if walked:
        walk_nodes(monkeypatch)
    engine = build("clm", setup, kernel_backend="native")
    engine.train_batch(BATCH, targets)  # warm-up: moments, the library

    lib = get_backend("native").library().load()
    steps = spy_on(monkeypatch, lib, "train_step")
    batches = spy_on(monkeypatch, lib, "train_batch")
    calls = spy_on(monkeypatch, lib, "photometric_loss")
    filters = spy_on(monkeypatch, loss, "_filter_planes")
    moments = spy_on(monkeypatch, TargetMoments, "of")
    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)
    assert engine.perf.kernel_backend == "native"
    want = (0, len(BATCH)) if walked else (1, 0)
    assert (batches.call_count, steps.call_count) == want
    assert calls.call_count == 0  # from Python: the C step or batch makes it
    assert filters.call_count == 0
    assert moments.call_count == 0


#: The entry points a ``native`` training view, step or batch may call.
ENTRY_POINTS = (
    "assemble_rows", "view_project", "view_composite", "photometric_loss",
    "view_backward", "train_step", "view_train", "train_batch",
)
#: Each engine's microbatches: the one entry point they call (``clm``: once
#: a batch, for all of them; a ``clm`` batch that walks its nodes: once a
#: step), and the engine method around that call.
STEPS = {
    "clm": ("train_batch", "_execute_plan"),
    "clm walked": ("train_step", "_run_step"),
    **dict.fromkeys(("naive", "enhanced", "baseline"), ("view_train", "_train_view")),
}


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
@pytest.mark.parametrize("name", list(STEPS))
def test_a_native_microbatch_is_one_c_call_and_nothing_else(name, setup, monkeypatch):
    """After a warm-up batch, each microbatch of a repeated batch is one C
    call — ``view_train`` on the engines whose model is resident; on
    ``clm`` the whole batch is one, ``train_batch``, or each step one,
    ``train_step``, where it walks its nodes — and no other: no backend is
    resolved, nothing compiled or allocated again, no working set gathered
    and no gradient scattered in NumPy.  Nothing is bound again but, on the resident
    engines, their model and full-size gradients once a batch (the naive
    engine loads a fresh copy, and every engine zeroes fresh gradients)."""
    _, _, targets = setup
    entry, method = STEPS[name]
    if name == "clm walked":
        walk_nodes(monkeypatch)
        name = "clm"
    engine = build(name, setup, kernel_backend="native")
    engine.train_batch(BATCH, targets)  # warm-up: the library, moments, arenas
    ws = engine._workspace
    allocations, bindings = ws.allocations, ws.bindings
    assert allocations > 0 and bindings > 0

    lib = get_backend("native").library().load()
    calls = {entry_point: spy_on(monkeypatch, lib, entry_point) for entry_point in ENTRY_POINTS}
    gathers, gather = [], GaussianModel.gather
    monkeypatch.setattr(
        GaussianModel, "gather", lambda model, rows: gathers.append(1) or gather(model, rows)
    )
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
        for fn in ("resolve_backend", "compile_with_fallback"):
            if hasattr(owner, fn):
                watch(owner, fn)
    watch(engine_base, "train_view")  # the reference composition
    run_step = getattr(engine, method)

    def step(*args):
        in_step[0] = True
        try:
            return run_step(*args)
        finally:
            in_step[0] = False

    setattr(engine, method, step)
    result = engine.train_batch(BATCH, targets)
    assert np.isfinite(result.loss)
    assert {e: spy.call_count for e, spy in calls.items()} == {
        e: (1 if e == "train_batch" else len(BATCH)) if e == entry else 0
        for e in ENTRY_POINTS
    }
    assert resolved == []
    # The naive engine's one gather is its modelled whole-model load.
    assert len(gathers) == (1 if name == "naive" else 0)
    assert ws.allocations == allocations
    assert ws.bindings == bindings + (name != "clm")
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


BACKENDS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not get_backend("native").available(), reason="no C compiler here"
        ),
    ),
]


def record_forward(monkeypatch, fail=None):
    """Record every ``view_forward`` call of an op resolved from now on —
    ``(backend, camera, model, settings, rows, workspace, result)`` — or
    call ``fail()`` instead of the op, when given."""
    calls, compile_op = [], registry.KernelBackend.compile

    def compiling(backend, op):
        fn = compile_op(backend, op)
        if op != "view_forward":
            return fn

        def recorded(camera, model, settings, rows=None, workspace=None):
            if fail is not None:
                return fail()
            out = fn(camera, model, settings, rows, workspace)
            calls.append((backend.name, camera, model, settings, rows, workspace, out))
            return out

        return recorded

    monkeypatch.setattr(registry.KernelBackend, "compile", compiling)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", available_engines())
def test_evaluate_renders_forward_only(name, backend, setup, monkeypatch):
    """Evaluation is one cull of the maintained grid and one bound
    ``view_forward`` a view over the engine's forward workspace — each
    view's in-frustum rows, no blend state kept — and scores the full
    model's images, bit for bit."""
    _, _, targets = setup
    engine = build(name, setup, kernel_backend=backend)
    engine.train_batch(BATCH, targets)
    engine.evaluate(BATCH, targets)  # warm-up: the grid's output buffers grow
    engine.train_batch(BATCH, targets)
    calls = record_forward(monkeypatch)
    grid_culls = view_projects = None
    if backend == "native":
        lib = get_backend("native").library().load()
        grid_culls = spy_on(monkeypatch, lib, "grid_cull")
        view_projects = spy_on(monkeypatch, lib, "view_project")
    value = engine.evaluate(BATCH, targets)
    calls = list(calls)  # the renders below are recorded too
    if grid_culls is not None:
        # One C query of the refit grid for the k views, k renders in the
        # arenas and no per-call render.
        assert grid_culls.call_count == 1
        assert view_projects.call_count == len(BATCH)
    assert len(calls) == len(BATCH)
    model = engine.snapshot_model()
    want = []
    for vid, (used, camera, _, settings, rows, workspace, out) in zip(BATCH, calls):
        assert used == backend and camera is engine.cameras[vid]
        assert workspace is engine._forward_workspace
        assert not settings.cache_blend_state
        assert np.array_equal(rows, engine._culling.set_for(vid))
        want.append(render(camera, model, engine.raster_settings).image)
        assert np.array_equal(out[0], want[-1])
    assert engine.raster_settings.cache_blend_state
    assert value == np.mean([loss.psnr(image, targets[v]) for v, image in zip(BATCH, want)])
    assert not engine._forward_workspace.leased


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", available_engines())
def test_render_view_renders_forward_only(name, backend, setup, monkeypatch):
    """``render_view`` is one bound ``view_forward`` over the engine's
    forward workspace, keeping no blend state, and returns what a served
    request does: the full model's image, bit for bit, and the survivors."""
    _, _, targets = setup
    engine = build(name, setup, kernel_backend=backend)
    engine.train_batch(BATCH, targets)
    calls = record_forward(monkeypatch)
    served = engine.render_view(BATCH[0])
    [(used, camera, _, settings, rows, workspace, _)] = calls
    assert used == backend and workspace is engine._forward_workspace
    assert not settings.cache_blend_state and engine.raster_settings.cache_blend_state
    # CLM renders the working set it assembled; the others their rows.
    assert (rows is None) == isinstance(engine, CLMEngine)
    want = render(camera, engine.snapshot_model(), engine.raster_settings)
    assert np.array_equal(served.image, want.image)
    assert served.num_rendered == want.num_rendered


def test_a_render_view_that_raises_leaves_the_pool_as_it_was(setup, monkeypatch):
    _, _, targets = setup
    engine = build("clm", setup, gpu_capacity_bytes=1e12)
    engine.train_batch(BATCH, targets)
    used = engine.pool.used

    def failing():
        assert engine.pool.used > used  # the working set is accounted
        raise RuntimeError("render failed")

    record_forward(monkeypatch, fail=failing)
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
