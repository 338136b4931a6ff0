"""``view_train``: a training view as one native op, against the composition.

On ``native`` an engine runs each training view as the ``view_train`` op:
``view_project``, ``view_composite``, ``photometric_loss`` and
``view_backward`` in one C call over the engine's
:class:`~repro.kernels.Workspace`.  The
composition — ``render``, the loss op, ``render_backward`` — is its
reference, and runs the same C functions, so the two are ``array_equal``:
the op on three views, and every engine trained both ways, pooled and not,
with SSIM and with L1 alone, through an SH warm-up step, a densify that
grows the arenas and a view nothing survives in.  The gradients are
workspace slices under a lease: live while the engine consumes them,
released after, and a second lease raises.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.stores import GpuWorkingSet
from repro.engines import create_engine
from repro.gaussians.loss import TargetMoments
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render, train_view
from repro.kernels import Workspace, get_backend

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")
#: The composition's render and loss pinned to the op's backend.
NATIVE = RasterSettings(kernel_backend="native")

#: engine name -> (registered engine, ``EngineConfig`` overrides).
ENGINES = {
    "clm": ("clm", {}),
    "naive": ("naive", {}),
    "enhanced": ("enhanced", {}),
    "baseline": ("baseline", {}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
}


def native_op():
    return get_backend("native").compile("view_train")


@pytest.fixture(scope="module")
def scene(trainable_scene):
    """The test scene plus a camera backed away from it past its far plane
    (view ``away``): nothing survives there."""
    cam = trainable_scene.cameras[0]
    away = replace(
        cam, center=cam.center - 1e6 * cam.rotation[2],
        view_id=len(trainable_scene.cameras),
    )
    cameras = list(trainable_scene.cameras) + [away]
    targets = {c.view_id: img for c, img in
               zip(trainable_scene.cameras, trainable_scene.images)}
    targets[away.view_id] = trainable_scene.images[0]
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    return init, cameras, targets, away.view_id


# ---------------------------------------------------------------------------
# The op
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("view", [0, 3, 7])
def test_the_op_is_the_composition_bit_for_bit(scene, view, cache):
    init, cameras, targets, _ = scene
    settings = RasterSettings(
        cache_blend_state=cache, active_sh_degree=view % 2, kernel_backend="native"
    )
    moments = TargetMoments.of(targets[view])
    args = (cameras[view], init, settings, targets[view], moments, 0.2, 4)
    ws = Workspace()
    loss, grads = native_op()(*args, ws)
    want_loss, want = train_view(*args)
    assert loss == want_loss
    assert all(np.array_equal(grads[name], want[name]) for name in NAMES)
    assert ws.leased and ws.rendered_on == "native"
    assert ws.forward_s > 0.0 and ws.backward_s > 0.0
    ws.release()


def test_a_view_nothing_survives_in_has_zero_gradients(scene):
    init, cameras, targets, away = scene
    args = (cameras[away], init, NATIVE, targets[away],
            TargetMoments.of(targets[away]), 0.2, 4)
    loss, grads = native_op()(*args)
    want_loss, want = train_view(*args)
    assert loss == want_loss
    assert not any(grads[name].any() for name in NAMES)
    assert all(np.array_equal(grads[name], want[name]) for name in NAMES)


def test_a_second_live_lease_raises(scene):
    init, cameras, targets, _ = scene
    ws = Workspace()
    args = (cameras[0], init, NATIVE, targets[0],
            TargetMoments.of(targets[0]), 0.2, 4, ws)
    first = native_op()(*args)[1]["positions"].copy()
    with pytest.raises(RuntimeError, match="already leased"):
        native_op()(*args)
    ws.release()
    assert np.array_equal(native_op()(*args)[1]["positions"], first)
    ws.release()
    # An operand the op refuses leaves no lease behind.
    bad = args[:3] + (targets[0][:-1],) + args[4:]
    with pytest.raises(ValueError, match="native view_train: target is"):
        native_op()(*bad)
    assert not ws.leased


def test_l1_alone_is_the_op_over_the_same_moments(scene):
    """``ssim_lambda == 0`` runs as the op, over the target's moments: the
    composition's bits, and the NumPy composition's to the raster bars."""
    init, cameras, targets, _ = scene
    moments = TargetMoments.of(targets[0])
    args = (cameras[0], init, NATIVE, targets[0], moments, 0.0, 4)
    loss, grads = native_op()(*args)
    want_loss, want = train_view(*args)
    assert loss == want_loss
    assert all(np.array_equal(grads[name], want[name]) for name in NAMES)
    # No moments: the target's own, as the reference's loss computes them.
    assert native_op()(*args[:4], None, *args[5:])[0] == loss
    reference = replace(NATIVE, kernel_backend="numpy")
    ref_loss, ref = train_view(*args[:2], reference, *args[3:])
    assert abs(loss - ref_loss) <= 1e-12
    for name in NAMES:
        np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10, atol=1e-10)


def signed_zeros(model, seed):
    """Full-size gradients to add into: values and ``-0.0`` entries mixed,
    so a skipped add (``-0.0`` stays) differs from NumPy's ``+= 0.0``."""
    rng = np.random.default_rng(seed)
    return {
        name: np.where(rng.uniform(size=arr.shape) < 0.5, -0.0, rng.normal(size=arr.shape))
        for name, arr in model.parameters().items()
    }


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("rows", ["working set", "empty", "no survivors", "whole model"])
def test_the_resident_step_is_the_gather_view_scatter_bit_for_bit(scene, rows, cache):
    """``rows=`` read in place and ``into=`` added at those rows: the loss,
    the per-view gradients and every full-size array are the composition's
    bits — gather, the view, ``full[rows] += sub`` (``full += sub`` for the
    whole model) — signs of zeros included."""
    init, cameras, targets, away = scene
    init = init.clone()  # higher SH degrees set: the backward reads them
    init.sh[:, 1:] = np.random.default_rng(2).normal(scale=0.2, size=init.sh[:, 1:].shape)
    view = away if rows == "no survivors" else 3
    picked = {
        "working set": np.arange(1, init.num_gaussians, 3),
        "empty": np.arange(0),
        "no survivors": np.arange(0, init.num_gaussians, 2),
        "whole model": None,
    }[rows]
    settings = RasterSettings(cache_blend_state=cache, kernel_backend="native")
    args = (cameras[view], init, settings, targets[view], TargetMoments.of(targets[view]), 0.2, 4)
    into, want_into = signed_zeros(init, 1), signed_zeros(init, 1)
    ws = Workspace()
    loss, grads = native_op()(*args, ws, rows=picked, into=into)
    gathered = init if picked is None else init.gather(picked)
    want_loss, want = train_view(cameras[view], gathered, *args[2:])
    for name, full in want_into.items():
        if picked is None:
            full += want[name]
        else:
            full[picked] += want[name]
    assert loss == want_loss
    for name in NAMES:
        assert np.array_equal(grads[name], want[name]), name
        assert np.array_equal(into[name], want_into[name]), name
        assert np.array_equal(np.signbit(into[name]), np.signbit(want_into[name])), name
    if rows in ("empty", "no survivors"):
        assert not any(grads[name].any() for name in NAMES)
    assert ws.leased
    ws.release()
    # The reference op is the same composition, on the same operands.
    ref_into = signed_zeros(init, 1)
    train_view(*args, None, picked, ref_into)
    assert all(np.array_equal(ref_into[name], want_into[name]) for name in NAMES)


# ---------------------------------------------------------------------------
# Engines, fused and composed
# ---------------------------------------------------------------------------
def drive(scene, name, pool, ssim, composed):
    """Three batches: SH degree 0, then 1 with the backed-away view, then —
    after a densify that doubles the model — again.  Returns the per-view
    losses, a copy of every position gradient the hook saw, the final
    parameters and the engine."""
    init, cameras, targets, away = scene
    engine_name, overrides = ENGINES[name]
    config = EngineConfig(
        batch_size=4, kernel_backend="native", ssim_lambda=ssim, seed=0,
        raster=RasterSettings(active_sh_degree=0), **overrides,
    )
    if pool:
        config.gpu_capacity_bytes = 1e12
    engine = create_engine(engine_name, init, cameras, config)
    if composed:  # a renderer of its own: the engine composes the view
        engine._render = functools.partial(render)
    seen = []

    def hook(view_id, rows, position_grads):
        seen.append((view_id, rows.copy(), position_grads.copy()))

    losses = [engine.train_batch([0, 1, 2, 3], targets, hook).per_view_loss]
    config.raster.active_sh_degree = 1
    losses.append(engine.train_batch([4, 5, away, 6], targets, hook).per_view_loss)
    grown = engine._workspace.allocations
    model = engine.snapshot_model()
    jitter = model.clone()
    jitter.positions += 1e-3
    n = model.num_gaussians
    engine.rebuild(model.extend(jitter), np.concatenate([np.arange(n), -np.ones(n, int)]))
    losses.append(engine.train_batch([0, 2, 4, 6], targets, hook).per_view_loss)
    params = engine.snapshot_model().parameters()
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    return losses, seen, params, engine, grown


@pytest.mark.parametrize("ssim", [0.2, 0.0])
@pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("name", list(ENGINES))
def test_fused_and_composed_engines_train_to_the_same_bits(scene, name, pool, ssim):
    losses, seen, params, engine, grown = drive(scene, name, pool, ssim, False)
    want_losses, want_seen, want_params, _, _ = drive(scene, name, pool, ssim, True)
    assert losses == want_losses
    assert len(seen) == len(want_seen) == 12
    for (view, rows, grads), (want_view, want_rows, want_grads) in zip(seen, want_seen):
        assert view == want_view
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(grads, want_grads)
    assert all(np.array_equal(params[k], want_params[k]) for k in NAMES)
    # A fused op ran, L1 alone too, and the densify grew its arenas: CLM
    # engines run each microbatch as train_step, the others each view as
    # view_train.
    ws = engine._workspace
    assert (ws.steps > 0) == name.startswith("clm")
    assert engine._rendered_on == "native"
    assert 0 < grown < ws.allocations
    assert not ws.leased and engine.perf.kernel_backend == "native"


@pytest.mark.parametrize("name", ["clm", "naive", "baseline"])
def test_the_lease_lasts_until_the_gradients_are_consumed(scene, name, monkeypatch):
    """Live inside ``add_grads`` (which ``train_step`` makes in C on CLM)
    and the hook, released after."""
    init, cameras, targets, _ = scene
    engine = create_engine(
        name, init, cameras, EngineConfig(batch_size=4, kernel_backend="native")
    )
    ws, leased = engine._workspace, []
    add_grads = GpuWorkingSet.add_grads

    def watched(self, grads):
        leased.append(ws.leased)
        return add_grads(self, grads)

    monkeypatch.setattr(GpuWorkingSet, "add_grads", watched)
    engine.train_batch(
        [0, 1, 2, 3], targets, lambda *_: leased.append(ws.leased)
    )
    assert leased == [True] * 4
    assert not ws.leased


def train_twenty(scene, name, composed):
    """20 batches of ``name`` on ``native``, densifying every five: the
    per-view losses, every position gradient the densify hook saw, the
    final parameters."""
    init, cameras, targets, _ = scene
    config = EngineConfig(batch_size=4, kernel_backend="native", seed=0)
    engine = create_engine(name, init, cameras[:-1], config)
    if composed:  # a renderer of its own: the engine composes each view
        engine._render = functools.partial(render)
    assert engine._own_renderer() is not composed
    losses, seen = [], []

    def hook(view_id, rows, position_grads):
        seen.append((view_id, rows.copy(), position_grads.copy()))

    views = len(cameras) - 1
    for k in range(20):
        batch = [(3 * k + i) % views for i in range(4)]
        losses.append(engine.train_batch(batch, targets, hook).per_view_loss)
        if k % 5 == 4:  # a densify: clone every fourth row, moved
            model = engine.snapshot_model()
            clones = model.gather(np.arange(0, model.num_gaussians, 4))
            clones.positions += 1e-3
            n = model.num_gaussians
            engine.rebuild(
                model.extend(clones),
                np.concatenate([np.arange(n), -np.ones(clones.num_gaussians, int)]),
            )
    return losses, seen, engine.snapshot_model().parameters(), engine


@pytest.mark.parametrize("name", ["naive", "enhanced", "baseline"])
def test_twenty_resident_batches_train_to_the_compositions_bits(scene, name):
    """Each microbatch one ``view_train`` call against the composition a
    wrapped renderer pair forces: the same per-view losses, densify-hook
    position gradients and parameters, bit for bit, over 20 batches and
    four densifies."""
    losses, seen, params, engine = train_twenty(scene, name, False)
    want_losses, want_seen, want_params, composed = train_twenty(scene, name, True)
    assert losses == want_losses
    assert len(seen) == len(want_seen) == 80
    for (view, rows, grads), (want_view, want_rows, want_grads) in zip(seen, want_seen):
        assert view == want_view
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(grads, want_grads)
    assert all(np.array_equal(params[k], want_params[k]) for k in NAMES)
    assert engine._workspace.bindings > 0 and composed._workspace.bindings == 0
    assert engine._rendered_on == composed._rendered_on == "native"


# ---------------------------------------------------------------------------
# The prepared call: what a warmed step pays for, and when it re-prepares
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sparse():
    """An ``enhanced`` engine on the ruler's ``sparse`` recipe (smoke size),
    a plan of one batch, the targets."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
    from bench_e2e.workloads import batch_schedule, build_train_inputs, get_workload

    spec = get_workload("sparse", smoke=True).train
    inputs = build_train_inputs(spec, 0)
    scene = inputs.scene
    model = inputs.initial_model or GaussianModel.from_point_cloud(
        scene.init_points, colors=scene.init_colors, sh_degree=1, seed=0
    )
    engine = create_engine(
        "enhanced", model.clone(), scene.cameras,
        EngineConfig(batch_size=spec.batch_size, kernel_backend="native"),
    )
    targets = dict(zip((c.view_id for c in scene.cameras), scene.images))
    return engine, engine.plan_batch(batch_schedule(spec, 0, 1)[0]), targets


def count_preparation(monkeypatch, ws):
    """The operands of each ``_Binder.bind`` call of ``view_train``, its
    ``_Binder.rows`` calls, the ``Workspace.arena`` calls on ``ws`` and the
    keys of the bindings ``Workspace.binding`` makes on it (a kept one
    returned is none)."""
    from repro.kernels import native_backend

    seen = {"bind": [], "rows": [], "arena": [], "binding": []}
    binder = native_backend._Binder
    bind, rows, arena, binding = binder.bind, binder.rows, Workspace.arena, Workspace.binding

    def counted_bind(self, args, given, dims=None):
        if self.name == "view_train":
            seen["bind"].append(tuple(sorted(given)))
        return bind(self, args, given, dims)

    def counted_rows(self, args, name, *rest):
        if self.name == "view_train":
            seen["rows"].append(name)
        return rows(self, args, name, *rest)

    def counted_arena(self, name, *args, **kwargs):
        if self is ws:
            seen["arena"].append(name)
        return arena(self, name, *args, **kwargs)

    def counted_binding(self, key, owners, bind, *args):
        def made(*args):
            if self is ws:
                seen["binding"].append(key)
            return bind(*args)

        return binding(self, key, owners, made, *args)

    monkeypatch.setattr(binder, "bind", counted_bind)
    monkeypatch.setattr(binder, "rows", counted_rows)
    monkeypatch.setattr(Workspace, "arena", counted_arena)
    monkeypatch.setattr(Workspace, "binding", counted_binding)
    return seen


def resident_pass(engine, steps, targets, ws, into, moments):
    """Every one of ``steps`` (of one batch) through the ``view_train`` op over ``ws``, as
    ``_accumulate_planned`` runs it: the losses, each step's gradients and
    ``into``."""
    out = []
    for step in steps:
        target = targets[step.view_id]
        if moments.get(step.view_id, (None,))[0] is not target:
            moments[step.view_id] = (target, TargetMoments.of(target))
        loss, grads = native_op()(
            engine.cameras[step.view_id], engine.model, engine.raster_settings, target,
            moments[step.view_id][1], 0.2, 8, ws, step.working_set, into,
        )
        out.append((loss.hex(), {k: v.copy() for k, v in grads.items()}))
        ws.release()
    return out, {k: v.copy() for k, v in into.items()}


def assert_passes_equal(got, want) -> None:
    assert [loss for loss, _ in got[0]] == [loss for loss, _ in want[0]]
    for (_, grads), (_, want_grads) in zip(got[0], want[0]):
        assert all(np.array_equal(grads[k], want_grads[k]) for k in NAMES)
    assert all(np.array_equal(got[1][k], want[1][k]) for k in NAMES)


@pytest.mark.parametrize("event", ["warmed", "fresh gradients", "arena growth", "replaced target"])
def test_a_resident_step_binds_only_its_rows_until_something_changes(
    sparse, event, monkeypatch
):
    """A warmed ``view_train`` binds only its rows and allocates nothing;
    fresh full-size gradients (every batch of ``enhanced``), a view larger
    than any before and a replaced target each re-prepare once, and the
    pass is a fresh workspace's bit for bit."""
    engine, plan, targets = sparse
    ws, moments, into = Workspace(), {}, engine.model.zero_gradients()
    steps = list(plan.steps)
    big = max(steps, key=lambda step: step.working_set.size)
    if event == "arena growth":
        warm = [step for step in steps if step is not big]
        resident_pass(engine, warm, targets, ws, into, moments)
        assert all(step.working_set.size < big.working_set.size for step in warm)
        steps = [big, *warm]
    else:
        resident_pass(engine, steps, targets, ws, into, moments)
    if event == "fresh gradients":
        into = engine.model.zero_gradients()
    if event == "replaced target":
        view = steps[3].view_id
        targets = {**targets, view: targets[view].copy()}
    allocations, made = ws.allocations, ws.bindings
    seen = count_preparation(monkeypatch, ws)
    want_into = {k: v.copy() for k, v in into.items()}
    got = resident_pass(engine, steps, targets, ws, into, moments)
    rows = ["rows"] * len(steps)
    assert seen["rows"] == rows
    if event == "warmed":
        assert seen == {"bind": [], "rows": rows, "arena": [], "binding": []}
        assert ws.allocations == allocations
    elif event == "fresh gradients":
        assert seen["binding"] == ["resident"] and ws.bindings == made + 1
        assert len(seen["bind"]) == 1 and seen["arena"] == []
    elif event == "arena growth":
        assert seen["binding"] == [("view", "view_train", big.view_id)]
        # Placed again, each arena once (within an arena's headroom, a
        # placement allocates nothing).
        assert len(seen["arena"]) == len(set(seen["arena"])) > 0
    else:
        assert seen["binding"] == [("view", "view_train", view)]
        assert ws.bindings == made + 1 and seen["arena"] == []
    assert_passes_equal(got, resident_pass(engine, steps, targets, Workspace(), want_into, {}))
