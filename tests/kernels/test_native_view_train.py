"""``view_train``: a training view as one native op, against the composition.

On ``native`` an engine runs each training view as the ``view_train`` op:
``view_project``, ``view_composite``, ``photometric_loss`` and
``view_backward`` over the engine's :class:`~repro.kernels.Workspace`.  The
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
    with pytest.raises(ValueError, match="native photometric_loss: y is"):
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
