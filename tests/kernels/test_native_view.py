"""The whole-view ops of ``native`` against the NumPy ops they replace.

``view_forward`` / ``view_backward`` run projection, binning and the
gradient chain in C around the compositing kernels; the NumPy ops
(``preprocess`` -> ``build_tile_bins`` -> slab kernels ->
``_chain_to_parameters``) are their reference.  Discrete outputs — which
rows survive, the three CSR arrays — must be ``array_equal``; every
per-Gaussian field, the image and the transmittance agree to 1e-12 and the
five gradient arrays to 1e-10, on every registered scene, both ``bench_e2e``
training scenes and generated models.  A generated example in which some
discrete decision of the NumPy pipeline sits within 1e-9 (relative) of
flipping is set aside — there the two roundings may legitimately disagree —
and the suite asserts that this happens to fewer than 1% of examples.

What the ops refuse (float32 or Fortran-ordered model arrays) the NumPy
op renders when it is asked for; the render names what composited it; a
context
carries its maker's backward pass, and one NumPy made or whose projection
was replaced runs the reference's; renders repeat bit for bit, also from several threads at
once; a render keeps bytes in proportion to its survivors, in buffers no
other render shares; running out of memory is a ``MemoryError``.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_compute_bins import MODEL_CASES, generated_model, projections

from repro.core.memory_model import ACT_PER_GAUSSIAN
from repro.gaussians.camera import look_at_camera
from repro.gaussians.covariance import (
    GaussianShape,
    invert_cov2d,
    project_covariance,
)
from repro.gaussians.frustum import ellipsoids_in_frustum, frustum_planes
from repro.gaussians.model import GaussianModel, sigmoid
from repro.gaussians.projection import project_means
from repro.gaussians.rasterizer import (
    _FOOTPRINT_MARGIN,
    RasterSettings,
    rasterize_forward,
)
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.gaussians.render import render, render_backward
from repro import kernels
from repro.kernels import (
    ENV_VAR,
    KERNEL_OPS,
    backend_status,
    get_backend,
    native_backend,
    numpy_backend,
    registry,
)
from repro.scenes.datasets import build_scene, scene_names
from repro.scenes.images import make_trainable_scene

BUILDS = {row["name"]: row for row in backend_status()}["native"]["available"]
pytestmark = [
    pytest.mark.skipif(not BUILDS, reason="no working C compiler"),
    # A render pinned to ``native`` either ran on it or fails: falling back warns.
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]

GRAD_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")
TIE = 1e-9


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def pinned(opts, backend):
    return replace(opts, kernel_backend=backend)


def per_gaussian_fields(proj):
    """``{name: array}`` of every float field of a projection, retained
    geometry included."""
    fields = {
        f.name: getattr(proj, f.name)
        for f in dataclasses.fields(proj)
        if isinstance(getattr(proj, f.name), np.ndarray)
        and getattr(proj, f.name).dtype == np.float64
    }
    fields.update(
        (f.name, getattr(proj.shapes, f.name))
        for f in dataclasses.fields(GaussianShape)
    )
    return fields


def assert_same_view(ctx, ref):
    """Survivors and bins equal; every per-Gaussian field within 1e-12."""
    assert ctx.kernel_backend == "native" and ref.kernel_backend == "numpy"
    assert ctx.blocks is not None and ref.blocks is None
    assert ctx.blend_cache is None and ctx.num_input == ref.num_input
    assert np.array_equal(ctx.proj.ids, ref.proj.ids)
    assert ctx.proj.sh_degree_used == ref.proj.sh_degree_used
    for name in ("tile_size", "tiles_x", "tiles_y", "width", "height"):
        assert getattr(ctx.bins, name) == getattr(ref.bins, name), name
    for name in ("tile_ids", "offsets", "order"):
        got, want = getattr(ctx.bins, name), getattr(ref.bins, name)
        assert got.dtype == np.int64 and np.array_equal(got, want), name
    want_fields = per_gaussian_fields(ref.proj)
    got_fields = per_gaussian_fields(ctx.proj)
    assert got_fields.keys() == want_fields.keys() and len(got_fields) == 16
    for name, want in want_fields.items():
        got = got_fields[name]
        assert got.shape == want.shape and got.flags.c_contiguous, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)
    # A colour within rounding of the clamp may sit on either side of it.
    mask, ref_mask = ctx.proj.clamp_mask, ref.proj.clamp_mask
    assert mask.dtype == np.bool_ and mask.shape == ref_mask.shape
    assert ((mask == ref_mask) | (np.abs(ref.proj.colors) <= 1e-12)).all()


def assert_matches_numpy(cam, model, opts=None, seed=0):
    """Forward and backward on both backends at the suite's bars; returns
    the native context."""
    opts = opts or RasterSettings()
    ref_img, ref_t, ref = rasterize_forward(cam, model, pinned(opts, "numpy"))
    img, t, ctx = rasterize_forward(cam, model, pinned(opts, "native"))
    assert_same_view(ctx, ref)
    assert img.shape == (cam.height, cam.width, 3) and img.flags.c_contiguous
    np.testing.assert_allclose(img, ref_img, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, ref_t, rtol=0, atol=1e-12)
    g_img = np.random.default_rng(seed).normal(size=img.shape)
    grads = rasterize_backward(ctx, model, g_img)
    want = rasterize_backward(ref, model, g_img)
    assert tuple(grads) == tuple(want) == GRAD_NAMES
    for name in GRAD_NAMES:
        assert grads[name].shape == want[name].shape
        np.testing.assert_allclose(
            grads[name], want[name], rtol=1e-10, atol=1e-10, err_msg=name
        )
    return ctx


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scene_name", scene_names())
def test_every_camera_of_every_registered_scene(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    for cam in scene.cameras:
        assert_matches_numpy(cam, scene.model)


def test_bench_e2e_sparse_scene_whole_model_and_working_sets():
    """``train_sparse``: the whole 20 000-row model (what serving's cold
    path and the baselines render) and the culled working set of each view
    (what ``clm`` renders) — the same survivors either way."""
    scene = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    model = scene.model
    for cam in scene.cameras[::2]:
        ctx = assert_matches_numpy(cam, model)
        rows = np.flatnonzero(
            ellipsoids_in_frustum(
                frustum_planes(cam), model.positions, np.exp(model.log_scales),
                model.quaternions,
            )
        )
        culled = assert_matches_numpy(cam, model.gather(rows))
        assert np.array_equal(rows[culled.proj.ids], ctx.proj.ids)
        assert np.array_equal(culled.bins.order, ctx.bins.order)


def test_bench_e2e_dense_scene():
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    for cam in scene.cameras:
        assert_matches_numpy(cam, scene.reference)


# ---------------------------------------------------------------------------
# Generated models
# ---------------------------------------------------------------------------
def near_a_tie(cam, model, opts, ctx, ref):
    """Whether some discrete decision of the NumPy pipeline — a visibility
    test, ``ceil(3 sqrt(lambda))``, a tile span, a footprint extent, the
    depth order — is within ``TIE`` (relative) of going the other way for
    a row the frustum test lets through."""
    shapes = GaussianShape.of(model.log_scales, model.quaternions)
    live = ellipsoids_in_frustum(
        frustum_planes(cam), model.positions, shapes.scales, model.quaternions
    )
    with np.errstate(all="ignore"):
        means, depths, t_cam = project_means(cam, model.positions)
        cov2d, _ = project_covariance(
            shapes.covariance(), t_cam, cam.rotation, cam.fx, cam.fy
        )
        conics, det = invert_cov2d(cov2d)
        a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
        mid = 0.5 * (a + c)
        lam = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
        pre = 3.0 * np.sqrt(np.maximum(lam, 0.0))
        r = np.ceil(pre)
        x, y = means[:, 0], means[:, 1]
        opac = sigmoid(model.opacity_logits)

        def on_integer(v):
            return np.abs(v - np.round(v)) <= TIE * np.maximum(1.0, np.abs(v))

        def at(v, bound, size):
            return np.abs(v - bound) <= TIE * np.maximum(1.0, size)

        reach = np.abs(x) + np.abs(y) + r
        tie = on_integer(pre) | at(depths, cam.znear, np.abs(depths))
        tie |= at(det, 0.0, a * c) | at(x + r, 0.0, reach) | at(y + r, 0.0, reach)
        tie |= at(x - r, cam.width, reach) | at(y - r, cam.height, reach)
        for coord in (x - r, x + r, y - r, y + r):
            tie |= on_integer(coord / opts.tile_size)
        if opts.alpha_threshold > 0:
            ca, cb, cc = conics[:, 0, 0], conics[:, 0, 1], conics[:, 1, 1]
            level = 2.0 * np.log(opac / opts.alpha_threshold)
            level += _FOOTPRINT_MARGIN * (1.0 + level)
            for mean, num in ((x, cc), (y, ca)):
                half = np.sqrt(level * num / (ca * cc - cb * cb))
                half += _FOOTPRINT_MARGIN * (1.0 + half)
                for edge in (mean - 0.5 - half, mean - 0.5 + half):
                    tie |= np.isfinite(edge) & on_integer(edge)
        tie &= live & np.isfinite(pre)
    if tie.any():
        return True
    # An opacity on the threshold is a tie only where the two ``exp`` round
    # it to different sides (``generated_model`` puts a third of its rows
    # within an ulp of it on purpose; the compositing suites own that edge).
    band = np.abs(ref.proj.opacities - opts.alpha_threshold) <= TIE
    if np.array_equal(ctx.proj.ids, ref.proj.ids) and (
        band & (ctx.proj.opacities != ref.proj.opacities)
    ).any():
        return True
    gaps = np.diff(np.sort(ref.proj.depths))
    return bool(((gaps > 0) & (gaps <= TIE * np.sort(ref.proj.depths)[1:])).any())


EXAMPLES = {"seen": 0, "set aside": 0}


@given(
    case=projections(),
    seed=MODEL_CASES["seed"],
    scale=MODEL_CASES["scale"],
    num=MODEL_CASES["num"],
    background=st.sampled_from([(0.0, 0.0, 0.0), (0.3, 0.6, 0.9)]),
    t_min=st.sampled_from([1e-4, 0.0, 0.5]),
)
@settings(max_examples=120, deadline=None)
def test_generated_models_match_numpy(case, seed, scale, num, background, t_min):
    """Image sizes, tile sizes (4-32), thresholds (1/255, 0.05, 0) and caps
    as ``projections()`` draws them, over ``generated_model`` Gaussians."""
    cam, _, opts = case
    cam, model = generated_model(seed, num, (cam.width, cam.height), scale)
    opts.background, opts.transmittance_min = background, t_min
    ref = rasterize_forward(cam, model, pinned(opts, "numpy"))[2]
    ctx = rasterize_forward(cam, model, pinned(opts, "native"))[2]
    EXAMPLES["seen"] += 1
    if near_a_tie(cam, model, opts, ctx, ref):
        EXAMPLES["set aside"] += 1
        assume(False)
    assert_matches_numpy(cam, model, opts, seed=seed % 1000)


def test_the_tie_filter_sets_aside_under_one_percent():
    if not EXAMPLES["seen"]:
        pytest.skip("runs after test_generated_models_match_numpy")
    assert EXAMPLES["seen"] >= 60
    assert 100 * EXAMPLES["set aside"] < EXAMPLES["seen"], EXAMPLES


@pytest.mark.parametrize("tile_size", [4, 8, 12, 16, 20, 32])
@pytest.mark.parametrize("size", [(61, 45), (33, 27), (9, 13)])
def test_tile_sizes_and_odd_images(tile_size, size):
    """8 divides 16 and 32 (compute tile 8); 4, 12 and 20 are their own
    compute tiles, and their spans go through NumPy's float floor-divide."""
    cam, model = generated_model(seed=tile_size, num=40, size=size, scale=-2.0)
    opts = RasterSettings(tile_size=tile_size, background=(0.3, 0.6, 0.9))
    ctx = assert_matches_numpy(cam, model, opts, seed=tile_size)
    assert ctx.bins.tile_size == (8 if tile_size % 8 == 0 else tile_size)


def test_zero_alpha_threshold_bins_whole_spans():
    cam, model = generated_model(seed=3, num=30, size=(40, 30), scale=-2.0)
    opts = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    ctx = assert_matches_numpy(cam, model, opts)
    assert ctx.bins.num_entries > 0


@pytest.mark.parametrize("stored", [0, 1, 2, 3])
@pytest.mark.parametrize("active", [None, 0, 1, 2, 3, 7])
def test_stored_and_active_sh_degrees(stored, active):
    """``active_sh_degree`` below, at and above the stored degree (above:
    clipped to it); coefficients beyond the active degree get no gradient."""
    cam = look_at_camera(eye=(0.2, -2.4, 0.5), target=(0, 0, 0), width=40, height=30)
    model = GaussianModel.random(30, extent=0.6, sh_degree=stored, seed=stored)
    model.sh[:, 1:] *= 4.0  # view dependence that matters, some clamps
    ctx = assert_matches_numpy(cam, model, RasterSettings(active_sh_degree=active))
    used = stored if active is None else min(active, stored)
    assert ctx.proj.sh_degree_used == used
    grads = rasterize_backward(ctx, model, np.ones((30, 40, 3)))
    assert np.all(grads["sh"][:, (used + 1) ** 2 :] == 0.0)
    assert np.any(grads["sh"][:, : (used + 1) ** 2] != 0.0)


def test_a_negative_active_degree_is_refused_like_the_reference():
    cam, model = generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)
    for backend in ("numpy", "native"):
        with pytest.raises(ValueError, match="SH degree"):
            rasterize_forward(
                cam, model, RasterSettings(active_sh_degree=-1, kernel_backend=backend)
            )


def test_empty_model_and_every_row_behind_the_camera():
    cam = look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0), width=24, height=18)
    opts = RasterSettings(background=(0.2, 0.4, 0.6))
    empty = GaussianModel.random(0, sh_degree=1, seed=0)
    behind = GaussianModel.random(25, extent=0.4, sh_degree=1, seed=0)
    behind.positions[:, 1] -= 8.0
    for model in (empty, behind):
        ctx = assert_matches_numpy(cam, model, opts)
        assert ctx.proj.ids.size == 0 and ctx.bins.num_entries == 0
        img, t, _ = rasterize_forward(cam, model, pinned(opts, "native"))
        assert np.all(img == (0.2, 0.4, 0.6)) and np.all(t == 1.0)
        grads = rasterize_backward(ctx, model, np.ones((18, 24, 3)))
        assert all(not g.any() for g in grads.values())


def test_nan_scale_infinite_logit_and_zero_quaternion_in_one_model():
    """The NaN row is rejected by the frustum test, the infinite logits
    saturate the sigmoid, the zero quaternion normalises to the identity —
    as on the reference, with finite outputs."""
    cam, model = generated_model(seed=9, num=30, size=(40, 30), scale=-1.5)
    model.opacity_logits[:] = 1.0
    model.log_scales[3, 1] = np.nan
    model.opacity_logits[5], model.opacity_logits[6] = np.inf, -np.inf
    model.quaternions[7] = 0.0
    model.quaternions[8, 2] = np.nan
    with np.errstate(all="ignore"):
        ctx = assert_matches_numpy(cam, model, RasterSettings(alpha_threshold=0.0))
        grads = rasterize_backward(ctx, model, np.ones((30, 40, 3)))
    ids = ctx.proj.ids.tolist()
    assert 3 not in ids and 8 not in ids and {5, 6, 7} <= set(ids)
    assert ctx.proj.opacities[ids.index(5)] == 1.0
    assert ctx.proj.opacities[ids.index(6)] == 0.0
    assert np.array_equal(ctx.proj.shapes.rotations[ids.index(7)], np.eye(3))
    assert all(np.isfinite(g).all() for g in grads.values())


# ---------------------------------------------------------------------------
# Finite differences through the native ops
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("param", GRAD_NAMES)
def test_finite_differences_through_the_native_ops(param):
    """Degree-3 SH (the basis Jacobian's longest rows), no threshold and no
    termination, so the render is smooth in every parameter."""
    exact = RasterSettings(
        transmittance_min=0.0, alpha_threshold=0.0, kernel_backend="native"
    )
    model = GaussianModel.random(20, extent=0.5, sh_degree=3, seed=4)
    model.sh[:, 1:] *= 3.0
    cam = look_at_camera(eye=(0.3, -2.2, 0.5), target=(0, 0, 0), width=30, height=24)
    g_img = np.random.default_rng(0).normal(size=(24, 30, 3))

    def value():
        return float(np.sum(rasterize_forward(cam, model, exact)[0] * g_img))

    ctx = rasterize_forward(cam, model, exact)[2]
    assert ctx.kernel_backend == "native"
    analytic = rasterize_backward(ctx, model, g_img)[param].reshape(-1)
    flat = model.parameters()[param].reshape(-1)
    per_row = flat.size // model.num_gaussians
    rendered = (ctx.proj.ids[:, None] * per_row + np.arange(per_row)).ravel()
    for i in np.random.default_rng(1).choice(rendered, size=8, replace=False):
        orig, eps = flat[i], 1e-6
        flat[i] = orig + eps
        up = value()
        flat[i] = orig - eps
        down = value()
        flat[i] = orig
        assert analytic[i] == pytest.approx((up - down) / (2 * eps), rel=2e-3, abs=2e-5)


# ---------------------------------------------------------------------------
# What the ops refuse
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, declared, convert, tol",
    [
        ("positions", "positions", lambda arr: arr.astype(np.float32), 1e-3),
        ("positions", "positions", np.asfortranarray, 1e-10),
        ("quaternions", "quats", np.asfortranarray, 1e-10),
        ("sh", "sh", np.asfortranarray, 1e-10),
    ],
    ids=["float32-positions", "fortran-positions", "fortran-quaternions", "fortran-sh"],
)
def test_other_layouts_are_refused_by_native_and_rendered_by_numpy(field, declared, convert, tol):
    """A model array that is not float64 C-contiguous: ``native``'s binder
    refuses it, naming the operand — it is never handed to the reference —
    and the NumPy op, asked for by name, renders it."""
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    odd = dataclasses.replace(model, **{field: convert(getattr(model, field))})
    arr = getattr(odd, field)
    assert not (arr.dtype == np.float64 and arr.flags.c_contiguous)
    with pytest.raises(ValueError, match=f"native view_project: {declared} is "):
        rasterize_forward(cam, odd, pinned(RasterSettings(), "native"))
    img, _, ctx = rasterize_forward(cam, odd, pinned(RasterSettings(), "numpy"))
    assert ctx.blocks is None and ctx.kernel_backend == "numpy"
    ref_img, _, ref = rasterize_forward(cam, model, RasterSettings())
    assert ref.blocks is not None
    np.testing.assert_allclose(img, ref_img, rtol=0, atol=tol)
    g_img = np.ones_like(ref_img)
    grads, want = (rasterize_backward(c, m, g_img) for c, m in ((ctx, odd), (ref, model)))
    for name in GRAD_NAMES:
        np.testing.assert_allclose(grads[name], want[name], rtol=tol, atol=tol)


def test_a_context_numpy_made_or_a_replaced_projection_goes_to_the_reference():
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    g_img = np.ones((30, 40, 3))
    ctx = rasterize_forward(cam, model, RasterSettings())[2]
    want = rasterize_backward(ctx, model, g_img)
    assert ctx.backward_pass() is ctx.backward and ctx.blend_state_bytes() > 0
    # Same arrays, another projection object: not what the block was cut for
    # (nor its blend records: NumPy regenerates its own blend state).
    ctx.proj = dataclasses.replace(ctx.proj, shapes=None, dirs=None, dir_norms=None)
    assert ctx.backward_pass() is numpy_backend.view_backward
    rebuilt = rasterize_backward(ctx, model, g_img)
    made_by_numpy = rasterize_forward(cam, model, pinned(RasterSettings(), "numpy"))[2]
    made_by_numpy.settings = RasterSettings()  # ``auto``: not what decides
    assert made_by_numpy.backward is None
    assert made_by_numpy.backward_pass() is numpy_backend.view_backward
    crossed = rasterize_backward(made_by_numpy, model, g_img)
    for name in GRAD_NAMES:
        np.testing.assert_allclose(rebuilt[name], want[name], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(crossed[name], want[name], rtol=1e-10, atol=1e-10)


def test_a_bad_tile_size_and_inconsistent_bins_are_refused():
    """What no operand declaration says (``test_native_refusals`` has the
    operands): a tile size the settings refuse, bins the C finds
    inconsistent with the blocks they index."""
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    forward = get_backend("native").compile("view_forward")
    with pytest.raises(ValueError, match="tile_size"):
        forward(cam, model, RasterSettings(tile_size=0))
    ctx = forward(cam, model, RasterSettings())[2]
    backward = ctx.backward
    ctx.bins.order[0] = ctx.proj.ids.size  # a row the block does not have
    with pytest.raises(ValueError, match="inconsistent"):
        backward(ctx, model, np.ones((30, 40, 3)))


def test_the_backward_follows_the_context(monkeypatch):
    """``render_backward`` on a ``native`` context: one C ``view_backward``
    call over its blocks, no backend resolved, nothing compiled."""
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    result = render(cam, model, RasterSettings(kernel_backend="native"))
    assert result.ctx.kernel_backend == "native"
    lib = get_backend("native").library().load()
    c_backward = mock.Mock(wraps=lib.view_backward)
    monkeypatch.setattr(lib, "view_backward", c_backward)
    resolved = []
    for owner, name in (
        (registry, "resolve_backend"), (registry, "compile_with_fallback"),
        (kernels, "resolve_backend"), (kernels, "compile_with_fallback"),
    ):
        monkeypatch.setattr(
            owner, name, lambda *a, _name=name, **k: resolved.append(_name)
        )
    grads = render_backward(result, model, np.ones((30, 40, 3)))
    assert c_backward.call_count == 1 and resolved == []
    assert np.abs(grads["positions"]).sum() > 0


def test_the_backend_declares_the_eleven_units():
    assert KERNEL_OPS == (
        "exact_cull", "grid_cull", "view_forward", "assemble_rows", "zero_rows",
        "adam_rows", "photometric_loss", "view_train", "plan_batch",
        "train_step", "train_batch",
    )
    assert get_backend("native").capabilities() == frozenset(KERNEL_OPS)
    assert get_backend("numpy").capabilities() == frozenset(KERNEL_OPS)


# ---------------------------------------------------------------------------
# Determinism and ownership
# ---------------------------------------------------------------------------
def render_and_backprop(cam, model, g_img):
    img, t, ctx = rasterize_forward(cam, model, RasterSettings(kernel_backend="native"))
    assert ctx.kernel_backend == "native" and ctx.blocks is not None
    grads = rasterize_backward(ctx, model, g_img)
    fields = per_gaussian_fields(ctx.proj)
    return (
        [img, t, ctx.proj.ids, ctx.bins.tile_ids, ctx.bins.offsets, ctx.bins.order]
        + [fields[name] for name in sorted(fields)]
        + [grads[name] for name in GRAD_NAMES]
    )


def test_two_runs_and_two_threads_are_bit_identical():
    cam, model = generated_model(seed=5, num=40, size=(61, 45), scale=-0.5)
    g_img = np.random.default_rng(5).normal(size=(45, 61, 3))
    first = render_and_backprop(cam, model, g_img)
    results, errors = [], []

    def worker():
        try:
            for _ in range(10):
                results.append(render_and_backprop(cam, model, g_img))
        except BaseException as exc:  # surfaced below, on the test's thread
            errors.append(exc)
            raise

    threads = [threading.Thread(target=worker) for _ in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert len(results) == 30
    for again in results:
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


def buffers(ctx):
    """Every distinct buffer a context's arrays live in, its blend records
    included."""
    arrays = list(per_gaussian_fields(ctx.proj).values()) + [
        ctx.proj.ids, ctx.proj.clamp_mask, ctx.bins.tile_ids, ctx.bins.offsets,
        ctx.bins.order, *ctx.blocks[4:],
    ]
    owners = {}
    for arr in arrays:
        while arr.base is not None:
            arr = arr.base
        owners[id(arr)] = arr
    return list(owners.values())


def test_two_contexts_alive_at_once_do_not_alias():
    cam, model = generated_model(seed=5, num=40, size=(61, 45), scale=-0.5)
    g_img = np.random.default_rng(5).normal(size=(45, 61, 3))
    opts = RasterSettings(kernel_backend="native")
    img_a, _, a = rasterize_forward(cam, model, opts)
    want = rasterize_backward(a, model, g_img)
    snapshot = [arr.copy() for arr in buffers(a)]
    other = look_at_camera(eye=(1.5, -1.8, 0.2), target=(0, 0, 0), width=61, height=45)
    img_b, _, b = rasterize_forward(other, model, opts)
    assert not any(
        np.shares_memory(x, y) for x in buffers(a) + [img_a] for y in buffers(b) + [img_b]
    )
    rasterize_backward(b, model, g_img)
    assert all(np.array_equal(x, y) for x, y in zip(buffers(a), snapshot))
    again = rasterize_backward(a, model, g_img)  # a's blocks, still intact
    assert all(np.array_equal(again[name], want[name]) for name in GRAD_NAMES)
    assert len(a.blocks) == 7  # the three blend-record blocks included
    assert set(map(id, buffers(a))) == {id(block) for block in a.blocks[1:]}


def test_a_render_retains_bytes_in_proportion_to_its_survivors():
    """20 000 input rows, about a hundred survivors: what the context keeps
    alive is sized by the survivors, equals ``activation_bytes`` up to the
    documented budgeting (mask bytes counted as floats, ids as keys, the
    CSR header) and, but for the blend records, stays under the pool
    model's per-Gaussian allowance."""
    scene = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    model, cam = scene.model, scene.cameras[0]
    _, _, ctx = rasterize_forward(cam, model, RasterSettings(kernel_backend="native"))
    m, tiles, entries = ctx.proj.ids.size, ctx.bins.num_tiles, ctx.bins.num_entries
    records = ctx.blend_state_bytes()
    assert model.num_gaussians == 20_000 and 0 < m < 400 and records > 0
    held = sum(block.nbytes for block in buffers(ctx))
    assert held == (52 * 8 + 8 + 3) * m + 8 * (2 * tiles + 1 + entries) + records
    # activation_bytes: 55 floats a Gaussian (the 3-byte mask as 3 floats,
    # ids not counted) + 8 bytes a tile key + the blend records.
    assert ctx.activation_bytes() == 440 * m + 8 * entries + records
    assert held - 8 * (2 * tiles + 1) <= ctx.activation_bytes()
    assert held - records - 8 * (entries + 2 * tiles + 1) <= ACT_PER_GAUSSIAN * m
    assert held - records < 0.05 * (52 * 8 * model.num_gaussians)
    # The records: the final T of each binned tile, 20 bytes for each cell
    # of the footprints (at most the binned cells), one end per entry.
    cells, pixels = ctx.blocks[5].size, ctx.bins.tile_size**2
    assert records == 8 * tiles * pixels + 20 * cells + 8 * (entries + 1)
    assert cells <= entries * pixels


# ---------------------------------------------------------------------------
# Out of memory
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_allocation_failure_in_any_of_the_three_calls_is_a_memory_error():
    """With the address space capped 32 MB above what the process has, a
    1000x10 render on 999-pixel compute tiles gets its 320 KB of outputs
    but not its 64 MB of padded canvases, the recomputing backward pass of
    3000 splats deep on one 36x36 tile cannot get its ~78 MB of scratch
    records, and a render of those splats that keeps its blend state cannot
    get the ~61 MB of blend records: each must arrive as a ``MemoryError``
    that names what failed, and the process lives on to render again."""
    script = textwrap.dedent(
        """
        import resource
        from dataclasses import replace
        import numpy as np
        from repro.gaussians.camera import look_at_camera
        from repro.gaussians.model import GaussianModel
        from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
        from repro.gaussians.rasterizer_grad import rasterize_backward

        m = 3000
        model = GaussianModel.random(m, extent=1e-3, sh_degree=0, seed=0)
        model.log_scales[:] = 1.0
        model.opacity_logits[:] = 0.0
        opts = RasterSettings(
            tile_size=36, kernel_backend="native", cache_blend_state=False
        )
        small = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), width=32, height=32)
        wide = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), width=1000, height=10)
        padded = replace(opts, tile_size=999)
        _, _, ctx = rasterize_forward(small, model, opts)
        assert ctx.kernel_backend == "native" and len(ctx.blocks) == 4
        assert ctx.bins.num_tiles == 1 and ctx.bins.num_entries == m

        with open("/proc/self/statm") as handle:
            have = int(handle.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (have + (32 << 20), -1))
        cached = replace(opts, cache_blend_state=True)
        for name, call in (
            ("forward", lambda: rasterize_forward(wide, model, padded)),
            ("backward", lambda: rasterize_backward(ctx, model, np.ones((32, 32, 3)))),
            ("records", lambda: rasterize_forward(small, model, cached)),
        ):
            try:
                call()
            except MemoryError as exc:
                print(name, "MemoryError:", exc)
        _, _, again = rasterize_forward(small, model, opts)
        print("alive", again.proj.ids.size)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(native_backend.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 4, done.stdout
    assert lines[0].startswith("forward MemoryError: native view_composite")
    assert lines[1].startswith("backward MemoryError: native view_backward")
    assert lines[2].startswith(
        "records MemoryError: native view_forward could not allocate its blend records"
    )
    assert lines[3] == "alive 3000"
