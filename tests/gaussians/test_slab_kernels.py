"""The compositing kernels against the legacy per-tile oracle.

The generated and named oracle cases run on whichever backend ``auto``
selects and again, through ``tests/kernels/other_backends``, on the one it
does not; the cases that look inside NumPy's blend state pin it themselves.
``repro.kernels.numpy_backend`` composites on ``(G, T, P)`` slabs from
per-entry lane terms and differentiates through three retained tensors
(``weights``, ``odds``, ``gate``).  The oracle is the pre-substrate loop
(``rasterize_forward_legacy`` / ``rasterize_backward_legacy`` over
``tile_alpha_weights``, ``tests/reference/legacy_raster.py``) at the
existing bars: image and transmittance
<= 1e-12, gradients <= 1e-10 — screen-space on generated projections,
all five parameter arrays on generated models.  Every test here runs with
``RuntimeWarning`` as an error.
"""

import contextlib
from dataclasses import replace
from unittest import mock

import legacy_raster
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_raster import rasterize_backward_legacy, rasterize_forward_legacy
from test_compute_bins import (
    GRAD_NAMES,
    MODEL_CASES,
    assert_matches_oracle,
    generated_model,
    image_camera,
    make_proj,
    projections,
)

from repro.gaussians import rasterizer, rasterizer_grad
from repro.gaussians.camera import look_at_camera
from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.rasterizer import (
    RasterSettings,
    iter_tile_groups,
    rasterize_forward,
)
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.kernels import numpy_backend
from repro.scenes.images import make_trainable_scene

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CAM = look_at_camera(eye=(0.2, -2.4, 0.5), target=(0, 0, 0), width=52, height=36)


def make_model(seed=0, num=70):
    return GaussianModel.random(num, extent=0.8, sh_degree=2, seed=seed)


def render_both_ways(model, opts, cam=CAM, seed=0):
    """Gradients with the blend cache and with the backward recompute."""
    g_img = np.random.default_rng(seed).normal(size=(cam.height, cam.width, 3))
    out = []
    for cache in (True, False):
        img, trans, ctx = rasterize_forward(
            cam, model, replace(opts, cache_blend_state=cache)
        )
        out.append((img, trans, ctx, rasterize_backward(ctx, model, g_img)))
    return out


def slab_cells(ctx):
    pixels = ctx.bins.tile_size**2
    groups = iter_tile_groups(ctx.bins)
    return sum(len(tix) * g * pixels for tix, g in groups)


# ---------------------------------------------------------------------------
# Generated cases
# ---------------------------------------------------------------------------
def screen_space(forward, backward, cam, proj, opts, g_img):
    """Image, transmittance and the screen-space gradients of one path on a
    hand-made projection (``preprocess`` and the parameter chain stubbed,
    both where the renderer and where the oracle look them up)."""
    stub = mock.Mock(num_gaussians=proj.ids.size)
    with contextlib.ExitStack() as stack:
        for module in (rasterizer, legacy_raster):
            stack.enter_context(
                mock.patch.object(module, "preprocess", lambda *a: proj)
            )
        for module in (rasterizer_grad, legacy_raster):
            stack.enter_context(mock.patch.object(
                module, "_chain_to_parameters", lambda ctx, model, *g: g
            ))
        img, trans, ctx = forward(cam, stub, opts)
        d_colors, d_opac, d_means2d, d_conics = backward(ctx, stub, g_img)
    # The logit gradient: what the parameter chain makes of d_opac (a
    # zero-opacity splat has none, whatever d_opac says).
    d_logit = d_opac * proj.opacities * (1.0 - proj.opacities)
    return img, trans, (d_colors, d_logit, d_means2d, d_conics)


@given(
    case=projections(),
    background=st.sampled_from([(0.0, 0.0, 0.0), (0.3, 0.6, 0.9)]),
    t_min=st.sampled_from([1e-4, 0.0, 0.5]),
    tiles=st.sampled_from([1, 3, 256]),
)
@settings(max_examples=150, deadline=None)
def test_generated_projections_match_oracle(
    slab_tiles, case, background, t_min, tiles
):
    """Opacities at, one ulp around and below the threshold, means on pixel
    centres, caps at 0.5: the kernels keep and gate the oracle's cells."""
    cam, proj, opts = case
    opts.background, opts.transmittance_min = background, t_min
    g_img = np.random.default_rng(proj.ids.size).normal(
        size=(cam.height, cam.width, 3)
    )
    img_o, t_o, grads_o = screen_space(
        rasterize_forward_legacy, rasterize_backward_legacy, cam, proj, opts, g_img
    )
    with slab_tiles(tiles):
        img, t, grads = screen_space(
            rasterize_forward, rasterize_backward, cam, proj, opts, g_img
        )
    np.testing.assert_allclose(img, img_o, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, t_o, rtol=0, atol=1e-12)
    for got, want in zip(grads, grads_o):
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@given(
    t_min=st.sampled_from([1e-4, 0.0, 0.5]),
    max_alpha=st.sampled_from([0.99, 0.5]),
    tau=st.sampled_from([1.0 / 255.0, 0.0]),
    **MODEL_CASES,
)
@settings(max_examples=40, deadline=None)
def test_generated_models_match_oracle(seed, num, size, scale, t_min, max_alpha, tau):
    cam, model = generated_model(seed, num, size, scale)
    opts = RasterSettings(
        background=(0.3, 0.6, 0.9), transmittance_min=t_min,
        max_alpha=max_alpha, alpha_threshold=tau,
    )
    assert_matches_oracle(cam, model, opts, seed=seed % 1000)


# ---------------------------------------------------------------------------
# Named cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("background", [(0.1, 0.2, 0.3), (1.0, 1.0, 1.0)])
def test_background_enters_the_suffix_total(background):
    """``total = csum[-1] + bg_term``: the residual transmittance carries
    the background colour's gradient to every splat in front of it."""
    model = make_model(1)
    assert_matches_oracle(CAM, model, RasterSettings(background=background))
    g_img = np.ones((CAM.height, CAM.width, 3))
    grads = [
        rasterize_backward(
            rasterize_forward(CAM, model, RasterSettings(background=bg))[2],
            model, g_img,
        )
        for bg in ((0.0, 0.0, 0.0), background)
    ]
    assert not np.allclose(grads[0]["opacity_logits"], grads[1]["opacity_logits"])


def test_cells_at_the_cap_pass_the_threshold_but_not_the_gate():
    model = make_model(2)
    model.opacity_logits[:] = inverse_sigmoid(np.full(70, 0.95))
    opts = RasterSettings(max_alpha=0.5, kernel_backend="numpy")
    assert_matches_oracle(CAM, model, opts)
    _, _, ctx = rasterize_forward(CAM, model, opts)
    capped = sum(
        int(np.sum((s["weights"] > 0) & ~s["gate"])) for s in ctx.blend_cache
    )
    assert capped > 0  # blended (threshold passed), no alpha gradient


@pytest.mark.parametrize("t_min", [0.0, 0.5])
def test_terminated_cells_keep_their_odds_term(t_min):
    """Behind the termination threshold a splat stops emitting
    (``weights == 0``) but still attenuates what is behind it."""
    model = make_model(3)
    model.opacity_logits[:] = inverse_sigmoid(np.full(70, 0.8))
    opts = RasterSettings(transmittance_min=t_min, kernel_backend="numpy")
    assert_matches_oracle(CAM, model, opts)
    _, _, ctx = rasterize_forward(CAM, model, opts)
    terminated = sum(
        int(np.sum((s["weights"] == 0) & (s["odds"] > 0) & s["gate"]))
        for s in ctx.blend_cache
    )
    assert (terminated > 0) == (t_min > 0)


def test_exact_mode_with_vanishing_opacities_has_no_nan():
    """``alpha_threshold=0`` bins every splat, including ones whose opacity
    underflows: ``d_opacity = s00 / opacity`` must stay finite."""
    model = make_model(4)
    model.opacity_logits[::3] = -60.0
    model.opacity_logits[1::7] = -800.0  # sigmoid == 0.0 exactly
    opts = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    assert_matches_oracle(CAM, model, opts)
    for _, _, _, grads in render_both_ways(model, opts):
        assert all(np.isfinite(grads[name]).all() for name in GRAD_NAMES)


@pytest.mark.parametrize(
    "conic",
    [
        [[2e-3, 2e-3], [2e-3, 2e-3]],  # det == 0: extents divide by zero
        [[1e-3, 4e-3], [4e-3, 1e-3]],  # det < 0: extents are sqrt(negative)
    ],
    ids=["singular", "indefinite"],
)
def test_footprint_without_a_finite_extent_is_the_whole_tile(conic):
    """A conic whose footprint has no finite extent keeps its whole span:
    the compute bins drop none of the oracle's cells."""
    cam = image_camera(24, 16)
    proj = make_proj(
        [[11.3, 7.2], [6.0, 6.0]], [400.0 * np.eye(2), 5.0 * np.eye(2)], [0.6, 0.8]
    )
    proj.conics[0] = conic
    g_img = np.ones((16, 24, 3))
    img_o, t_o, _ = screen_space(
        rasterize_forward_legacy, rasterize_backward_legacy, cam, proj,
        RasterSettings(), g_img,
    )
    img, t, _ = screen_space(
        rasterize_forward, rasterize_backward, cam, proj, RasterSettings(), g_img
    )
    np.testing.assert_allclose(img, img_o, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, t_o, rtol=0, atol=1e-12)
    assert np.count_nonzero(t_o != 1.0) > 100  # a ridge across the image


def test_one_tile_per_slab(slab_tiles):
    with slab_tiles(1):
        assert_matches_oracle(CAM, make_model(5), RasterSettings())


def test_float32_mode_tracks_float64():
    model = make_model(6)
    (_, _, _, g64), _ = render_both_ways(model, RasterSettings())
    (img, _, ctx, g32), (img_off, _, _, g32_off) = render_both_ways(
        model, RasterSettings(dtype="float32")
    )
    assert img.dtype == np.float32 and np.array_equal(img, img_off)
    assert all(
        s[key].dtype == np.float32
        for s in ctx.blend_cache for key in ("weights", "odds", "t_final")
    )
    for name in GRAD_NAMES:
        assert g32[name].dtype == np.float64
        assert np.array_equal(g32[name], g32_off[name])
        scale = max(1e-6, float(np.abs(g64[name]).max()))
        np.testing.assert_allclose(
            g32[name] / scale, g64[name] / scale, atol=5e-4, err_msg=name
        )


# ---------------------------------------------------------------------------
# The blend cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "opts, tiles",
    [
        (RasterSettings(), rasterizer._MAX_GROUP_TILES),
        (RasterSettings(background=(0.2, 0.4, 0.6), max_alpha=0.5), 2),
        (
            RasterSettings(alpha_threshold=0.0, transmittance_min=0.0),
            rasterizer._MAX_GROUP_TILES,
        ),
        (
            RasterSettings(dtype="float32", transmittance_min=0.5),
            rasterizer._MAX_GROUP_TILES,
        ),
    ],
    ids=["default", "bg-cap-groups", "exact", "float32"],
)
def test_recomputed_backward_is_bit_identical_to_cached(slab_tiles, opts, tiles):
    with slab_tiles(tiles):
        (img, t, ctx, grads), (img_off, t_off, ctx_off, grads_off) = (
            render_both_ways(make_model(7), replace(opts, kernel_backend="numpy"))
        )
    assert ctx.blend_cache and ctx_off.blend_cache is None
    assert np.array_equal(img, img_off) and np.array_equal(t, t_off)
    for name in GRAD_NAMES:
        assert np.array_equal(grads[name], grads_off[name]), name


def test_forward_only_renders_skip_the_backward_operands():
    model = make_model(8)
    seen = []
    blend = numpy_backend._blend_slab

    def spy(terms, opac, settings, for_backward):
        state = blend(terms, opac, settings, for_backward)
        seen.append((for_backward, sorted(state)))
        return state

    with mock.patch.object(numpy_backend, "_blend_slab", spy):
        _, _, ctx = rasterize_forward(
            CAM, model,
            RasterSettings(cache_blend_state=False, kernel_backend="numpy"),
        )
        assert seen and all(
            flag is False and keys == ["t_final", "weights"] for flag, keys in seen
        )
        del seen[:]
        rasterize_backward(ctx, model, np.ones((CAM.height, CAM.width, 3)))
        assert seen and all(flag is True and "odds" in keys for flag, keys in seen)


def test_blend_state_bytes_count_every_retained_array():
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    _, _, ctx = rasterize_forward(
        scene.cameras[0], scene.reference, RasterSettings(kernel_backend="numpy")
    )
    arrays = [v for s in ctx.blend_cache for v in s.values()]
    assert all(isinstance(v, np.ndarray) for v in arrays)
    assert ctx.blend_state_bytes() == sum(v.nbytes for v in arrays)
    # Three cell tensors (8 + 8 + 1 bytes) plus per-row and per-pixel
    # change; the PR 14 cache held 25.1 bytes a cell on this view.
    per_cell = ctx.blend_state_bytes() / slab_cells(ctx)
    assert 17.0 < per_cell < 17.5


def test_row_scan_and_accumulate_agree_bit_for_bit(monkeypatch, slab_tiles):
    model = make_model(9)
    results = []
    for row_min in (0, 10**9):
        monkeypatch.setattr(numpy_backend, "_ROW_SCAN_MIN", row_min)
        with slab_tiles(4):
            (img, t, _, grads), _ = render_both_ways(
                model, RasterSettings(kernel_backend="numpy")
            )
        results.append((img, t, grads))
    (img_a, t_a, g_a), (img_b, t_b, g_b) = results
    assert np.array_equal(img_a, img_b) and np.array_equal(t_a, t_b)
    for name in GRAD_NAMES:
        assert np.array_equal(g_a[name], g_b[name]), name
