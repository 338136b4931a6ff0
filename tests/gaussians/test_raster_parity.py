"""Golden parity: the grouped CSR substrate vs the legacy per-tile loop.

The legacy forward/backward (``rasterize_forward_legacy`` /
``rasterize_backward_legacy`` in ``tests/reference/legacy_raster.py``, the
exact pre-substrate code) is the golden reference; the vectorized path must reproduce its images, transmittance
and all five gradient arrays to float64 round-off across seeds, tile
sizes and group sizes, including the empty-model and single-Gaussian edge
cases.  The float32 compute mode is checked against float64-mode
gradients and finite differences.
"""

import numpy as np
import pytest
from legacy_raster import rasterize_backward_legacy, rasterize_forward_legacy

from repro.gaussians.camera import look_at_camera
from repro.gaussians.loss import l1_loss
from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.rasterizer import (
    RasterSettings,
    TileBins,
    build_tile_bins,
    iter_tile_groups,
    preprocess,
    rasterize_forward,
)
from repro.gaussians.rasterizer_grad import rasterize_backward

GRAD_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")


def make_setup(seed, num=70, width=52, height=36):
    model = GaussianModel.random(num, extent=0.8, sh_degree=2, seed=seed)
    cam = look_at_camera(
        eye=(0.2, -2.4, 0.5), target=(0, 0, 0),
        width=width, height=height, view_id=0,
    )
    g_img = np.random.default_rng(seed + 100).normal(size=(height, width, 3))
    return model, cam, g_img


def assert_parity(model, cam, g_img, settings, atol=1e-10):
    img_l, t_l, ctx_l = rasterize_forward_legacy(cam, model, settings)
    img_v, t_v, ctx_v = rasterize_forward(cam, model, settings)
    np.testing.assert_allclose(img_v, img_l, atol=atol)
    np.testing.assert_allclose(t_v, t_l, atol=atol)
    grads_l = rasterize_backward_legacy(ctx_l, model, g_img)
    grads_v = rasterize_backward(ctx_v, model, g_img)
    for name in GRAD_NAMES:
        np.testing.assert_allclose(
            grads_v[name], grads_l[name], atol=atol, err_msg=name
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tile_size", [8, 16])
def test_parity_across_seeds_and_tile_sizes(seed, tile_size):
    model, cam, g_img = make_setup(seed)
    settings = RasterSettings(
        tile_size=tile_size, background=(0.1, 0.2, 0.3)
    )
    assert_parity(model, cam, g_img, settings)


@pytest.mark.parametrize("tiles", [1, 3, 64])
def test_parity_across_group_sizes(slab_tiles, tiles):
    model, cam, g_img = make_setup(3)
    with slab_tiles(tiles):
        assert_parity(model, cam, g_img, RasterSettings())


def test_parity_exact_mode_and_no_cache():
    """alpha_threshold 0 exercises the pad-entry gating edge; disabling
    the blend cache exercises the recompute route of the backward pass."""
    model, cam, g_img = make_setup(4)
    for cache in (True, False):
        settings = RasterSettings(
            alpha_threshold=0.0, transmittance_min=0.0,
            cache_blend_state=cache,
        )
        assert_parity(model, cam, g_img, settings)


def test_parity_single_gaussian():
    model = GaussianModel.random(1, sh_degree=0, seed=0)
    model.positions[0] = (0.0, 0.0, 0.0)
    model.log_scales[:] = -2.5
    model.quaternions[0] = (1, 0, 0, 0)
    model.opacity_logits[0] = inverse_sigmoid(np.array([0.9]))[0]
    cam = look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0),
                         width=48, height=32, view_id=0)
    g_img = np.random.default_rng(0).normal(size=(32, 48, 3))
    assert_parity(model, cam, g_img, RasterSettings())


def test_parity_empty_model():
    base = GaussianModel.random(3, sh_degree=0, seed=0)
    empty = base.gather(np.array([], dtype=np.int64))
    cam = look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0),
                         width=48, height=32, view_id=0)
    g_img = np.ones((32, 48, 3))
    assert_parity(empty, cam, g_img, RasterSettings(background=(0.2, 0.4, 0.6)))


def test_tile_groups_partition_the_bins(slab_tiles):
    """Every non-empty tile appears in exactly one slab, padded to at
    least its bin length."""
    model, cam, _ = make_setup(6, num=150)
    settings = RasterSettings(tile_size=8)
    proj = preprocess(cam, model, settings)
    bins = build_tile_bins(cam, proj, settings)
    seen = []
    counts = bins.counts()
    with slab_tiles(4):
        groups = list(iter_tile_groups(bins))
    for tix, g in groups:
        assert len(tix) <= 4
        assert int(counts[tix].max()) <= g
        seen.extend(tix.tolist())
    assert sorted(seen) == list(range(bins.num_tiles))


def test_a_slab_holds_at_most_256_tiles():
    """600 one-entry tiles: neither the cell nor the padding cap binds, so
    the tile cap alone cuts the slabs."""
    bins = TileBins(
        tile_size=8, tiles_x=30, tiles_y=20, width=240, height=160,
        tile_ids=np.arange(600), offsets=np.arange(601), order=np.arange(600),
    )
    assert [len(tix) for tix, _ in iter_tile_groups(bins)] == [256, 256, 88]


def test_float32_mode_matches_float64_gradients():
    """The float32 compute mode accumulates gradients in float64; they
    must track the float64-mode (and hence legacy) gradients closely."""
    model, cam, g_img = make_setup(7)
    exact = dict(alpha_threshold=0.0, transmittance_min=0.0)
    _, _, ctx64 = rasterize_forward(cam, model, RasterSettings(**exact))
    _, _, ctx32 = rasterize_forward(
        cam, model, RasterSettings(dtype="float32", **exact)
    )
    g64 = rasterize_backward(ctx64, model, g_img)
    g32 = rasterize_backward(ctx32, model, g_img)
    for name in GRAD_NAMES:
        assert g32[name].dtype == np.float64
        scale = max(1e-6, float(np.abs(g64[name]).max()))
        np.testing.assert_allclose(
            g32[name] / scale, g64[name] / scale, atol=5e-4, err_msg=name
        )


def test_float32_mode_finite_difference_gradcheck():
    """FD gradcheck of the float32 mode's float64 accumulators: central
    differences of the float64-exact loss vs the f32-mode analytic
    gradient (f32 forward noise bounds the achievable tolerance)."""
    model, cam, _ = make_setup(8, num=25)
    target = np.random.default_rng(1).uniform(0, 1, (36, 52, 3))
    exact64 = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    exact32 = RasterSettings(
        alpha_threshold=0.0, transmittance_min=0.0, dtype="float32"
    )

    def loss_value():
        img, _, _ = rasterize_forward(cam, model, exact64)
        return l1_loss(img, target)[0]

    img32, _, ctx32 = rasterize_forward(cam, model, exact32)
    _, g_img = l1_loss(np.asarray(img32, dtype=np.float64), target)
    grads = rasterize_backward(ctx32, model, g_img)
    flat = model.positions.reshape(-1)
    gflat = grads["positions"].reshape(-1)
    eps = 1e-5
    indices = np.random.default_rng(2).choice(
        flat.size, size=5, replace=False
    )
    for i in indices:
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_value()
        flat[i] = orig - eps
        lm = loss_value()
        flat[i] = orig
        fd = (lp - lm) / (2 * eps)
        assert gflat[i] == pytest.approx(fd, rel=5e-3, abs=5e-4), i
