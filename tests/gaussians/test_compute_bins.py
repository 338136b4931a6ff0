"""Two-level tile binning is single-level binning, cell for cell.

``build_tile_bins`` bins splats into 8x8 *compute tiles* from their
alpha-threshold footprint inside the ``tile_size`` span.  The oracle here is
the single-level binning the rasterizer used before — every splat in every
``tile_size`` tile of its 3-sigma span (``_build_tiles_loop``), blended by
``tile_alpha_weights`` (both in ``tests/reference/legacy_raster.py``).  A dropped ``(compute tile, splat)`` pair must have
``alpha_raw < alpha_threshold`` on every pixel of that tile, so the set of
``(pixel, splat)`` cells that pass the threshold is ``np.array_equal``
between the two, and images, transmittance and gradients agree to
summation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_raster import (
    TileWork,
    _build_tiles_loop,
    rasterize_backward_legacy,
    rasterize_forward_legacy,
    tile_alpha_weights,
)

from repro.gaussians import rasterizer
from repro.gaussians.camera import look_at_camera
from repro.gaussians.covariance import invert_cov2d
from repro.gaussians.frustum import cull_batch
from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.projection import splat_radii
from repro.gaussians.rasterizer import (
    ProjectedGaussians,
    RasterSettings,
    build_tile_bins,
    preprocess,
    rasterize_forward,
)
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.planning import BatchPlanner
from repro.scenes.datasets import build_scene, scene_names
from repro.scenes.images import make_trainable_scene

GRAD_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")
TAU = RasterSettings().alpha_threshold


def compute_tiles(bins):
    """The CSR compute bins as ``TileWork`` rectangles (clipped to the
    image), so the oracle's ``tile_alpha_weights`` can blend them."""
    ts = bins.tile_size
    tx, ty = bins.tile_xy()
    return {
        (int(x), int(y)): TileWork(
            x0=int(x) * ts,
            y0=int(y) * ts,
            x1=min((int(x) + 1) * ts, bins.width),
            y1=min((int(y) + 1) * ts, bins.height),
            order=bins.order[bins.offsets[i] : bins.offsets[i + 1]],
        )
        for i, (x, y) in enumerate(zip(tx, ty))
    }


def alpha_raw(proj, tile, opts):
    """``(pix, alpha_raw)`` of one tile, as the legacy backward forms it."""
    pix, gauss_weight, _, _, _ = tile_alpha_weights(proj, tile, opts)
    return pix, proj.opacities[tile.order][:, None] * gauss_weight


def thresholded_cells(proj, tiles, opts, width):
    """Sorted ``pixel * M + row`` keys of every cell passing the threshold."""
    m = max(proj.ids.size, 1)
    keys = []
    for tile in tiles.values():
        pix, raw = alpha_raw(proj, tile, opts)
        g, p = np.nonzero(raw >= opts.alpha_threshold)
        pixel = (pix[p, 1] - 0.5) * width + (pix[p, 0] - 0.5)
        keys.append(pixel.astype(np.int64) * m + tile.order[g])
    return np.sort(np.concatenate(keys)) if keys else np.empty(0, np.int64)


def assert_cells_match(cam, proj, opts):
    bins = build_tile_bins(cam, proj, opts)
    got = thresholded_cells(proj, compute_tiles(bins), opts, cam.width)
    want = thresholded_cells(
        proj, _build_tiles_loop(cam, proj, opts), opts, cam.width
    )
    assert np.array_equal(got, want)
    return bins


def assert_matches_oracle(cam, model, opts, seed=0):
    """Cells equal; image/transmittance <= 1e-12; gradients <= 1e-10."""
    bins = assert_cells_match(cam, preprocess(cam, model, opts), opts)
    img_o, t_o, ctx_o = rasterize_forward_legacy(cam, model, opts)
    img, t, ctx = rasterize_forward(cam, model, opts)
    np.testing.assert_allclose(img, img_o, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, t_o, rtol=0, atol=1e-12)
    g_img = np.random.default_rng(seed).normal(size=img.shape)
    grads_o = rasterize_backward_legacy(ctx_o, model, g_img)
    grads = rasterize_backward(ctx, model, g_img)
    for name in GRAD_NAMES:
        np.testing.assert_allclose(
            grads[name], grads_o[name], rtol=1e-10, atol=1e-10, err_msg=name
        )
    return bins


def assert_pruned_semantic_bins(cam, proj, opts, bins):
    """Compute bins are the semantic bins, pruned: each compute tile's
    order is a subsequence of its ``tile_size`` tile's stable depth-sorted
    order (so: a subset, near-to-far, ties by row), and every pair left out
    has no thresholded pixel in that compute tile."""
    semantic = _build_tiles_loop(cam, proj, opts)
    sub = bins.tile_size
    ratio = opts.tile_size // sub
    tiles = compute_tiles(bins)
    assert {(cx // ratio, cy // ratio) for cx, cy in tiles} <= set(semantic)
    for (sx, sy), sem in semantic.items():
        for cx in range(sx * ratio, min((sx + 1) * ratio, bins.tiles_x)):
            for cy in range(sy * ratio, min((sy + 1) * ratio, bins.tiles_y)):
                rect = TileWork(
                    x0=cx * sub, y0=cy * sub,
                    x1=min((cx + 1) * sub, cam.width),
                    y1=min((cy + 1) * sub, cam.height),
                    order=sem.order[:0],
                )
                kept = tiles.get((cx, cy), rect).order
                in_bin = np.isin(sem.order, kept)
                assert np.array_equal(kept, sem.order[in_bin])
                if not in_bin.all():
                    rect.order = sem.order[~in_bin]
                    _, raw = alpha_raw(proj, rect, opts)
                    assert not np.any(raw >= opts.alpha_threshold)


def make_proj(means, cov2d, opacities, depths=None):
    """A ``ProjectedGaussians`` carrying what binning and blending read."""
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    m = means.shape[0]
    cov2d = np.asarray(cov2d, dtype=np.float64).reshape(m, 2, 2)
    conics, _ = invert_cov2d(cov2d)
    return ProjectedGaussians(
        ids=np.arange(m, dtype=np.int64),
        means2d=means,
        depths=np.arange(m, dtype=np.float64) if depths is None else depths,
        t_cam=np.zeros((m, 3)),
        offsets=np.zeros((m, 3)),
        cov_cam=np.zeros((m, 3, 3)),
        cov2d=cov2d,
        conics=conics,
        colors=np.full((m, 3), 0.5),
        clamp_mask=np.zeros((m, 3), dtype=bool),
        opacities=np.asarray(opacities, dtype=np.float64).reshape(m),
        radii=splat_radii(cov2d),
    )


def image_camera(width, height):
    return look_at_camera(
        eye=(0, -3, 0.3), target=(0, 0, 0), width=width, height=height
    )


# ---------------------------------------------------------------------------
# Generated projections (binning only) and models (full parity)
# ---------------------------------------------------------------------------
@st.composite
def projections(draw):
    """Screen-space splats drawn directly: means on and off screen,
    rotated anisotropic covariances, opacities below, exactly at, one ulp
    around and above the threshold, up to and past the 0.99 cap."""
    width = draw(st.integers(5, 70))
    height = draw(st.integers(5, 50))
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.uniform(-20.0, 20.0 + max(width, height), size=(m, 2))
    if draw(st.booleans()):  # means on half-integers: pixel-centre ties
        means = np.round(means) + 0.5
    theta = rng.uniform(0, np.pi, size=m)
    sigma = np.exp(rng.uniform(np.log(0.05), np.log(12.0), size=(m, 2)))
    rot = np.stack(
        [np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=-1
    ).reshape(m, 2, 2)
    cov = rot @ (sigma[:, :, None] ** 2 * np.eye(2)) @ rot.transpose(0, 2, 1)
    cov += 0.3 * np.eye(2)
    tau = draw(st.sampled_from([TAU, 0.05, 0.0]))
    choices = np.array([
        0.5 * tau, np.nextafter(tau, 0.0), tau, np.nextafter(tau, 1.0),
        2.0 * tau, 0.3, 0.9, 0.995, 1.0,
    ])
    opac = choices[rng.integers(0, choices.size, size=m)]
    depths = rng.integers(1, 4, size=m).astype(np.float64)  # many ties
    opts = RasterSettings(
        tile_size=draw(st.sampled_from([4, 8, 12, 16, 32])),
        alpha_threshold=tau,
        max_alpha=draw(st.sampled_from([0.99, 0.5])),
    )
    return image_camera(width, height), make_proj(means, cov, opac, depths), opts


@given(case=projections())
@settings(max_examples=200, deadline=None)
def test_generated_projections_keep_every_thresholded_cell(case):
    cam, proj, opts = case
    bins = assert_cells_match(cam, proj, opts)
    ts = opts.tile_size
    assert bins.tile_size == (8 if ts % 8 == 0 else ts)
    assert_pruned_semantic_bins(cam, proj, opts, bins)


#: Arguments of :func:`generated_model` (shared with ``test_slab_kernels``).
MODEL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    num=st.integers(1, 40),
    size=st.tuples(st.integers(9, 61), st.integers(9, 45)),
    scale=st.sampled_from([-3.5, -2.0, -0.5]),
)


def generated_model(seed, num, size, scale):
    """``(camera, model)`` through ``preprocess``: opacities straddle the
    threshold (a third below, a third within an ulp-scale band of it),
    scales run from sub-pixel to larger than the image."""
    rng = np.random.default_rng(seed)
    model = GaussianModel.random(num, extent=0.9, sh_degree=1, seed=seed)
    model.log_scales[:] = scale + rng.normal(scale=0.8, size=(num, 3))
    opac = rng.choice(
        [0.5 * TAU, TAU * (1 - 1e-12), TAU, TAU * (1 + 1e-12), 0.05, 0.6, 0.999],
        size=num,
    )
    model.opacity_logits[:] = inverse_sigmoid(opac)
    cam = look_at_camera(
        eye=rng.normal(size=3) * 0.4 + (0.2, -2.4, 0.5), target=(0, 0, 0),
        width=size[0], height=size[1],
    )
    return cam, model


@st.composite
def batch_plans(draw):
    """Planner-built :class:`~repro.planning.BatchPlan` over a
    :func:`generated_model`: one to six views orbiting it (or looking
    away from it: empty working sets), culled by ``cull_batch`` and
    planned under a drawn ordering, with and without the cache."""
    _, model = generated_model(
        **{name: draw(strategy) for name, strategy in MODEL_CASES.items()}
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cameras = []
    for view_id in range(draw(st.integers(1, 6))):
        eye = rng.normal(size=3) * 0.6 + (0.0, -2.4, 0.4)
        away = draw(st.integers(0, 4)) == 0
        cameras.append(look_at_camera(
            eye=eye, target=2.0 * eye if away else rng.normal(size=3) * 0.5,
            width=24, height=18, fov_y_deg=float(rng.uniform(15.0, 70.0)),
            view_id=view_id,
        ))
    sets = cull_batch(
        cameras, model.positions, model.log_scales, model.quaternions
    )
    planner = BatchPlanner(
        ordering=draw(st.sampled_from(["identity", "random", "gs_count", "tsp"])),
        enable_cache=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    return planner.plan(
        sets, [c.view_id for c in cameras], cameras=cameras,
        num_gaussians=model.num_gaussians,
    )


@given(
    tile_size=st.sampled_from([4, 8, 12, 16, 32]),
    max_alpha=st.sampled_from([0.99, 0.6]),
    **MODEL_CASES,
)
@settings(max_examples=40, deadline=None)
def test_generated_models_match_oracle(
    seed, num, size, tile_size, max_alpha, scale
):
    cam, model = generated_model(seed, num, size, scale)
    opts = RasterSettings(
        tile_size=tile_size, max_alpha=max_alpha, background=(0.1, 0.2, 0.3)
    )
    assert_matches_oracle(cam, model, opts, seed=seed % 1000)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scene_name", scene_names())
def test_every_camera_of_every_registered_scene(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    for cam in scene.cameras:
        assert_matches_oracle(cam, scene.model, RasterSettings())


def test_bench_e2e_sparse_scene():
    scene = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    for cam in scene.cameras:
        assert_matches_oracle(cam, scene.model, RasterSettings())


def test_bench_e2e_dense_scene():
    """``train_dense``: the compute bins hold well under half the
    ``(pixel, splat)`` cells of the single-level slabs."""
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    opts = RasterSettings()
    cells = oracle_cells = 0
    for cam in scene.cameras:
        bins = assert_matches_oracle(cam, scene.reference, opts)
        cells += bins.num_entries * bins.tile_size**2
        proj = preprocess(cam, scene.reference, opts)
        oracle_cells += opts.tile_size**2 * sum(
            t.order.size for t in _build_tiles_loop(cam, proj, opts).values()
        )
    assert cells < 0.5 * oracle_cells


# ---------------------------------------------------------------------------
# Named cases
# ---------------------------------------------------------------------------
def test_footprint_edge_on_a_pixel_centre_is_kept_by_the_margin(monkeypatch):
    """An isotropic splat at (0.5, 4.5) whose threshold contour passes
    through the pixel centre (8.5, 4.5) — the only pixel of compute tile
    (1, 0) it reaches.  Widths are searched for one where, at the faintest
    opacity for which the kernel's ``opacity * exp(power) >= tau`` passes
    at that pixel, the un-inflated half-extent rounds to just under 8
    (about one width in sixteen): without the margin the pair is dropped
    and a thresholded cell is lost."""
    cam = image_camera(16, 8)
    opts = RasterSettings()
    dist = 8.0
    for sigma in np.linspace(2.5, 5.0, 400):
        var = sigma * sigma
        proj = make_proj([[0.5, 4.5]], [[var, 0.0], [0.0, var]], [1.0])
        a = proj.conics[0, 0, 0]
        weight = np.exp(-0.5 * a * dist * dist)
        opac = TAU / weight
        while opac * weight >= TAU:
            opac = np.nextafter(opac, 0.0)
        while not opac * weight >= TAU:  # the faintest splat that passes
            opac = np.nextafter(opac, 1.0)
        if np.sqrt(2.0 * np.log(opac / TAU) * a / (a * a)) < dist:  # c/det
            proj.opacities[0] = opac
            break
    else:
        pytest.fail("no width found whose footprint edge rounds inward")

    bins = assert_cells_match(cam, proj, opts)
    assert bins.tile_ids.tolist() == [0, 1]

    monkeypatch.setattr(rasterizer, "_FOOTPRINT_MARGIN", 0.0)
    assert build_tile_bins(cam, proj, opts).tile_ids.tolist() == [0]
    with pytest.raises(AssertionError):
        assert_cells_match(cam, proj, opts)


def test_exact_mode_bins_the_full_span():
    """``alpha_threshold=0`` (the gradient-check settings) has no
    footprint: every splat is in every compute tile of its span."""
    model = GaussianModel.random(60, extent=0.8, sh_degree=1, seed=4)
    cam = look_at_camera(
        eye=(0.2, -2.4, 0.5), target=(0, 0, 0), width=52, height=36
    )
    opts = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    proj = preprocess(cam, model, opts)
    bins = build_tile_bins(cam, proj, opts)
    span_pixels = sum(
        t.order.size * (t.x1 - t.x0) * (t.y1 - t.y0)
        for t in _build_tiles_loop(cam, proj, opts).values()
    )
    bin_pixels = sum(
        t.order.size * (t.x1 - t.x0) * (t.y1 - t.y0)
        for t in compute_tiles(bins).values()
    )
    assert bin_pixels == span_pixels
    assert_matches_oracle(cam, model, opts)


def test_opacity_below_threshold_is_in_no_bin_and_gets_zero_gradients():
    model = GaussianModel.random(30, extent=0.6, sh_degree=1, seed=2)
    faint = 7
    model.positions[faint] = (0.0, 0.0, 0.0)
    model.opacity_logits[faint] = inverse_sigmoid(np.array([0.9 * TAU]))[0]
    cam = look_at_camera(
        eye=(0.2, -2.4, 0.5), target=(0, 0, 0), width=52, height=36
    )
    opts = RasterSettings()
    bins = assert_matches_oracle(cam, model, opts)
    proj = preprocess(cam, model, opts)
    (row,) = np.nonzero(proj.ids == faint)[0]  # projected, yet unbinned
    assert row not in bins.order
    assert np.unique(bins.order).size == proj.ids.size - 1

    img, _, ctx = rasterize_forward(cam, model, opts)
    grads = rasterize_backward(ctx, model, np.ones_like(img))
    for name in GRAD_NAMES:
        assert not np.any(grads[name][faint]), name
        assert np.any(grads[name][faint - 1]), name


def test_compute_bins_are_pruned_semantic_bins():
    """Replaces the old bins-equal-the-loop test: with depth ties, so the
    row tie-break of the legacy stable sort is exercised."""
    model = GaussianModel.random(70, extent=0.8, sh_degree=2, seed=5)
    cam = look_at_camera(
        eye=(0.2, -2.4, 0.5), target=(0, 0, 0), width=52, height=36
    )
    for tile_size in (8, 16, 32):
        opts = RasterSettings(tile_size=tile_size)
        proj = preprocess(cam, model, opts)
        proj.depths[:] = np.round(proj.depths, 1)  # force ties
        bins = build_tile_bins(cam, proj, opts)
        assert 0 < bins.num_entries
        assert_pruned_semantic_bins(cam, proj, opts, bins)
    assert bins.num_entries < sum(
        t.order.size for t in _build_tiles_loop(cam, proj, opts).values()
    ) * (32 // 8) ** 2
