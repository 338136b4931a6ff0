"""Forward rasterization: structure, compositing, tiling."""

import numpy as np
import pytest

from repro.gaussians.camera import look_at_camera
from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.rasterizer import (
    RasterSettings,
    _splat_on_screen,
    build_tile_bins,
    preprocess,
    rasterize_forward,
)


@pytest.fixture()
def cam():
    return look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0),
                          width=48, height=32, view_id=0)


def single_gaussian(position=(0.0, 0.0, 0.0), opacity=0.9, scale=-2.5):
    m = GaussianModel.random(1, sh_degree=0, seed=0)
    m.positions[0] = position
    m.log_scales[:] = scale
    m.quaternions[0] = [1, 0, 0, 0]
    m.opacity_logits[0] = inverse_sigmoid(np.array([opacity]))[0]
    m.sh[0, 0] = 1.0  # bright
    return m


def test_empty_model_renders_background(cam):
    base = GaussianModel.random(3, sh_degree=0, seed=0)
    empty = base.gather(np.array([], dtype=np.int64))
    settings = RasterSettings(background=(0.2, 0.4, 0.6))
    img, transmittance, _ = rasterize_forward(cam, empty, settings)
    np.testing.assert_allclose(img[..., 0], 0.2)
    np.testing.assert_allclose(img[..., 2], 0.6)
    np.testing.assert_allclose(transmittance, 1.0)


def test_single_gaussian_renders_blob(cam):
    img, transmittance, ctx = rasterize_forward(cam, single_gaussian())
    assert img.max() > 0.05
    # Centre pixel should carry the most opacity.
    min_t = transmittance.min()
    assert min_t < 0.5
    cy, cx = np.unravel_index(np.argmin(transmittance), transmittance.shape)
    assert abs(cx - cam.width / 2) <= 2 and abs(cy - cam.height / 2) <= 2


def test_transmittance_in_unit_interval(cam, tiny_model):
    _, transmittance, _ = rasterize_forward(cam, tiny_model)
    assert np.all(transmittance >= 0.0) and np.all(transmittance <= 1.0)


def test_behind_camera_not_rendered(cam):
    m = single_gaussian(position=(0.0, -6.0, 0.0))
    img, transmittance, ctx = rasterize_forward(cam, m)
    assert ctx.proj.ids.size == 0
    np.testing.assert_allclose(transmittance, 1.0)


def test_front_to_back_occlusion(cam):
    """An opaque near Gaussian must dominate a far one on the same ray."""
    near = single_gaussian(position=(0.0, -1.0, 0.0), opacity=0.99)
    near.sh[0, 0] = [2.0, -1.0, -1.0]  # red-ish
    far = single_gaussian(position=(0.0, 1.5, 0.0), opacity=0.99)
    far.sh[0, 0] = [-1.0, 2.0, -1.0]  # green-ish
    both = near.extend(far)
    img, _, _ = rasterize_forward(cam, both)
    cy, cx = cam.height // 2, cam.width // 2
    patch = img[cy - 2 : cy + 3, cx - 2 : cx + 3]
    assert patch[..., 0].mean() > patch[..., 1].mean()


def test_order_of_input_rows_does_not_matter(cam, tiny_model):
    img_a, _, _ = rasterize_forward(cam, tiny_model)
    perm = np.random.default_rng(0).permutation(tiny_model.num_gaussians)
    shuffled = tiny_model.gather(perm)
    img_b, _, _ = rasterize_forward(cam, shuffled)
    np.testing.assert_allclose(img_a, img_b, atol=1e-10)


def test_subset_rendering_matches_full(cam, tiny_model):
    """Rendering the culled subset equals rendering the whole model —
    the §5.1 guarantee that CLM's selective loading changes nothing."""
    from repro.gaussians.frustum import cull_gaussians

    s = cull_gaussians(
        cam, tiny_model.positions, tiny_model.log_scales, tiny_model.quaternions
    )
    img_full, _, _ = rasterize_forward(cam, tiny_model)
    img_sub, _, _ = rasterize_forward(cam, tiny_model.gather(s))
    np.testing.assert_allclose(img_full, img_sub, atol=1e-12)


def test_preprocess_ids_reference_input_rows(cam, tiny_model):
    proj = preprocess(cam, tiny_model, RasterSettings())
    assert proj.ids.size <= tiny_model.num_gaussians
    assert np.all(proj.ids >= 0)
    assert np.all(proj.ids < tiny_model.num_gaussians)
    assert np.all(np.diff(proj.ids) > 0)


def test_tiles_cover_only_image(cam, tiny_model):
    settings = RasterSettings(tile_size=16)
    proj = preprocess(cam, tiny_model, settings)
    bins = build_tile_bins(cam, proj, settings)
    tx, ty = bins.tile_xy()
    assert np.all((tx >= 0) & (tx < bins.tiles_x))
    assert np.all((ty >= 0) & (ty < bins.tiles_y))
    assert settings.tile_size % bins.tile_size == 0
    assert bins.tiles_x * bins.tile_size >= cam.width
    assert bins.tiles_y * bins.tile_size >= cam.height


def test_tile_lists_sorted_by_depth(cam, tiny_model):
    settings = RasterSettings()
    proj = preprocess(cam, tiny_model, settings)
    bins = build_tile_bins(cam, proj, settings)
    for i in range(bins.num_tiles):
        depths = proj.depths[bins.order[bins.offsets[i] : bins.offsets[i + 1]]]
        assert np.all(np.diff(depths) >= 0)


def test_tile_size_does_not_change_output(cam, tiny_model):
    img_a, _, _ = rasterize_forward(cam, tiny_model, RasterSettings(tile_size=8))
    img_b, _, _ = rasterize_forward(cam, tiny_model, RasterSettings(tile_size=32))
    np.testing.assert_allclose(img_a, img_b, atol=1e-10)


def test_opacity_zero_contributes_nothing(cam):
    m = single_gaussian(opacity=0.9)
    m.opacity_logits[0] = -60.0  # sigmoid ~ 0
    settings = RasterSettings(background=(0.1, 0.1, 0.1))
    img, transmittance, _ = rasterize_forward(cam, m, settings)
    np.testing.assert_allclose(transmittance, 1.0)
    np.testing.assert_allclose(img, 0.1)


def test_activation_bytes_scale_with_rendered_set(cam, tiny_model):
    _, _, ctx_full = rasterize_forward(cam, tiny_model)
    few = tiny_model.gather(np.arange(5))
    _, _, ctx_few = rasterize_forward(cam, few)
    assert ctx_few.activation_bytes() < ctx_full.activation_bytes()


def test_blend_cache_retention_is_accounted_and_optional(cam, tiny_model):
    """cache_blend_state retains real bytes, reported by the context;
    opting out drops both the cache and its accounting."""
    _, _, ctx_on = rasterize_forward(
        cam, tiny_model, RasterSettings(kernel_backend="numpy")
    )
    _, _, ctx_off = rasterize_forward(
        cam, tiny_model,
        RasterSettings(cache_blend_state=False, kernel_backend="numpy"),
    )
    assert ctx_on.blend_cache and ctx_on.blend_state_bytes() > 0
    assert ctx_off.blend_cache is None and ctx_off.blend_state_bytes() == 0
    assert (
        ctx_on.activation_bytes()
        == ctx_off.activation_bytes() + ctx_on.blend_state_bytes()
    )


def test_screen_bounds_are_strict():
    """A splat rectangle that only touches an image edge covers no pixel:
    the pre-PR4 non-strict bounds kept that never-visible band alive."""
    width, height = 48, 32
    r = np.array([2.0])
    y = np.array([16.0])
    # Exactly on the right/left boundary: x - r == width / x + r == 0.
    assert not _splat_on_screen(np.array([float(width) + 2.0]), y, r,
                                width, height)
    assert not _splat_on_screen(np.array([-2.0]), y, r, width, height)
    # One ulp inside is visible.
    inside = np.nextafter(float(width) + 2.0, 0.0)
    assert _splat_on_screen(np.array([inside]), y, r, width, height)
    # Same on the vertical axis.
    x = np.array([24.0])
    assert not _splat_on_screen(x, np.array([float(height) + 2.0]), r,
                                width, height)
    assert not _splat_on_screen(x, np.array([-2.0]), r, width, height)


def test_preprocess_kept_gaussians_overlap_image(cam):
    """End-to-end pin of the strict bounds: sweeping a Gaussian across and
    past the right image edge, every survivor's splat rectangle strictly
    overlaps the image."""
    kept = 0
    for x in np.linspace(0.0, 4.0, 17):
        m = single_gaussian(position=(float(x), 0.0, 0.0))
        proj = preprocess(cam, m, RasterSettings())
        if proj.ids.size:
            kept += 1
            assert proj.means2d[0, 0] - proj.radii[0] < cam.width
            assert proj.means2d[0, 0] + proj.radii[0] > 0
    assert 0 < kept < 17  # the sweep crosses the boundary
