"""Grid-accelerated frustum culling (§8 extension): exactness + pruning."""

import numpy as np
import pytest

from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.model import GaussianModel
from repro.gaussians.spatial import CullingGrid, max_support_radius
from repro.kernels import compile_with_fallback, cull_spec, get_backend, resolve_backend
from repro.scenes.datasets import scene_names
from repro.serving import ring_cameras

#: Every backend whose ``grid_cull`` runs here.
BACKENDS = [
    pytest.param("numpy"),
    pytest.param("native", marks=pytest.mark.skipif(
        not get_backend("native").available(), reason="no C compiler here"
    )),
]


def grid_for(model, cells=12, backend=None):
    return CullingGrid(
        model.positions, model.log_scales, model.quaternions,
        target_cells_per_axis=cells, kernel_backend=backend,
    )


def assert_grid_is_linear(arrays, cameras, backend, cells=12):
    """The grid over ``arrays`` runs ``backend``'s ``grid_cull`` and returns
    the same backend's linear cull on every camera, bit for bit."""
    ran_on = compile_with_fallback(
        resolve_backend(backend), cull_spec(*arrays, "grid_cull")
    )[1].name
    assert ran_on == backend
    grid = CullingGrid(*arrays, target_cells_per_axis=cells, kernel_backend=backend)
    for cam in cameras:
        got = grid.query(cam)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, cull_gaussians(cam, *arrays, backend))
    return grid


def test_max_support_radius_bounds_directional_support(rng):
    from repro.gaussians.frustum import support_radii

    log_scales = rng.uniform(-3, 0, size=(30, 3))
    quats = rng.normal(size=(30, 4))
    normals = rng.normal(size=(10, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    bound = max_support_radius(log_scales)
    directional = support_radii(normals, log_scales, quats)
    assert np.all(directional <= bound[None, :] + 1e-9)


@pytest.mark.parametrize("scene_name", scene_names())
def test_grid_matches_linear_cull_on_all_scenes(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    grid = grid_for(scene.model)
    for cam in scene.cameras[:6]:
        linear = cull_gaussians(
            cam, scene.model.positions, scene.model.log_scales,
            scene.model.quaternions,
        )
        accelerated = grid.query(cam)
        np.testing.assert_array_equal(accelerated, linear), scene_name


def test_grid_matches_linear_random_models(rng, tiny_camera):
    from repro.gaussians.model import GaussianModel

    for seed in range(5):
        model = GaussianModel.random(200, extent=4.0, sh_degree=1, seed=seed)
        grid = grid_for(model)
        linear = cull_gaussians(
            tiny_camera, model.positions, model.log_scales, model.quaternions
        )
        np.testing.assert_array_equal(grid.query(tiny_camera), linear)


def test_cell_resolution_does_not_change_result(scene_cache):
    scene = scene_cache("bigcity", 1e-4, 12)
    cam = scene.cameras[0]
    results = [
        grid_for(scene.model, cells=c).query(cam) for c in (2, 8, 24)
    ]
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])


def test_grid_prunes_most_cells_on_sparse_scene(scene_cache):
    """The §8 motivation: on city-scale scenes most cells are skipped
    without any per-Gaussian work."""
    scene = scene_cache("bigcity", 1e-4, 12)
    grid = grid_for(scene.model, cells=16)
    stats = grid.query_stats(scene.cameras[0])
    total_cells = grid.num_cells
    assert stats["outside"] > 0.8 * total_cells
    # Exact tests run on far fewer Gaussians than the model holds.
    assert stats["tested"] < 0.3 * scene.model.num_gaussians


def test_flat_layout_is_a_partition_of_the_rows(scene_cache):
    """CSR members: every row in exactly one cell, sorted within its cell,
    inside the cell's AABB and under its radius bound."""
    m = scene_cache("rubble", 1e-4, 12).model
    grid = grid_for(m, cells=8)
    assert np.array_equal(np.sort(grid.members), np.arange(m.num_gaussians))
    assert grid.offsets[0] == 0 and grid.offsets[-1] == m.num_gaussians
    assert grid.offsets.size == grid.num_cells + 1
    radii = max_support_radius(m.log_scales)
    for c in range(grid.num_cells):
        rows = grid.members[grid.offsets[c]:grid.offsets[c + 1]]
        assert rows.size > 0 and np.all(np.diff(rows) > 0)
        assert np.array_equal(grid.cell_lo[c], m.positions[rows].min(axis=0))
        assert np.array_equal(grid.cell_hi[c], m.positions[rows].max(axis=0))
        assert grid.cell_radius[c] == radii[rows].max()


def test_empty_model():
    grid = CullingGrid(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)))
    cam = look_at_camera(eye=(0, -2, 0), target=(0, 0, 0))
    assert grid.query(cam).size == 0
    assert grid.num_cells == 0


def test_single_gaussian():
    model = GaussianModel.random(1, extent=0.1, sh_degree=1, seed=0)
    grid = grid_for(model)
    cam = look_at_camera(eye=(0, -2, 0), target=(0, 0, 0))
    linear = cull_gaussians(
        cam, model.positions, model.log_scales, model.quaternions
    )
    np.testing.assert_array_equal(grid.query(cam), linear)


def test_result_sorted_unique(scene_cache):
    from repro.utils.setops import is_sorted_unique

    scene = scene_cache("rubble", 1e-4, 12)
    out = grid_for(scene.model).query(scene.cameras[0])
    assert is_sorted_unique(out)


# ---------------------------------------------------------------------------
# ``grid_cull`` per backend: the same sets as that backend's linear cull
# ---------------------------------------------------------------------------
def arrays_of(model):
    return model.positions, model.log_scales, model.quaternions


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_cull_matches_the_linear_cull_of_its_backend(backend, tiny_camera):
    cams = ring_cameras(6, radii=(1.5, 4.0, 9.0), width=32, height_px=24)
    for seed in range(4):
        model = GaussianModel.random(500, extent=3.0, sh_degree=1, seed=seed)
        assert_grid_is_linear(arrays_of(model), cams + [tiny_camera], backend)
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)))
    assert assert_grid_is_linear(empty, cams, backend).num_cells == 0
    lone = arrays_of(GaussianModel.random(1, extent=0.1, sh_degree=1, seed=0))
    assert assert_grid_is_linear(lone, cams + [tiny_camera], backend).num_cells == 1
    # Every centre in one cell: the edge of a view sweeps through its rows.
    model = GaussianModel.random(300, extent=2.0, sh_degree=1, seed=9)
    stacked = (np.zeros_like(model.positions),) + arrays_of(model)[1:]
    assert assert_grid_is_linear(stacked, cams, backend).num_cells == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_cull_views_that_see_nothing_and_everything(backend):
    model = GaussianModel.random(400, extent=1.0, sh_degree=1, seed=3)
    arrays = arrays_of(model)
    away = look_at_camera(eye=(0, -6, 0), target=(0, -12, 0))
    whole = look_at_camera(eye=(0, -40, 0), target=(0, 0, 0), zfar=100.0)
    grid = assert_grid_is_linear(arrays, [away, whole], backend, cells=6)
    assert grid.query(away).size == 0
    assert grid.query_stats(away)["outside"] == grid.num_cells
    np.testing.assert_array_equal(grid.query(whole), np.arange(400))
    assert grid.query_stats(whole)["inside"] == grid.num_cells


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_cull_walks_packed_rows(backend):
    """The strided views of a ``(N, 10)`` block, as ``GpuCriticalStore``
    holds them, are culled in place."""
    model = GaussianModel.random(600, extent=3.0, sh_degree=1, seed=5)
    block = np.concatenate(arrays_of(model), axis=1)
    packed = (block[:, :3], block[:, 3:6], block[:, 6:])
    assert not packed[0].flags.c_contiguous
    cams = ring_cameras(8, radii=(2.2, 5.5), width=32, height_px=24)
    grid = assert_grid_is_linear(packed, cams, backend)
    contiguous = grid_for(model, backend=backend)
    for cam in cams:
        np.testing.assert_array_equal(grid.query(cam), contiguous.query(cam))


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_cull_never_takes_a_non_finite_row_wholesale(backend):
    """A row with a NaN scale or an infinite quaternion fails the exact
    test even with its centre inside; its cell is never classified inside,
    so the grid rejects it as the linear cull does."""
    model = GaussianModel.random(1000, seed=2026)
    model.log_scales[5, 1] = np.nan
    model.quaternions[7, 2] = np.inf
    cams = ring_cameras(8, radii=(2.2, 5.5, 12.0))
    with np.errstate(invalid="ignore"):
        grid = assert_grid_is_linear(arrays_of(model), cams, backend, cells=16)
        for cam in cams:
            assert not np.isin([5, 7], grid.query(cam)).any()
    assert grid.cell_finite.sum() == grid.num_cells - 2
