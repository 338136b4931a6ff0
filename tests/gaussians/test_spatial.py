"""Grid-accelerated frustum culling (§8 extension): exactness + pruning."""

import numpy as np
import pytest

from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.spatial import CullingGrid, max_support_radius
from repro.scenes.datasets import scene_names


def grid_for(model, cells=12):
    return CullingGrid(
        model.positions, model.log_scales, model.quaternions,
        target_cells_per_axis=cells,
    )


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
    from repro.gaussians.camera import look_at_camera

    cam = look_at_camera(eye=(0, -2, 0), target=(0, 0, 0))
    assert grid.query(cam).size == 0
    assert grid.num_cells == 0


def test_single_gaussian():
    from repro.gaussians.camera import look_at_camera
    from repro.gaussians.model import GaussianModel

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
