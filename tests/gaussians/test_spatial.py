"""Grid-accelerated frustum culling (§8 extension): exactness + pruning."""

import copy

import numpy as np
import pytest

from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import (
    _PREFILTER_MARGIN,
    cull_batch,
    cull_gaussians,
    frustum_planes,
)
from repro.gaussians.model import GaussianModel
from repro.gaussians.spatial import _MAX_CELL_WIDTH, CullingGrid, max_support_radius
from repro.kernels import compile_with_fallback, get_backend, resolve_backend
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
    ran_on = compile_with_fallback(resolve_backend(backend), "grid_cull")[1].name
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
    inside the cell's AABB and under its radius bound — the largest member
    bound inflated by the prefilter's margin (and no more than that, up to
    the last ulp of two ``exp``)."""
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
        inflated = radii[rows].max() * (1 + _PREFILTER_MARGIN)
        assert inflated * (1 - 1e-15) <= grid.cell_radius[c] <= inflated * (1 + 1e-15)
        assert np.array_equal(grid.slots[rows], np.arange(*grid.offsets[c:c + 2]))


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_keeps_a_row_the_arbiter_accepts_by_an_ulp(backend):
    """A lone Gaussian whose reach clears the near plane by less than an
    ulp of ``exp``: the grid's bounds carry the prefilter's margin, so the
    grid returns what the linear cull of its backend returns (``[0]`` on
    ``native``, where libm's ``exp`` is an ulp above NumPy's)."""
    cam = look_at_camera((0, 0, 0), (1, 0, 0), width=32, height=24)
    arrays = (
        np.array([[0.03518898157460812, 0.0, 0.0]]),
        np.full((1, 3), -5.310996175671894),
        np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    assert_grid_is_linear(arrays, [cam], backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_finite_centres_fill_one_extra_cell(backend):
    """One NaN or infinite centre leaves the other rows binned as before,
    in the same cells, and sits in one extra cell every query walks."""
    model = GaussianModel.random(300, seed=5)
    cams = ring_cameras(8, radii=(1.5, 4.0, 9.0), width=32, height_px=24)
    clean = assert_grid_is_linear(arrays_of(model), cams, backend, cells=16)
    assert clean.num_cells == clean.regular_cells == 294
    cell = np.searchsorted(clean.offsets, clean.slots[17], side="right") - 1
    alone = clean.offsets[cell + 1] - clean.offsets[cell] == 1
    for bad in (np.nan, np.inf, -np.inf):
        model.positions[17, 1] = bad
        with np.errstate(invalid="ignore"):
            grid = assert_grid_is_linear(arrays_of(model), cams, backend, cells=16)
        assert grid.regular_cells == 294 - alone
        assert grid.num_cells == grid.regular_cells + 1
        assert grid.members[-1] == 17 and not grid.cell_finite[-1]
        assert np.isnan(grid.cell_lo[-1]).all() and np.isnan(grid.cell_radius[-1])


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
@pytest.mark.parametrize("seed", range(3))
def test_native_build_equals_the_reference_build(seed, scene_cache):
    """``grid_build``'s counting sort gives ``_build``'s tables: members,
    offsets, slots, frame and bounds ``array_equal``, reach bounds to the
    ulp by which libm's ``exp`` may differ from NumPy's."""
    models = [
        GaussianModel.random(2000, extent=3.0, sh_degree=1, seed=seed),
        scene_cache("bigcity", 1e-4, 12).model,
    ]
    models[0].positions[::97, seed] = (np.nan, np.inf, -np.inf)[seed]
    for model in models:
        block = np.concatenate(arrays_of(model), axis=1)
        packed = (block[:, :3], block[:, 3:6], block[:, 6:])
        for layout in (arrays_of(model), packed):
            for cells in (1, 7, 16):
                native = CullingGrid(*layout, target_cells_per_axis=cells, kernel_backend="native")
                reference = CullingGrid(*layout, target_cells_per_axis=cells, kernel_backend="numpy")
                assert native.cell_size == reference.cell_size
                for table in (
                    "origin", "members", "offsets", "slots", "cell_lo", "cell_hi",
                    "cell_finite",
                ):
                    np.testing.assert_array_equal(
                        getattr(native, table), getattr(reference, table), err_msg=table
                    )
                assert native.regular_cells == reference.regular_cells
                np.testing.assert_array_equal(native.block[:, :10], reference.block[:, :10])
                for ours, theirs in (
                    (native.block[:, 10], reference.block[:, 10]),
                    (native.cell_radius, reference.cell_radius),
                ):
                    np.testing.assert_allclose(ours, theirs, rtol=1e-15)


@pytest.mark.parametrize("backend", BACKENDS)
def test_refit_under_drift_stays_the_linear_cull(backend):
    """Rows moved by more than two cells (and grown, and some turned
    non-finite) are refit, not rebuilt: the cells widen, the grid turns
    bloated, and every query still equals the linear cull."""
    model = GaussianModel.random(2000, extent=3.0, sh_degree=1, seed=11)
    arrays = arrays_of(model)
    cams = ring_cameras(8, radii=(1.5, 4.0, 9.0), width=32, height_px=24)
    grid = assert_grid_is_linear(arrays, cams, backend, cells=16)
    members, offsets = grid.members.copy(), grid.offsets.copy()
    rng = np.random.default_rng(0)
    for step in range(6):
        rows = rng.choice(2000, 300, replace=False)
        model.positions[rows] += rng.normal(scale=3 * grid.cell_size, size=(300, 3))
        model.log_scales[rows] += rng.normal(scale=0.4, size=(300, 3))
        if step == 4:
            model.log_scales[rows[0], 2] = np.nan
            model.quaternions[rows[1], 0] = np.inf
            model.positions[rows[2], 1] = np.nan
        with np.errstate(invalid="ignore"):
            grid.refit(rows)
            for got, want in zip(grid.query_views(cams), cull_batch(cams, *arrays, backend)):
                np.testing.assert_array_equal(got, want)
    assert grid.bloated
    np.testing.assert_array_equal(grid.members, members)  # membership kept
    np.testing.assert_array_equal(grid.offsets, offsets)
    width = grid.cell_hi[: grid.regular_cells] - grid.cell_lo[: grid.regular_cells]
    assert not np.all(width <= _MAX_CELL_WIDTH * grid.cell_size)


@pytest.mark.parametrize("backend", BACKENDS)
def test_refit_without_moves_changes_nothing(backend):
    """Refitting rows that did not move rewrites their slots with the same
    bits and widens no cell."""
    model = GaussianModel.random(800, extent=3.0, sh_degree=1, seed=4)
    grid = CullingGrid(*arrays_of(model), kernel_backend=backend)
    tables = [getattr(grid, t).copy() for t in ("cell_lo", "cell_hi", "cell_radius", "block")]
    grid.refit(np.arange(0, 800, 3))
    for before, table in zip(tables, ("cell_lo", "cell_hi", "cell_radius", "block")):
        np.testing.assert_array_equal(getattr(grid, table), before)
    assert not grid.bloated


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
def test_native_refit_equals_the_reference_refit():
    """The C refit widens the same cells to the same bounds as
    ``np.minimum.at`` / ``np.maximum.at``."""
    model = GaussianModel.random(1500, extent=3.0, sh_degree=1, seed=8)
    pair = [model, copy.deepcopy(model)]
    grids = [
        CullingGrid(*arrays_of(m), kernel_backend=b) for m, b in zip(pair, ("native", "numpy"))
    ]
    rng = np.random.default_rng(3)
    for _ in range(4):
        rows = rng.choice(1500, 200)  # repeats included
        shift = rng.normal(scale=grids[0].cell_size, size=(200, 3))
        for m, grid in zip(pair, grids):
            m.positions[rows] += shift
            grid.refit(rows)
        for table in ("cell_lo", "cell_hi", "cell_finite", "slots"):
            np.testing.assert_array_equal(*(getattr(g, table) for g in grids))
        np.testing.assert_array_equal(*(g.block[:, :10] for g in grids))
        np.testing.assert_allclose(*(g.cell_radius for g in grids), rtol=1e-15)
        assert grids[0].bloated == grids[1].bloated


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_query_equals_per_view_queries(backend):
    """``query_views`` — one op call for every view — returns each view's
    ``query``, including views that see nothing and batches whose rows
    outgrow the grid's output buffer."""
    model = GaussianModel.random(1200, extent=2.0, sh_degree=1, seed=6)
    grid = grid_for(model, cells=16, backend=backend)
    away = look_at_camera(eye=(0, -6, 0), target=(0, -12, 0))
    whole = look_at_camera(eye=(0, -40, 0), target=(0, 0, 0), zfar=100.0)
    cams = ring_cameras(12, radii=(1.5, 4.0, 9.0), width=32, height_px=24)
    for batch in ([], [away], cams, [whole] * 5 + cams + [away]):
        got = grid.query_views(batch)
        assert len(got) == len(batch)
        for cam, rows in zip(batch, got):
            np.testing.assert_array_equal(rows, grid.query(cam))
    np.testing.assert_array_equal(grid.query_views([whole, whole])[1], np.arange(1200))


@pytest.mark.skipif(not get_backend("native").available(), reason="no C compiler here")
def test_grid_keeps_rows_touching_a_plane_native(rng):
    """Rows scaled so that the C arbiter's ``n . p + d + reach`` is exactly
    0 (``test_cull_batch.touching_rows``), many to a cell: the row test's
    and the cells' reach bounds carry the margin, so the grid keeps every
    row the arbiter keeps — with its tables built in C or by the reference."""
    from test_cull_batch import c_reach, c_signed, tie_camera, touching_rows

    cam = tie_camera()
    arrays = touching_rows(cam, rng, 64, c_signed, c_reach)[:3]
    want = cull_gaussians(cam, *arrays, "native")
    assert want.size > 16
    bind = get_backend("native").compile("grid_cull")
    for cells in (1, 3):
        grid = CullingGrid(*arrays, target_cells_per_axis=cells, kernel_backend="native")
        assert np.diff(grid.offsets).max() > 1
        np.testing.assert_array_equal(grid.query(cam), want)
        reference = CullingGrid(*arrays, target_cells_per_axis=cells, kernel_backend="numpy")
        np.testing.assert_array_equal(bind(reference).cull(frustum_planes(cam)[None])[0], want)
