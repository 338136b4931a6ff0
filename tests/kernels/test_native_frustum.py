"""The C frustum arbiter against the NumPy one, and against itself.

``exact_cull`` is a kernel op: the reference runs
:func:`repro.gaussians.frustum.ellipsoids_in_frustum`, ``native`` runs
``in_frustum`` of ``native_kernels.c`` — the function its renders call on
every input row.  Across the two the index sets are ``np.array_equal``
except on a rounding tie (``|n . p + d + r|`` within a few ulps: the signed
distances come out of a BLAS product on one side and a program-order sum on
the other); :func:`compare` filters those and counts them, and every test
here asserts the count — 0.  Within ``native`` the verdict of a row is one
function of its bits: contiguous or strided, alone or in company, culled
linearly, by a grid (``grid_cull``) or rendered, on any thread.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import frustum, quaternion
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import cull_batch, exact_cull, frustum_planes
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.spatial import CullingGrid
from repro.kernels import get_backend
from repro.bench.params import SCENE_SEED
from repro.scenes.datasets import build_scene, scene_names
from repro.scenes.images import make_trainable_scene
from test_cull_batch import axis_camera, clouds, posed_cameras

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
from bench_e2e.workloads import (  # noqa: E402  (the ruler's recipes, read only)
    build_serve_inputs,
    get_workload,
)

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

BACKENDS = ("numpy", "native")


def packed(positions, log_scales, quats):
    """The arrays as ``GpuCriticalStore`` holds them: strided views of one
    ``(N, 10)`` block."""
    block = np.concatenate([positions, log_scales, quats], axis=1)
    return block[:, :3], block[:, 3:6], block[:, 6:]


def ties_between(cam, positions, log_scales, quats, got, want):
    """How many rows the two sets disagree on — after asserting that every
    such row sits on a rounding tie: some plane's ``n . p + d + r`` is
    within 64 ulps of its terms' magnitude of zero."""
    rows = np.setxor1d(got, want)
    if rows.size == 0:
        return 0
    planes = frustum_planes(cam)
    normals, p = planes[:, :3], positions[rows]
    signed = p @ normals.T + planes[:, 3]
    rot = quaternion.to_rotation_matrices(quaternion.normalize(quats[rows]))
    reach = frustum._support_radii(normals, np.exp(log_scales[rows]), rot).T
    size = np.abs(p) @ np.abs(normals).T + np.abs(planes[:, 3]) + reach
    on_tie = (np.abs(signed + reach) <= 64 * np.finfo(float).eps * size).any(axis=1)
    assert on_tie.all(), (cam, rows[~on_tie], got, want)
    return int(rows.size)


def compare(cameras, positions, log_scales, quats, cells=8):
    """Native vs NumPy through all four entry points, on contiguous arrays
    and on the packed block; returns the number of tie rows filtered.  Each
    backend's grid (``grid_cull``) returns that backend's linear cull."""
    arrays = (positions, log_scales, quats)
    strided = packed(*arrays)
    every_row = np.arange(positions.shape[0])
    ties = 0
    reference = cull_batch(cameras, *arrays, "numpy")
    for layout in (arrays, strided):
        grids = {
            backend: CullingGrid(
                *layout, target_cells_per_axis=cells, kernel_backend=backend
            )
            for backend in BACKENDS
        }
        for cam, want, got in zip(
            cameras, reference, cull_batch(cameras, *layout, "native")
        ):
            assert got.dtype == np.int64
            ties += ties_between(cam, *arrays, got, want)
            planes = frustum_planes(cam)
            # Single-level == two-level == grid under either arbiter.
            assert np.array_equal(
                exact_cull(planes, *layout, every_row, "native"), got
            )
            assert np.array_equal(
                exact_cull(planes, *layout, every_row, "numpy"), want
            )
            assert np.array_equal(grids["native"].query(cam), got)
            assert np.array_equal(grids["numpy"].query(cam), want)
    return ties


# ---------------------------------------------------------------------------
# Scenes and generated clouds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scene_name", scene_names())
def test_every_camera_of_every_registered_scene(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    m = scene.model
    assert compare(scene.cameras, m.positions, m.log_scales, m.quaternions) == 0


def test_bench_e2e_sparse_scene():
    scene = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    m = scene.model
    assert compare(scene.cameras, m.positions, m.log_scales, m.quaternions) == 0


def test_bench_e2e_dense_scene():
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    m = scene.reference
    assert compare(scene.cameras, m.positions, m.log_scales, m.quaternions) == 0


@pytest.mark.parametrize("workload", ["dense", "sparse"])
def test_every_camera_of_the_bench_e2e_served_models(workload):
    """Every camera a ``bench_e2e`` serving phase may ask for, on the grid
    a :class:`~repro.serving.ServingSession` builds (16 cells an axis)."""
    served = build_serve_inputs(get_workload(workload).serve)
    m = served.model
    assert compare(
        served.cameras, m.positions, m.log_scales, m.quaternions, cells=16
    ) == 0


def test_a_city_scale_cloud_at_24_cells():
    """The §8 benchmark's quick-tier cloud: 50 000 Gaussians."""
    scene = build_scene("bigcity", scale=5e-4, num_views=8, seed=SCENE_SEED)
    m = scene.model
    assert m.num_gaussians == 50_000
    assert compare(
        scene.cameras, m.positions, m.log_scales, m.quaternions, cells=24
    ) == 0


@given(cloud=clouds(), cameras=st.lists(posed_cameras(), max_size=4))
@settings(max_examples=100, deadline=None)
def test_generated_clouds_and_cameras(cloud, cameras):
    assert compare(cameras, *cloud) == 0


# ---------------------------------------------------------------------------
# Layouts the C loop takes and refuses
# ---------------------------------------------------------------------------
def cloud_around(cam, rng, n=200):
    """Centres inside, in the boundary band and outside ``cam``'s frustum."""
    target = cam.center + 5.0 * cam.rotation[2]
    return (
        target + rng.normal(scale=4.0, size=(n, 3)),
        rng.uniform(-4.0, 0.5, size=(n, 3)),
        rng.normal(size=(n, 4)),
    )


def test_contiguous_and_packed_rows_both_run_native(rng):
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)
    arrays = cloud_around(cam, rng)
    strided = packed(*arrays)
    assert not strided[0].flags.c_contiguous
    (a,), (b,) = cull_batch([cam], *arrays, "native"), cull_batch([cam], *strided, "native")
    assert 0 < a.size < 200 and np.array_equal(a, b)
    # Every other row of the block: the row stride doubles, rows renumber.
    halved = tuple(x[::2] for x in strided)
    (c,) = cull_batch([cam], *halved, "native")
    assert np.array_equal(c, a[a % 2 == 0] // 2)


def test_layouts_the_kernel_cannot_walk_are_refused(rng):
    """A layout the C loop cannot walk is refused by ``native``'s binder,
    never handed to the reference; the reference culls any layout."""
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)
    arrays = cloud_around(cam, rng)
    (want,) = cull_batch([cam], *arrays, "numpy")
    refused = {
        "float32": tuple(a.astype(np.float32) for a in arrays),
        "fortran": tuple(np.asfortranarray(a) for a in arrays),
        "one float32": (arrays[0], arrays[1].astype(np.float32), arrays[2]),
        "columns apart": tuple(
            np.repeat(a, 2, axis=1)[:, ::2] for a in arrays
        ),
    }
    for name, layout in refused.items():
        with pytest.raises(ValueError, match="native exact_cull: "):
            cull_batch([cam], *layout, "native")
    (got,) = cull_batch([cam], *refused["fortran"], "numpy")
    assert np.array_equal(got, want)


def test_a_corrupted_grid_table_is_refused(rng):
    """``grid_cull`` checks each offset and member before it reads a row:
    a corrupted table raises ``IndexError``, as ``exact_cull``'s rows do.
    (Layouts it cannot walk are refused when the grid is bound:
    ``test_native_refusals``.)"""
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)
    arrays = cloud_around(cam, rng, n=300)
    grid = CullingGrid(*arrays, target_cells_per_axis=4, kernel_backend="native")
    assert grid.query(cam).size > 0
    corruptions = [
        ("members", 0, 300), ("members", -1, -1), ("offsets", -1, 301),
        ("offsets", 1, -1), ("offsets", 2, grid.offsets[1] - 1),
    ]
    for table, at, value in corruptions:
        bad = CullingGrid(*arrays, target_cells_per_axis=4, kernel_backend="native")
        if table == "members":
            bad.members[:] = value  # every cell the view reaches is corrupt
        else:
            getattr(bad, table)[at] = value
        with pytest.raises(IndexError, match="native grid_cull: .*outside"):
            bad.query(cam)
    bind = get_backend("native").compile("grid_cull")
    with pytest.raises(ValueError, match="native grid_build: positions"):
        bind(CullingGrid(
            *(a.astype(np.float32) for a in arrays), target_cells_per_axis=4,
            kernel_backend="native",
        ))


# ---------------------------------------------------------------------------
# Named rows
# ---------------------------------------------------------------------------
def test_non_finite_and_degenerate_rows():
    """NaN and +-inf log-scales, zero and NaN quaternions: the non-finite
    rule (no accept path, every plane evaluated) gives the reference's
    verdict, centre inside or not."""
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    generic = [0.3, -0.2, 0.9, 0.1]
    shapes = [
        ([-2.0, -2.0, -2.0], [1.0, 0.0, 0.0, 0.0]),
        ([np.nan, -2.0, -2.0], generic),
        ([np.inf, -2.0, -2.0], generic),
        ([np.inf, -2.0, -2.0], [1.0, 0.0, 0.0, 0.0]),  # 0 * inf on some plane
        ([-np.inf, -2.0, -2.0], generic),
        ([-np.inf, -np.inf, -np.inf], generic),
        ([800.0, 800.0, 800.0], generic),
        ([-2.0, -2.0, -2.0], [0.0, 0.0, 0.0, 0.0]),
        ([-2.0, -2.0, -2.0], [1e-13, 0.0, 0.0, 0.0]),  # under the norm clamp
        ([-2.0, -2.0, -2.0], [np.nan, 0.0, 0.0, 1.0]),
        ([-2.0, -2.0, -2.0], [np.inf, 0.0, 0.0, 0.0]),
        ([-2.0, -2.0, -2.0], [1e200, 1e200, 0.0, 0.0]),
    ]
    centres = [
        [0.1, 0.2, -0.1],  # inside
        [4.0, 0.0, 0.0],  # just outside a side plane
        [0.0, -40.0, 0.0],  # far behind
        [np.nan, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
    ]
    positions = np.array([c for c in centres for _ in shapes], dtype=np.float64)
    log_scales = np.array([s[0] for s in shapes] * len(centres), dtype=np.float64)
    quats = np.array([s[1] for s in shapes] * len(centres), dtype=np.float64)
    with np.errstate(all="ignore"):
        assert compare([cam, axis_camera()], positions, log_scales, quats) == 0
        (kept,) = cull_batch([cam], positions, log_scales, quats, "native")
    assert 0 < kept.size < positions.shape[0]


def test_a_lone_row_empty_rows_and_an_empty_model(rng):
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)
    positions, log_scales, quats = cloud_around(cam, rng)
    planes = frustum_planes(cam)
    whole = exact_cull(planes, positions, log_scales, quats, np.arange(200), "native")
    for row in range(200):
        alone = exact_cull(
            planes, positions, log_scales, quats, np.array([row]), "native"
        )
        assert alone.tolist() == ([row] if row in whole else [])
    none = exact_cull(
        planes, positions, log_scales, quats, np.empty(0, np.int64), "native"
    )
    assert none.dtype == np.int64 and none.shape == (0,)
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)))
    assert compare([cam], *empty) == 0
    assert cull_batch([cam], *empty, "native")[0].shape == (0,)
    with pytest.raises(IndexError):
        exact_cull(planes, *empty, np.array([0]), "native")


# ---------------------------------------------------------------------------
# Cull and render share the arbiter, per backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_render_keeps_a_subset_of_the_set_it_was_handed(backend, rng):
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), width=48,
                         height=36, zfar=30.0)
    positions, log_scales, quats = cloud_around(cam, rng, n=300)
    model = GaussianModel(
        positions, log_scales, quats, rng.normal(size=(300, 4, 3)),
        rng.normal(size=300), sh_degree=1,
    )
    raster = RasterSettings(kernel_backend=backend)
    (s_i,) = cull_batch([cam], positions, log_scales, quats, backend)
    assert 10 < s_i.size < 300
    whole = rasterize_forward(cam, model, raster)[2]
    assert whole.kernel_backend == backend
    assert np.isin(whole.proj.ids, s_i).all()
    # Every row of S_i passes the test again on the gathered working set —
    # the arbiter the render applies — so the culled render keeps what the
    # whole-model render keeps, row for row.
    working_set = model.gather(s_i)
    again = exact_cull(
        frustum_planes(cam), working_set.positions, working_set.log_scales,
        working_set.quaternions, np.arange(s_i.size), backend,
    )
    assert again.size == s_i.size
    culled = rasterize_forward(cam, working_set, raster)[2]
    assert np.array_equal(s_i[culled.proj.ids], whole.proj.ids)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_three_threads_ten_repeats_are_bit_identical(rng):
    cams = [
        look_at_camera(eye=(6 * np.cos(a), 6 * np.sin(a), 1.0), target=(0, 0, 0),
                       width=32, height=24, zfar=9.0)
        for a in np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    ]
    arrays = packed(
        rng.uniform(-4, 4, size=(2000, 3)), rng.uniform(-4, -1, size=(2000, 3)),
        rng.normal(size=(2000, 4)),
    )
    first = cull_batch(cams, *arrays, "native")
    assert len({s.tobytes() for s in first}) > 1
    results, errors = [], []

    def worker():
        try:
            for _ in range(10):
                results.append(cull_batch(cams, *arrays, "native"))
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
            thread.join()
    finally:
        sys.setswitchinterval(old)
    assert not errors and len(results) == 30
    for sets in results:
        assert all(np.array_equal(a, b) for a, b in zip(sets, first))
