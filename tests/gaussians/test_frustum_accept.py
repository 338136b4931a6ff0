"""The exact frustum test's accept path changes no verdict.

A row whose centre is on the inner side of all six planes is in the frustum
whatever its shape, so :func:`repro.gaussians.frustum.ellipsoids_in_frustum`
— the one arithmetic behind ``exact_cull`` / ``cull_batch`` and the
rasterizer's fused test — only builds rotations for the boundary band.
Every set here is ``np.array_equal`` to ``cull_oracle`` (tests/conftest.py:
the full test on every row), for generated models and cameras first, then
for the rows an accept path could get wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import frustum, quaternion
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import (
    cull_batch,
    ellipsoids_in_frustum,
    exact_cull,
    frustum_planes,
)
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings, preprocess, rasterize_forward
from test_compute_bins import MODEL_CASES, generated_model, projections
from test_cull_batch import (
    axis_camera,
    lone_survivor_on_a_c_order_tie,
    lone_survivor_on_a_rounding_tie,
    needs_native,
)


def every_path(cam, positions, log_scales, quats):
    """The in-frustum set of one camera by each product path: the shared
    helper on all rows (building rotations for the band, and given them
    all), ``exact_cull`` on all rows, and ``cull_batch``."""
    planes = frustum_planes(cam)
    scales = np.exp(log_scales)
    rot = quaternion.to_rotation_matrices(quaternion.normalize(quats))
    every_row = np.arange(positions.shape[0])
    return [
        np.flatnonzero(ellipsoids_in_frustum(planes, positions, scales, quats)),
        np.flatnonzero(
            ellipsoids_in_frustum(planes, positions, scales, quats, rot)
        ),
        exact_cull(planes, positions, log_scales, quats, every_row),
        cull_batch([cam], positions, log_scales, quats)[0],
    ]


def assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats):
    want = cull_oracle(cam, positions, log_scales, quats)
    for got in every_path(cam, positions, log_scales, quats):
        assert np.array_equal(got, want), (got, want)
    return want


# ---------------------------------------------------------------------------
# Generated models and cameras
# ---------------------------------------------------------------------------
@given(**MODEL_CASES)
@settings(max_examples=60, deadline=None)
def test_generated_models_match_oracle(cull_oracle, seed, num, size, scale):
    cam, model = generated_model(seed, num, size, scale)
    assert_all_paths_match(
        cull_oracle, cam, model.positions, model.log_scales, model.quaternions
    )


@given(case=projections(), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0.3, 1.5, 6.0]))
@settings(max_examples=60, deadline=None)
def test_clouds_around_generated_cameras_match_oracle(
    cull_oracle, case, seed, spread
):
    """The ``projections()`` cameras (5-70 px wide: narrow to wide frusta)
    over continuous random clouds centred where they look, so centres fall
    inside, in the boundary band and far outside."""
    cam = case[0]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    positions = rng.normal(scale=spread, size=(n, 3))
    log_scales = rng.uniform(-6.0, np.log(spread), size=(n, 3))
    quats = rng.normal(size=(n, 4))
    assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats)


@given(**MODEL_CASES)
@settings(max_examples=25, deadline=None)
def test_fused_test_renders_the_culled_subset_identically(
    cull_oracle, seed, num, size, scale
):
    """``preprocess`` keeps no row outside ``S_i``, and the whole model
    projects to what its pre-culled subset projects to."""
    cam, model = generated_model(seed, num, size, scale)
    in_frustum = cull_oracle(
        cam, model.positions, model.log_scales, model.quaternions
    )
    whole = preprocess(cam, model, RasterSettings())
    culled = preprocess(cam, model.gather(in_frustum), RasterSettings())
    assert np.isin(whole.ids, in_frustum).all()
    assert np.array_equal(whole.ids, in_frustum[culled.ids])
    # A one-row product rounds through gemv: bit-equality holds from two
    # rows up (``exact_cull`` documents the same guard).
    if in_frustum.size != 1:
        for name in ("means2d", "conics", "colors", "opacities", "radii"):
            assert np.array_equal(getattr(whole, name), getattr(culled, name))
        assert np.array_equal(whole.shapes.rotations, culled.shapes.rotations)


# ---------------------------------------------------------------------------
# Named rows
# ---------------------------------------------------------------------------
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def test_centre_exactly_on_a_plane(cull_oracle):
    """Signed distance exactly 0 on the near (far) plane and positive on the
    others: accepted with no reach computed, as the full test accepts it."""
    cam = axis_camera()
    positions = np.array([[0.0, 0.0, cam.znear], [0.0, 0.0, cam.zfar],
                          [0.0, 0.0, np.nextafter(cam.znear, -np.inf)]])
    log_scales = np.full((3, 3), -30.0)  # reach ~1e-13, and exp() > 0
    quats = np.tile(IDENTITY, (3, 1))
    planes = frustum_planes(cam)
    signed = positions @ planes[:, :3].T + planes[:, 3]
    assert signed[0, 0] == 0.0 and signed[1, 1] == 0.0 and signed[2, 0] < 0.0
    kept = assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats)
    assert kept.tolist() == [0, 1, 2]  # row 2: one ulp out, reach covers it
    log_scales[2] = -800.0  # exp underflows to 0: no reach at all
    kept = assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats)
    assert kept.tolist() == [0, 1]


def test_centre_just_outside_with_and_without_a_reaching_ellipsoid(cull_oracle):
    cam = axis_camera()
    outside = cam.znear - 0.1
    positions = np.array([[0.0, 0.0, outside]] * 3)
    log_scales = np.array([
        [-6.0, -6.0, np.log(0.2 / 3.0)],  # 3 sigma = 0.2 along z: reaches
        [-6.0, -6.0, np.log(0.05 / 3.0)],  # 3 sigma = 0.05: does not
        [np.log(0.2 / 3.0), -6.0, -6.0],  # long axis along x ...
    ])
    quats = np.tile(IDENTITY, (3, 1))
    # ... rotated onto z (90 degrees about y): reaches after all.
    quats[2] = [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0]
    kept = assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats)
    assert kept.tolist() == [0, 2]


def test_lone_candidate_keeps_the_gemm_verdict(cull_oracle, rng):
    """``exact_cull`` on one row of a larger model gives that row the
    whole-model verdict (the arbiter tests a lone row twice over, on the
    ``gemm`` path), accept path or not."""
    case = lone_survivor_on_a_rounding_tie(rng)
    if case is None:
        pytest.skip("one-row and many-row BLAS products agree here")
    cam, positions, log_scales, quats = case
    want = cull_oracle(cam, positions, log_scales, quats)
    planes = frustum_planes(cam)
    lone = exact_cull(planes, positions, log_scales, quats, np.array([5]), "numpy")
    assert np.array_equal(lone, want[want == 5])
    # A lone row well inside the frustum takes the accept path the same way.
    positions[5] = cam.center + 4.0 * cam.rotation[2]
    assert exact_cull(
        planes, positions, log_scales, quats, np.array([5]), "numpy"
    ).tolist() == [5]
    assert_all_paths_match(cull_oracle, cam, positions, log_scales, quats)


def test_a_row_is_judged_on_the_same_bits_alone_doubled_and_in_company(rng):
    """The arbiter itself — not only ``exact_cull`` — keeps a lone row on
    the ``gemm`` path: its signed distances and its verdict are those it has
    inside any larger call, so a working set of exactly one Gaussian is
    rendered on the bits that culled it."""
    cam = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)
    planes = frustum_planes(cam)
    n = 400
    positions = rng.normal(scale=3.0, size=(n, 3))
    scales = np.exp(rng.uniform(-4.0, 0.0, size=(n, 3)))
    quats = rng.normal(size=(n, 4))
    whole = frustum.signed_distances(planes, positions)
    verdicts = ellipsoids_in_frustum(planes, positions, scales, quats)
    assert 0 < verdicts.sum() < n
    for i in range(n):
        one = slice(i, i + 1)
        alone = frustum.signed_distances(planes, positions[one])
        doubled = frustum.signed_distances(planes, np.repeat(positions[one], 2, 0))
        assert alone.shape == (1, 6) and np.array_equal(alone[0], whole[i])
        assert np.array_equal(doubled, np.repeat(whole[one], 2, 0))
        got = ellipsoids_in_frustum(planes, positions[one], scales[one], quats[one])
        assert got.shape == (1,) and got[0] == verdicts[i]
    assert frustum.signed_distances(planes, positions[:0]).shape == (0, 6)


def test_a_one_row_working_set_keeps_its_whole_model_verdict(rng):
    """On an exact tie the one-row ``gemv`` product flips the verdict; the
    arbiter called on that row alone (what ``preprocess`` does with a
    one-Gaussian working set) must not."""
    case = lone_survivor_on_a_rounding_tie(rng)
    if case is None:
        pytest.skip("one-row and many-row BLAS products agree here")
    cam, positions, log_scales, quats = case
    planes = frustum_planes(cam)
    scales = np.exp(log_scales)
    whole = ellipsoids_in_frustum(planes, positions, scales, quats)
    alone = ellipsoids_in_frustum(planes, positions[5:6], scales[5:6], quats[5:6])
    assert alone[0] == whole[5]
    model = GaussianModel(
        positions[5:6], log_scales[5:6], quats[5:6], np.zeros((1, 1, 3)),
        np.zeros(1), sh_degree=0,
    )
    rendered = rasterize_forward(
        cam, model, RasterSettings(kernel_backend="numpy")
    )[2].proj.ids
    assert rendered.size <= int(whole[5])


@needs_native
def test_a_one_row_working_set_keeps_its_whole_model_verdict_native(rng):
    """The C arbiter's own tie: the row the native cull keeps in the whole
    model passes the test again inside the native render of the gathered
    one-row working set, and a part in 1e12 less scale fails both."""
    cam, positions, log_scales, quats = lone_survivor_on_a_c_order_tie(rng)
    planes = frustum_planes(cam)
    for shrink, verdict in ((0.0, [5]), (1e-12, [])):
        log_scales[5] -= shrink
        whole = exact_cull(
            planes, positions, log_scales, quats, np.arange(12), "native"
        )
        assert whole.tolist() == verdict
        # Opaque and large on screen, so only the frustum test can drop it.
        model = GaussianModel(
            positions[5:6], log_scales[5:6], quats[5:6], np.zeros((1, 1, 3)),
            np.full(1, 4.0), sh_degree=0,
        )
        ctx = rasterize_forward(cam, model, RasterSettings(kernel_backend="native"))[2]
        assert ctx.kernel_backend == "native"
        assert ctx.proj.ids.size == len(verdict)


def test_non_finite_shapes_keep_the_full_test_verdict(cull_oracle):
    """Centres well inside all six planes, shapes not finite.  The full
    test rejects a NaN reach and accepts an infinite one; the accept path
    must not turn the first kind into members."""
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    generic = np.array([0.3, -0.2, 0.9, 0.1])
    cases = [
        # (log_scales, quaternion, in the set?)
        ([-2.0, -2.0, -2.0], IDENTITY, True),
        ([np.nan, -2.0, -2.0], IDENTITY, False),
        ([-2.0, -2.0, -2.0], [np.nan, 0.0, 0.0, 1.0], False),
        ([-2.0, -2.0, -2.0], [np.inf, 0.0, 0.0, 0.0], False),
        ([-2.0, -2.0, -2.0], [1.0, -np.inf, 0.0, 0.0], False),
        # exp overflows to inf: 0 * inf = NaN wherever the rotation has a
        # zero, an infinite (accepted) reach where it has none.
        ([800.0, -2.0, -2.0], IDENTITY, False),
        ([800.0, 800.0, 800.0], generic, True),
        ([-np.inf, -2.0, -2.0], generic, True),  # a flat Gaussian: scale 0
        ([-2.0, -2.0, -2.0], [1e200, 1e200, 0.0, 0.0], True),  # norm overflows
        ([-2.0, -2.0, -2.0], [0.0, 0.0, 0.0, 0.0], True),
    ]
    n = len(cases)
    positions = np.random.default_rng(0).uniform(-0.5, 0.5, size=(n, 3))
    log_scales = np.array([c[0] for c in cases], dtype=np.float64)
    quats = np.array([c[1] for c in cases], dtype=np.float64)
    planes = frustum_planes(cam)
    assert (positions @ planes[:, :3].T + planes[:, 3]).min() > 0.0
    with np.errstate(all="ignore"):
        kept = assert_all_paths_match(
            cull_oracle, cam, positions, log_scales, quats
        )
    assert kept.tolist() == [i for i, c in enumerate(cases) if c[2]]


# ---------------------------------------------------------------------------
# The band is all that pays
# ---------------------------------------------------------------------------
def test_rotations_are_built_for_the_boundary_band_only(monkeypatch, rng):
    built = []
    real = quaternion.to_rotation_matrices

    def counting(quats):
        built.append(quats.shape[0])
        return real(quats)

    monkeypatch.setattr(quaternion, "to_rotation_matrices", counting)
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    n = 50
    inside = rng.uniform(-0.4, 0.4, size=(n, 3))
    log_scales = np.full((n, 3), -4.0)
    quats = rng.normal(size=(n, 4))
    planes = frustum_planes(cam)
    every_row = np.arange(n)
    assert exact_cull(
        planes, inside, log_scales, quats, every_row, "numpy"
    ).size == n
    assert built == []
    # Push seven centres just past the left plane: they alone need a reach.
    band = np.arange(0, n, 8)
    positions = inside.copy()
    normal, offset = planes[2, :3], planes[2, 3]
    positions[band] -= normal * (positions[band] @ normal + offset + 0.01)[:, None]
    kept = exact_cull(planes, positions, log_scales, quats, every_row, "numpy")
    assert built == [band.size]
    assert kept.size == n  # 3 sigma = 0.055 > 0.01: all still reach inside
