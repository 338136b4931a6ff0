"""The two-level batched frustum cull is the single-level cull, bit for bit.

``cull_oracle`` (tests/conftest.py) is the exact 3-sigma support test run on
every row, as the cull was before the bounding-sphere prefilter.  Every test
here pins :func:`repro.gaussians.frustum.cull_batch` to it with
``np.array_equal``: generated clouds and cameras first, then the named cases
the prefilter could get wrong.

The oracle is NumPy arithmetic.  The tests that *construct* a rounding tie
(``n . p + d + r == 0`` to the last bit) therefore pin the NumPy arbiter,
and each has a ``native`` twin whose ties are found in the C expression
order (:func:`c_signed` / :func:`c_reach`) and whose single-level cull is
the C arbiter on every row — two-level == single-level under the same
arbiter, margin included, for both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gaussians import frustum
from repro.gaussians.camera import Camera, look_at_camera
from repro.gaussians.frustum import cull_batch, exact_cull, frustum_planes
from repro.kernels import get_backend
from repro.scenes.datasets import build_scene, scene_names
from repro.scenes.images import make_trainable_scene


needs_native = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)


def assert_matches_oracle(
    cull_oracle, cameras, positions, log_scales, quats, kernel_backend=None
):
    sets = cull_batch(cameras, positions, log_scales, quats, kernel_backend)
    assert len(sets) == len(cameras)
    for cam, got in zip(cameras, sets):
        want = cull_oracle(cam, positions, log_scales, quats)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (cam, got, want)
    return sets


def axis_camera(**kwargs):
    """A camera at the origin looking down world +z with identity
    rotation: the near and far plane normals are exactly ``(0, 0, +-1)``."""
    defaults = dict(
        rotation=np.eye(3), center=np.zeros(3), fx=40.0, fy=40.0,
        cx=32.0, cy=24.0, width=64, height=48, znear=0.5, zfar=50.0,
    )
    defaults.update(kwargs)
    return Camera(**defaults)


# ---------------------------------------------------------------------------
# Generated clouds and cameras
# ---------------------------------------------------------------------------
def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def clouds(draw):
    """``(positions, log_scales, raw_quats)``: sizes from empty up, scales
    from needle-thin to larger than the scene, quaternions unnormalised and
    sometimes all-zero."""
    n = draw(st.integers(0, 48))
    return (
        draw(arrays(np.float64, (n, 3), elements=floats(-30.0, 30.0))),
        draw(arrays(np.float64, (n, 3), elements=floats(-9.0, 4.0))),
        draw(arrays(np.float64, (n, 4), elements=floats(-2.0, 2.0))),
    )


@st.composite
def posed_cameras(draw):
    eye = np.array(draw(st.tuples(*[floats(-25.0, 25.0)] * 3)))
    offset = np.array(draw(st.tuples(*[floats(-10.0, 10.0)] * 3)))
    if np.linalg.norm(offset) < 1e-3:
        offset = np.array([0.0, 1.0, 0.0])
    znear = draw(floats(0.01, 2.0))
    return look_at_camera(
        eye=eye, target=eye + offset,
        fov_y_deg=draw(floats(10.0, 120.0)),
        width=draw(st.integers(8, 96)), height=draw(st.integers(8, 96)),
        znear=znear, zfar=znear + draw(floats(0.5, 200.0)),
    )


@given(cloud=clouds(), cameras=st.lists(posed_cameras(), max_size=5))
@settings(max_examples=150, deadline=None)
def test_generated_clouds_match_oracle(cull_oracle, cloud, cameras):
    assert_matches_oracle(cull_oracle, cameras, *cloud)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       spread=st.sampled_from([0.5, 5.0, 500.0]))
@settings(max_examples=60, deadline=None)
def test_random_clouds_match_oracle(cull_oracle, seed, n, spread):
    """Continuous random data (no 'nice' floats): many rows sit within a
    few radii of a plane, where the prefilter margin matters."""
    rng = np.random.default_rng(seed)
    positions = rng.normal(scale=spread, size=(n, 3))
    log_scales = rng.uniform(-7.0, np.log(spread), size=(n, 3))
    quats = rng.normal(size=(n, 4))
    cameras = [
        look_at_camera(
            eye=rng.normal(scale=spread, size=3), target=rng.normal(size=3),
            width=48, height=32, zfar=float(rng.uniform(1.0, 6.0)) * spread,
        )
        for _ in range(3)
    ]
    assert_matches_oracle(cull_oracle, cameras, positions, log_scales, quats)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scene_name", scene_names())
def test_every_camera_of_every_registered_scene(
    cull_oracle, scene_name, scene_cache
):
    scene = scene_cache(scene_name, 1e-4, 12)
    m = scene.model
    assert_matches_oracle(
        cull_oracle, scene.cameras, m.positions, m.log_scales, m.quaternions
    )


def test_bench_e2e_sparse_scene(cull_oracle):
    """``bench_e2e``'s ``train_sparse`` scene: N=20 000, a view sees <1%."""
    scene = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    m = scene.model
    sets = assert_matches_oracle(
        cull_oracle, scene.cameras, m.positions, m.log_scales, m.quaternions
    )
    assert max(s.size for s in sets) < 0.05 * m.num_gaussians


def test_bench_e2e_dense_scene(cull_oracle):
    """``bench_e2e``'s ``train_dense`` scene: every view sees most rows."""
    scene = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    m = scene.reference
    sets = assert_matches_oracle(
        cull_oracle, scene.cameras, m.positions, m.log_scales, m.quaternions
    )
    assert min(s.size for s in sets) > 0.3 * m.num_gaussians


# ---------------------------------------------------------------------------
# Named adversarial cases
# ---------------------------------------------------------------------------
def test_isotropic_gaussians_on_axis_aligned_planes(cull_oracle):
    """Isotropic scale + identity rotation + axis-aligned normal: the exact
    radius *equals* the sphere bound, so without its margin the prefilter
    would be deciding ties.  Sweep centres one ulp at a time across the
    near- and far-plane thresholds."""
    cam = axis_camera()
    log_scale = np.log(0.25)
    radius = frustum.CULL_SIGMA * np.exp(log_scale)
    zs = []
    for threshold in (cam.znear - radius, cam.zfar + radius):
        z = threshold
        for _ in range(6):
            z = np.nextafter(z, -np.inf)
        for _ in range(13):
            zs.append(z)
            z = np.nextafter(z, np.inf)
    positions = np.zeros((len(zs), 3))
    positions[:, 2] = zs
    log_scales = np.full((len(zs), 3), log_scale)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(zs), 1))
    (kept,) = assert_matches_oracle(
        cull_oracle, [cam], positions, log_scales, quats
    )
    # The sweep really straddles both thresholds.
    assert 0 < kept.size < len(zs)
    assert kept[0] > 0 and kept[-1] < len(zs) - 1


def test_huge_anisotropic_gaussian_centred_outside(cull_oracle):
    """A long pencil far outside the frustum reaches it only when its long
    axis points that way; the sphere bound passes both orientations and
    the exact stage must still tell them apart."""
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), width=64,
                         height=48, znear=0.1, zfar=20.0)
    positions = np.array([[60.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 0.0]])
    log_scales = np.array([[3.5, -5.0, -5.0]] * 2 + [[-4.0, -4.0, -4.0]])
    quats = np.array([
        [1.0, 0.0, 0.0, 0.0],  # long axis along world x: reaches in
        [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0],  # along world z
        [1.0, 0.0, 0.0, 0.0],
    ])
    (kept,) = assert_matches_oracle(
        cull_oracle, [cam], positions, log_scales, quats
    )
    assert kept.tolist() == [0, 2]


def test_zero_norm_quaternions(cull_oracle, rng):
    """``quaternion.normalize`` clamps the norm at 1e-12: an all-zero
    quaternion yields the identity rotation, a tiny one a contraction.
    Neither may escape the sphere bound."""
    n = 60
    positions = rng.uniform(-6, 6, size=(n, 3))
    log_scales = rng.uniform(-3, 1, size=(n, 3))
    quats = rng.normal(size=(n, 4))
    quats[::3] = 0.0
    quats[1::3] *= 1e-13
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    (kept,) = assert_matches_oracle(
        cull_oracle, [cam], positions, log_scales, quats
    )
    assert 0 < kept.size < n


def test_non_finite_rows_are_rejected_like_the_oracle(cull_oracle, rng):
    n = 40
    positions = rng.uniform(-3, 3, size=(n, 3))
    log_scales = rng.uniform(-3, 0, size=(n, 3))
    quats = rng.normal(size=(n, 4))
    positions[3, 1] = np.nan
    positions[7, 0] = np.inf
    log_scales[11, 2] = np.nan
    log_scales[13, 0] = 800.0  # exp overflows to inf
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    with np.errstate(all="ignore"):
        (kept,) = assert_matches_oracle(
            cull_oracle, [cam], positions, log_scales, quats
        )
    assert not {3, 7, 11} & set(kept.tolist())


def test_empty_model(cull_oracle):
    cams = [axis_camera(), axis_camera(znear=1.0)]
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)))
    sets = assert_matches_oracle(cull_oracle, cams, *empty)
    assert [s.size for s in sets] == [0, 0]


@pytest.mark.parametrize("z", [5.0, -5.0])
def test_single_gaussian(cull_oracle, z):
    one = (np.array([[0.1, 0.2, z]]), np.full((1, 3), -2.0),
           np.array([[0.3, -0.2, 0.9, 0.1]]))
    (kept,) = assert_matches_oracle(cull_oracle, [axis_camera()], *one)
    assert kept.tolist() == ([0] if z > 0 else [])


def test_no_views(rng):
    assert cull_batch(
        [], rng.normal(size=(5, 3)), np.zeros((5, 3)), rng.normal(size=(5, 4))
    ) == []


def tie_camera():
    """A generically posed camera: no plane normal has a zero or unit
    component, so signed distances really round."""
    return look_at_camera(eye=(0.3, -5.1, 0.7), target=(0.1, 0.2, -0.1),
                          width=64, height=48, znear=0.1, zfar=40.0)


LEFT = 2  # row of the left plane in ``frustum_planes``


def outside_left_plane(cam, rng):
    """A centre 0.2-0.4 outside the left plane, well inside the others."""
    planes = frustum.frustum_planes(cam)
    normal, offset = planes[LEFT, :3], planes[LEFT, 3]
    on_axis = cam.center + cam.rotation[2] * rng.uniform(3.0, 8.0)
    return on_axis - normal * (normal @ on_axis + offset + rng.uniform(0.2, 0.4))


def c_signed(plane, point):
    """``n . p + d`` as ``native_kernels.c`` sums it: in program order."""
    (nx, ny, nz, d), (x, y, z) = plane.tolist(), point.tolist()
    return nx * x + ny * y + nz * z + d


def c_reach(normal, log_scales, quat):
    """The 3-sigma reach along ``normal`` as ``native_kernels.c`` computes
    it: libm ``exp``, the 1e-12 norm clamp, every sum in index order."""
    s = [math.exp(v) for v in log_scales]
    norm = max(math.sqrt(sum(v * v for v in quat.tolist())), 1e-12)
    w, x, y, z = (v / norm for v in quat.tolist())
    rot = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    n = normal.tolist()
    total = 0.0
    for i in range(3):
        v = (rot[i] * n[0] + rot[3 + i] * n[1] + rot[6 + i] * n[2]) * s[i]
        total += v * v
    return 3.0 * math.sqrt(total)


def numpy_reach(normal, log_scales, quat):
    return frustum.support_radii(normal[None], log_scales[None], quat[None])[0, 0]


def touching_log_scale(cam, quat, distance, reach=numpy_reach):
    """The isotropic log-scale whose exact support radius towards the left
    plane — ``reach``'s arithmetic — is the float ``distance``, or ``None``
    when bisection steps over that float."""
    normal = frustum.frustum_planes(cam)[LEFT, :3]

    def radius(log_scale):
        return reach(normal, np.full(3, log_scale), quat)

    lo, hi = np.log(distance / 3.0) - 1e-6, np.log(distance / 3.0) + 1e-6
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if radius(mid) <= distance else (lo, mid)
    return next((x for x in (lo, hi) if radius(x) == distance), None)


def touching_rows(cam, rng, n, signed, reach):
    """``n`` rows outside the left plane, each — where bisection finds the
    float — scaled so that ``signed + reach == 0`` exactly in the given
    arithmetic.  Returns ``(positions, log_scales, quats, touching)``."""
    plane = frustum.frustum_planes(cam)[LEFT]
    positions = np.stack([outside_left_plane(cam, rng) for _ in range(n)])
    quats = rng.normal(size=(n, 4))
    log_scales = np.empty((n, 3))
    touching = []
    for i in range(n):
        log_scale = touching_log_scale(
            cam, quats[i], -signed(plane, positions[i]), reach
        )
        touching.append(log_scale is not None)
        log_scales[i] = -6.0 if log_scale is None else log_scale
    return positions, log_scales, quats, touching


def test_gaussians_exactly_touching_a_plane_survive_the_prefilter(
    cull_oracle, rng
):
    """Rows with ``n . p + d + r == 0`` to the last bit are in the set.  The
    prefilter sums the same terms in another order and compares against a
    bound the rounded exact radius can exceed by an ulp; only its margin
    keeps such rows."""
    cam = tie_camera()
    planes = frustum.frustum_planes(cam)
    n = 64
    positions = np.stack([outside_left_plane(cam, rng) for _ in range(n)])
    quats = rng.normal(size=(n, 4))
    distances = -(positions @ planes[:, :3].T + planes[:, 3])[:, LEFT]
    log_scales = np.empty((n, 3))
    touching = []
    for i in range(n):
        log_scale = touching_log_scale(cam, quats[i], distances[i])
        touching.append(log_scale is not None)
        log_scales[i] = -6.0 if log_scale is None else log_scale
    assert sum(touching) > n // 4
    (kept,) = assert_matches_oracle(
        cull_oracle, [cam], positions, log_scales, quats, "numpy"
    )
    assert kept.tolist() == np.flatnonzero(touching).tolist()


@needs_native
def test_gaussians_exactly_touching_a_plane_survive_the_prefilter_native(rng):
    """The same under the C arbiter: ties in *its* expression order, its own
    verdict on every row as the single-level cull."""
    cam = tie_camera()
    n = 64
    positions, log_scales, quats, touching = touching_rows(
        cam, rng, n, c_signed, c_reach
    )
    assert sum(touching) > n // 4
    single_level = exact_cull(
        frustum_planes(cam), positions, log_scales, quats, np.arange(n), "native"
    )
    (kept,) = cull_batch([cam], positions, log_scales, quats, "native")
    assert np.array_equal(kept, single_level)
    assert kept.tolist() == np.flatnonzero(touching).tolist()
    # The ties are real: a part in 1e12 less scale and none reaches.
    (kept,) = cull_batch([cam], positions, log_scales - 1e-12, quats, "native")
    assert kept.size == 0


def lone_survivor_on_a_rounding_tie(rng):
    """A model whose only prefilter survivor (row 5) touches the left plane
    exactly under the many-row BLAS product and misses or overlaps it by
    one ulp under the one-row product — or ``None`` where the two products
    agree (then there is no hazard to test)."""
    cam = tie_camera()
    planes = frustum.frustum_planes(cam)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(200):
        positions = rng.normal(scale=400.0, size=(12, 3))
        positions[:, 1] -= 3000.0  # everyone else: far behind the camera
        positions[5] = outside_left_plane(cam, rng)
        many = (positions @ planes[:, :3].T + planes[:, 3])[5, LEFT]
        one = (positions[5:6] @ planes[:, :3].T + planes[:, 3])[0, LEFT]
        if many == one:
            continue
        # A radius equal to the larger distance: opposite verdicts.
        log_scale = touching_log_scale(cam, identity, -max(many, one))
        if log_scale is not None:
            log_scales = np.full((12, 3), -3.0)
            log_scales[5] = log_scale
            return cam, positions, log_scales, np.tile(identity, (12, 1))
    return None


def lone_survivor_on_a_c_order_tie(rng):
    """The same model with row 5 touching the left plane exactly in the C
    arbiter's arithmetic (where no row count changes a rounding, so the
    hazard is the tie itself: walked in a strided block, gathered, alone or
    in company, the row must get one verdict)."""
    cam = tie_camera()
    plane = frustum.frustum_planes(cam)[LEFT]
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(200):
        positions = rng.normal(scale=400.0, size=(12, 3))
        positions[:, 1] -= 3000.0
        positions[5] = outside_left_plane(cam, rng)
        log_scale = touching_log_scale(
            cam, identity, -c_signed(plane, positions[5]), c_reach
        )
        if log_scale is not None:
            log_scales = np.full((12, 3), -3.0)
            log_scales[5] = log_scale
            return cam, positions, log_scales, np.tile(identity, (12, 1))
    raise AssertionError("no C-order tie in 200 draws")


def test_lone_survivor_gets_the_whole_model_verdict(cull_oracle, rng):
    """NumPy hands a one-row product to BLAS ``gemv``, which can round one
    ulp away from the ``gemm`` every other row count uses.  A lone
    prefilter survivor must still get the verdict the whole-model test
    gives it, even on an exact tie."""
    case = lone_survivor_on_a_rounding_tie(rng)
    if case is None:
        pytest.skip("one-row and many-row BLAS products agree here")
    cam, positions, log_scales, quats = case
    (kept,) = assert_matches_oracle(
        cull_oracle, [cam], positions, log_scales, quats, "numpy"
    )
    # The hazard is real: testing row 5 by itself flips the verdict.
    alone = cull_oracle(cam, positions[5:6], log_scales[5:6], quats[5:6])
    assert (alone.size == 1) != (kept.size == 1)


@needs_native
def test_lone_survivor_gets_the_whole_model_verdict_native(rng):
    """Under the C arbiter the lone survivor of the prefilter, on an exact
    tie of *that* arithmetic, is kept — as in the whole-model test, in the
    packed block the ``clm`` engine culls on, and alone."""
    cam, positions, log_scales, quats = lone_survivor_on_a_c_order_tie(rng)
    planes = frustum_planes(cam)
    assert c_signed(planes[LEFT], positions[5]) + c_reach(
        planes[LEFT, :3], log_scales[5], quats[5]
    ) == 0.0
    whole = exact_cull(planes, positions, log_scales, quats, np.arange(12), "native")
    assert whole.tolist() == [5]
    (kept,) = cull_batch([cam], positions, log_scales, quats, "native")
    assert kept.tolist() == [5]
    block = np.concatenate([positions, log_scales, quats], axis=1)
    packed = (block[:, :3], block[:, 3:6], block[:, 6:])
    assert cull_batch([cam], *packed, "native")[0].tolist() == [5]
    alone = exact_cull(
        planes, positions[5:6], log_scales[5:6], quats[5:6], np.array([0]), "native"
    )
    assert alone.tolist() == [0]
    # The hazard is real: a part in 1e12 less scale flips every one of them.
    log_scales[5] -= 1e-12
    assert cull_batch([cam], positions, log_scales, quats, "native")[0].size == 0


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_view_count_straddles_the_view_block(cull_oracle, rng, blocks, delta):
    views = blocks * frustum._VIEW_BLOCK + delta
    positions = rng.uniform(-4, 4, size=(80, 3))
    log_scales = rng.uniform(-4, -1, size=(80, 3))
    quats = rng.normal(size=(80, 4))
    cameras = [
        look_at_camera(
            eye=(6 * np.cos(a), 6 * np.sin(a), 1.0), target=(0, 0, 0),
            width=32, height=24, zfar=8.0,
        )
        for a in np.linspace(0.0, 2 * np.pi, views, endpoint=False)
    ]
    sets = assert_matches_oracle(
        cull_oracle, cameras, positions, log_scales, quats
    )
    assert len({s.tobytes() for s in sets}) > 1  # views really differ


def test_model_size_straddles_the_row_block(cull_oracle, rng):
    cam = look_at_camera(eye=(0, -5, 0), target=(0, 0, 0), zfar=20.0)
    for n in (frustum._ROW_BLOCK - 1, frustum._ROW_BLOCK,
              frustum._ROW_BLOCK + 1, 2 * frustum._ROW_BLOCK + 1):
        positions = rng.uniform(-8, 8, size=(n, 3))
        log_scales = rng.uniform(-5, -2, size=(n, 3))
        quats = rng.normal(size=(n, 4))
        assert_matches_oracle(cull_oracle, [cam], positions, log_scales, quats)
