"""Camera model: transforms, projection, look-at construction."""

import dataclasses
import math

import numpy as np
import pytest

from repro.gaussians.camera import Camera, look_at_camera
from repro.gaussians.frustum import cull_gaussians, frustum_planes


def test_look_at_points_forward_at_target():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), width=64, height=48)
    forward = cam.forward_axis()
    np.testing.assert_allclose(forward, [0.0, 1.0, 0.0], atol=1e-12)


def test_target_projects_to_principal_point():
    cam = look_at_camera(eye=(1.0, -2.0, 0.5), target=(0.2, 0.3, 0.1),
                         width=80, height=60)
    x, y, depth = cam.world_to_camera(np.array([[0.2, 0.3, 0.1]]))[0]
    assert depth > 0
    np.testing.assert_allclose([x, y], 0.0, atol=1e-12)  # on the optical axis


def test_world_to_camera_rigid(rng):
    cam = look_at_camera(eye=(2, 1, 3), target=(0, 0, 0))
    pts = rng.normal(size=(50, 3))
    out = cam.world_to_camera(pts)
    # Rigid transforms preserve pairwise distances.
    d_in = np.linalg.norm(pts[:1] - pts, axis=1)
    d_out = np.linalg.norm(out[:1] - out, axis=1)
    np.testing.assert_allclose(d_in, d_out, atol=1e-10)


def test_depth_sign():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0))
    depth = cam.world_to_camera(np.array([[0.0, 0.0, 0.0], [0.0, -6.0, 0.0]]))[:, 2]
    assert depth[0] > 0  # in front
    assert depth[1] < 0  # behind


def test_fov_matches_intrinsics():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0),
                         fov_y_deg=60.0, width=100, height=80)
    fov_y = 2.0 * math.atan(cam.height / (2.0 * cam.fy))
    assert math.degrees(fov_y) == pytest.approx(60.0)


def test_rotation_is_orthonormal():
    cam = look_at_camera(eye=(1, 2, 3), target=(-1, 0, 0.5))
    np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3),
                               atol=1e-12)
    assert np.linalg.det(cam.rotation) == pytest.approx(1.0)


def test_translation_consistent_with_center():
    # p_cam = W (p - centre): the eye is the camera-space origin.
    cam = look_at_camera(eye=(1, 2, 3), target=(0, 0, 0))
    np.testing.assert_allclose(cam.center, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        cam.world_to_camera(cam.center[None]), 0.0, atol=1e-12
    )


def test_degenerate_up_vector_handled():
    # Looking straight down with up == view direction must not blow up.
    cam = look_at_camera(eye=(0, 0, 5), target=(0, 0, 0), up=(0, 0, 1))
    assert np.isfinite(cam.rotation).all()


def np_cross_rotation(eye, target, up):
    """``look_at_camera``'s rotation built with ``np.cross``, as it was."""
    eye, target, up = (np.asarray(v, dtype=np.float64) for v in (eye, target, up))
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    if abs(np.dot(forward, up) / max(np.linalg.norm(up), 1e-12)) > 0.999:
        up = np.array([1.0, 0.0, 0.0]) if abs(forward[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right = right / np.linalg.norm(right)
    return np.stack([right, np.cross(forward, right), forward], axis=0)


def test_look_at_rotation_is_the_np_cross_construction_bit_for_bit():
    rng = np.random.default_rng(7)
    poses = [
        (rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 2), rng.standard_normal(3),
         rng.standard_normal(3))
        for _ in range(500)
    ]
    # The degenerate-up branch, both of its fallback axes.
    poses += [((0, 0, 5), (0, 0, 0), (0, 0, 1)), ((5, 0, 0), (0, 0, 0), (1, 0, 0))]
    poses += [((0, 0, 0), (1e-3, 0, 1), (0, 0, 1)), ((0, 0, 0), (1, 1e-4, 0), (-1, 0, 0))]
    for eye, target, up in poses:
        cam = look_at_camera(eye=eye, target=target, up=up)
        assert np.array_equal(cam.rotation, np_cross_rotation(eye, target, up))


def test_coincident_eye_target_rejected():
    with pytest.raises(ValueError):
        look_at_camera(eye=(1, 1, 1), target=(1, 1, 1))


def test_invalid_clip_planes_rejected():
    with pytest.raises(ValueError):
        Camera(
            rotation=np.eye(3),
            center=np.zeros(3),
            fx=50, fy=50, cx=32, cy=24,
            width=64, height=48,
            znear=1.0, zfar=0.5,
        )


def test_num_pixels():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), width=64, height=48)
    assert cam.num_pixels == 64 * 48


# ---------------------------------------------------------------------------
# The cached frustum follows the camera
# ---------------------------------------------------------------------------
def moved_planes(cam, **changes):
    """The planes of a camera built from scratch with ``changes`` applied."""
    fields = {f.name: getattr(cam, f.name) for f in dataclasses.fields(cam) if f.init}
    return frustum_planes(Camera(**{**fields, **changes}))


def test_replace_does_not_inherit_the_cached_frustum():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), zfar=20.0)
    before = frustum_planes(cam).copy()
    moved = dataclasses.replace(cam, center=cam.center + 10.0)
    assert moved._cached_planes is None
    after = frustum_planes(moved)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, moved_planes(cam, center=cam.center + 10.0))
    assert np.array_equal(frustum_planes(cam), before)  # the original keeps its own


@pytest.mark.parametrize("name, value", [
    ("center", np.array([10.0, -3.0, 0.0])),
    ("rotation", look_at_camera(eye=(0, -3, 0), target=(1, 0, 0)).rotation),
    ("zfar", 5.0), ("znear", 0.5), ("fx", 17.0), ("fy", 23.0), ("cx", 3.0),
    ("cy", 4.0), ("width", 11), ("height", 13),
])
def test_assigning_a_field_drops_the_cached_frustum(name, value):
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), zfar=20.0)
    before = frustum_planes(cam)
    assert frustum_planes(cam) is before  # cached while nothing moves
    setattr(cam, name, value)
    after = frustum_planes(cam)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, moved_planes(cam))
    cam.view_id = 7  # not a frustum field: the cache stays
    assert frustum_planes(cam) is after


def test_a_moved_camera_culls_with_its_new_frustum():
    cam = look_at_camera(eye=(0, -3, 0), target=(0, 0, 0), zfar=20.0)
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    shape = (np.full((2, 3), -3.0), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
    assert cull_gaussians(cam, positions, *shape).tolist() == [0]
    cam.center = np.array([0.0, 27.0, 0.0])
    assert cull_gaussians(cam, positions, *shape).tolist() == [1]


def test_the_cached_frustum_is_read_only():
    planes = frustum_planes(look_at_camera(eye=(0, -3, 0), target=(0, 0, 0)))
    with pytest.raises(ValueError, match="read-only"):
        planes[0, 3] = 0.0
