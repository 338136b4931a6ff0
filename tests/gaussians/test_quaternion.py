"""Quaternion math: rotation construction and analytic Jacobians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import quaternion

finite_quats = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    min_size=4,
    max_size=4,
).filter(lambda q: sum(x * x for x in q) > 1e-4)


def test_normalize_unit_norm(rng):
    q = rng.normal(size=(20, 4))
    norms = np.linalg.norm(quaternion.normalize(q), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_identity_quaternion_gives_identity_matrix():
    q = np.array([[1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_allclose(
        quaternion.to_rotation_matrices(q)[0], np.eye(3), atol=1e-12
    )


def test_z_axis_rotation():
    theta = 0.7
    q = np.array([[np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)]])
    rot = quaternion.to_rotation_matrices(q)[0]
    expected = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(rot, expected, atol=1e-12)


def test_rotation_matrices_orthonormal(rng):
    q = quaternion.normalize(rng.normal(size=(30, 4)))
    rots = quaternion.to_rotation_matrices(q)
    for rot in rots:
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)


def test_rotation_jacobian_matches_finite_difference(rng):
    q = quaternion.normalize(rng.normal(size=(5, 4)))
    jac = quaternion.rotation_matrix_jacobian(q)
    eps = 1e-7
    for k in range(4):
        qp, qm = q.copy(), q.copy()
        qp[:, k] += eps
        qm[:, k] -= eps
        fd = (
            quaternion.to_rotation_matrices(qp)
            - quaternion.to_rotation_matrices(qm)
        ) / (2 * eps)
        np.testing.assert_allclose(jac[:, k], fd, atol=1e-6)


def test_backprop_rotation_contracts_jacobian(rng):
    q = quaternion.normalize(rng.normal(size=(4, 4)))
    upstream = rng.normal(size=(4, 3, 3))
    grad = quaternion.backprop_rotation(upstream, q)
    jac = quaternion.rotation_matrix_jacobian(q)
    expected = np.einsum("nqij,nij->nq", jac, upstream)
    np.testing.assert_allclose(grad, expected)


def test_backprop_normalize_matches_finite_difference(rng):
    raw = rng.normal(size=(6, 4)) * 2.0
    upstream = rng.normal(size=(6, 4))
    grad = quaternion.backprop_unit(upstream, *quaternion.unit_and_norm(raw))
    eps = 1e-7
    fd = np.zeros_like(raw)
    for k in range(4):
        rp, rm = raw.copy(), raw.copy()
        rp[:, k] += eps
        rm[:, k] -= eps
        diff = (quaternion.normalize(rp) - quaternion.normalize(rm)) / (2 * eps)
        fd[:, k] = np.sum(upstream * diff, axis=1)
    np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_normalize_gradient_orthogonal_to_unit(rng):
    """The normalization gradient lives in the unit sphere's tangent space."""
    raw = rng.normal(size=(10, 4))
    unit, norms = quaternion.unit_and_norm(raw)
    grad = quaternion.backprop_unit(rng.normal(size=(10, 4)), unit, norms)
    np.testing.assert_allclose(np.sum(grad * unit, axis=1), 0.0, atol=1e-10)


@given(q=finite_quats)
@settings(max_examples=50, deadline=None)
def test_scale_invariance_of_rotation(q):
    """R(q) == R(2q): rotation depends only on the direction of q."""
    q = np.asarray([q])
    a = quaternion.to_rotation_matrices(quaternion.normalize(q))
    b = quaternion.to_rotation_matrices(quaternion.normalize(2.0 * q))
    np.testing.assert_allclose(a, b, atol=1e-10)
