"""Covariance construction and EWA projection, forward and backward."""

import numpy as np
import pytest

from repro.gaussians import covariance, quaternion


def random_inputs(rng, n=6):
    log_scales = rng.uniform(-2.0, 0.0, size=(n, 3))
    quats = rng.normal(size=(n, 4))
    return log_scales, quats


def test_build_covariance_is_spd(rng):
    ls, q = random_inputs(rng)
    cov = covariance.build_covariance(ls, q)
    for c in cov:
        np.testing.assert_allclose(c, c.T, atol=1e-12)
        eig = np.linalg.eigvalsh(c)
        assert np.all(eig > 0)


def test_build_covariance_eigenvalues_are_squared_scales(rng):
    ls, q = random_inputs(rng, 4)
    cov = covariance.build_covariance(ls, q)
    for i in range(4):
        eig = np.sort(np.linalg.eigvalsh(cov[i]))
        expected = np.sort(np.exp(2 * ls[i]))
        np.testing.assert_allclose(eig, expected, rtol=1e-10)


def test_isotropic_covariance_rotation_invariant(rng):
    ls = np.full((3, 3), -1.0)
    q = rng.normal(size=(3, 4))
    cov = covariance.build_covariance(ls, q)
    expected = np.tile(np.exp(-2.0) * np.eye(3), (3, 1, 1))
    np.testing.assert_allclose(cov, expected, atol=1e-12)


def test_build_covariance_backward_fd(rng):
    ls, q = random_inputs(rng, 4)
    upstream = rng.normal(size=(4, 3, 3))

    def loss(ls_, q_):
        return np.sum(covariance.build_covariance(ls_, q_) * upstream)

    shape = covariance.GaussianShape.of(ls, q)
    d_ls, d_q = shape.covariance_backward(upstream)
    eps = 1e-7
    for arr, grad in ((ls, d_ls), (q, d_q)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in np.random.default_rng(0).choice(flat.size, 8, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss(ls, q)
            flat[i] = orig - eps
            lm = loss(ls, q)
            flat[i] = orig
            assert gflat[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-6)


def test_perspective_jacobian_values():
    t = np.array([[1.0, 2.0, 4.0]])
    jac = covariance.perspective_jacobian(t, fx=100.0, fy=50.0)[0]
    assert jac[0, 0] == pytest.approx(25.0)  # fx/tz
    assert jac[1, 1] == pytest.approx(12.5)
    assert jac[0, 2] == pytest.approx(-100.0 * 1.0 / 16.0)
    assert jac[1, 2] == pytest.approx(-50.0 * 2.0 / 16.0)
    assert jac[0, 1] == 0.0 and jac[1, 0] == 0.0


def test_project_covariance_includes_low_pass(rng):
    ls, q = random_inputs(rng, 3)
    cov = covariance.build_covariance(ls, q)
    t = np.tile(np.array([0.0, 0.0, 5.0]), (3, 1))
    w = np.eye(3)
    cov2d, _ = covariance.project_covariance(cov, t, w, 50.0, 50.0)
    bare = np.einsum(
        "nij,njk,nlk->nil",
        covariance.perspective_jacobian(t, 50.0, 50.0),
        cov,
        covariance.perspective_jacobian(t, 50.0, 50.0),
    )
    expected = np.tile(covariance.LOW_PASS_FILTER * np.eye(2), (3, 1, 1))
    np.testing.assert_allclose(cov2d - bare, expected, atol=1e-10)


def test_project_covariance_backward_fd(rng):
    n = 3
    ls, q = random_inputs(rng, n)
    cov_world = covariance.build_covariance(ls, q)
    t = rng.uniform(1.0, 3.0, size=(n, 3))
    t[:, 2] += 2.0
    w_rot = quaternion.to_rotation_matrices(
        quaternion.normalize(rng.normal(size=(1, 4)))
    )[0]
    upstream = rng.normal(size=(n, 2, 2))
    upstream = upstream + np.swapaxes(upstream, 1, 2)  # symmetric upstream

    def forward(cov_w, t_):
        c2d, _ = covariance.project_covariance(cov_w, t_, w_rot, 60.0, 55.0)
        return np.sum(c2d * upstream)

    _, cov_cam = covariance.project_covariance(cov_world, t, w_rot, 60.0, 55.0)
    d_cov, d_t = covariance.project_covariance_backward(
        upstream, cov_cam, t, w_rot, 60.0, 55.0
    )
    eps = 1e-6
    # check d_t entries
    for i in np.random.default_rng(1).choice(t.size, 6, replace=False):
        flat = t.reshape(-1)
        orig = flat[i]
        flat[i] = orig + eps
        lp = forward(cov_world, t)
        flat[i] = orig - eps
        lm = forward(cov_world, t)
        flat[i] = orig
        assert d_t.reshape(-1)[i] == pytest.approx(
            (lp - lm) / (2 * eps), rel=1e-4, abs=1e-5
        )
    # d_cov via symmetric perturbations
    for n_i in range(n):
        for a in range(3):
            for b in range(a, 3):
                pert = np.zeros((3, 3))
                pert[a, b] = pert[b, a] = eps
                cp = cov_world.copy()
                cp[n_i] += pert
                cm = cov_world.copy()
                cm[n_i] -= pert
                fd = (forward(cp, t) - forward(cm, t)) / (2 * eps)
                if a == b:
                    analytic = d_cov[n_i, a, a]
                else:
                    analytic = d_cov[n_i, a, b] + d_cov[n_i, b, a]
                assert analytic == pytest.approx(fd, rel=1e-3, abs=1e-5)


def test_invert_cov2d_roundtrip(rng):
    ls, q = random_inputs(rng, 5)
    cov = covariance.build_covariance(ls, q)
    t = np.tile(np.array([0.0, 0.0, 4.0]), (5, 1))
    cov2d, _ = covariance.project_covariance(cov, t, np.eye(3), 40.0, 40.0)
    conic, det = covariance.invert_cov2d(cov2d)
    assert np.all(det > 0)
    prod = np.einsum("nij,njk->nik", cov2d, conic)
    np.testing.assert_allclose(prod, np.tile(np.eye(2), (5, 1, 1)), atol=1e-10)


def test_invert_cov2d_backward_fd(rng):
    """Symmetric-matrix convention: perturb (i,j) and (j,i) together and
    compare against the symmetrized analytic gradient (the rasterizer only
    ever produces/consumes symmetric 2x2 matrices)."""
    a = np.array([[[2.0, 0.3], [0.3, 1.5]]])
    upstream = rng.normal(size=(1, 2, 2))
    conic, _ = covariance.invert_cov2d(a)
    d_a = covariance.invert_cov2d_backward(upstream, conic)
    eps = 1e-7
    for i in range(2):
        for j in range(i, 2):
            ap = a.copy()
            ap[0, i, j] += eps
            ap[0, j, i] = ap[0, i, j]
            am = a.copy()
            am[0, i, j] -= eps
            am[0, j, i] = am[0, i, j]
            fd = (
                np.sum(covariance.invert_cov2d(ap)[0] * upstream)
                - np.sum(covariance.invert_cov2d(am)[0] * upstream)
            ) / (2 * eps)
            analytic = d_a[0, i, j] if i == j else d_a[0, i, j] + d_a[0, j, i]
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_invert_flags_degenerate():
    degenerate = np.zeros((1, 2, 2))
    _, det = covariance.invert_cov2d(degenerate)
    assert det[0] <= 0
