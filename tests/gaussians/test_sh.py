"""Spherical harmonics: basis values, Jacobians, colour gradients."""

import numpy as np
import pytest

from repro.gaussians import quaternion, sh


def unit_dirs(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_num_basis_per_degree():
    assert [sh.num_basis(d) for d in range(4)] == [1, 4, 9, 16]


def test_num_basis_rejects_bad_degree():
    with pytest.raises(ValueError):
        sh.num_basis(4)


def test_degree0_constant(rng):
    basis = sh.eval_basis(unit_dirs(rng, 8), 0)
    np.testing.assert_allclose(basis, sh._C0)


def test_basis_orthonormality(rng):
    """Monte-Carlo check: int Y_i Y_j dOmega = delta_ij (real SH).

    With 200k uniform sphere samples the estimate is good to ~1e-2.
    """
    dirs = unit_dirs(np.random.default_rng(0), 200_000)
    basis = sh.eval_basis(dirs, 3)
    gram = 4 * np.pi * basis.T @ basis / dirs.shape[0]
    np.testing.assert_allclose(gram, np.eye(16), atol=5e-2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_basis_jacobian_matches_finite_difference(rng, degree):
    dirs = unit_dirs(rng, 6)
    jac = sh.eval_basis_jacobian(dirs, degree)
    eps = 1e-7
    for axis in range(3):
        dp, dm = dirs.copy(), dirs.copy()
        dp[:, axis] += eps
        dm[:, axis] -= eps
        fd = (sh.eval_basis(dp, degree) - sh.eval_basis(dm, degree)) / (2 * eps)
        np.testing.assert_allclose(jac[:, :, axis], fd, atol=1e-6)


def test_sh_to_color_clamps_at_zero(rng):
    coeffs = np.zeros((3, 4, 3))
    coeffs[:, 0, :] = -10.0  # hugely negative DC -> clamped
    colors, mask = sh.sh_to_color(coeffs, unit_dirs(rng, 3), 1)
    assert np.all(colors == 0.0)
    assert np.all(mask)


def test_sh_to_color_dc_only():
    coeffs = np.zeros((1, 1, 3))
    coeffs[0, 0] = 0.7 / sh._C0
    colors, _ = sh.sh_to_color(coeffs, np.array([[0.0, 0.0, 1.0]]), 0)
    np.testing.assert_allclose(colors[0], 0.7 + 0.5)


def test_sh_backward_gates_clamped_channels(rng):
    coeffs = rng.normal(size=(4, 4, 3))
    dirs = unit_dirs(rng, 4)
    colors, mask = sh.sh_to_color(coeffs, dirs, 1)
    upstream = np.ones((4, 3))
    d_sh, _ = sh.sh_backward(upstream, coeffs, dirs, 1, mask)
    # wherever the colour clamped, the coefficient gradient must vanish
    for n in range(4):
        for c in range(3):
            if mask[n, c]:
                assert np.all(d_sh[n, :, c] == 0.0)


def test_sh_backward_matches_finite_difference(rng):
    coeffs = 0.3 * rng.normal(size=(5, 9, 3)) + 0.2
    dirs = unit_dirs(rng, 5)
    upstream = rng.normal(size=(5, 3))

    def loss(c, d):
        colors, _ = sh.sh_to_color(c, d, 2)
        return np.sum(colors * upstream)

    colors, mask = sh.sh_to_color(coeffs, dirs, 2)
    d_sh, d_dir = sh.sh_backward(upstream, coeffs, dirs, 2, mask)

    eps = 1e-6
    flat = coeffs.reshape(-1)
    gflat = d_sh.reshape(-1)
    for i in np.random.default_rng(0).choice(flat.size, 12, replace=False):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss(coeffs, dirs)
        flat[i] = orig - eps
        lm = loss(coeffs, dirs)
        flat[i] = orig
        assert gflat[i] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


def test_backprop_direction_tangent(rng):
    # dir = offset / |offset|: the position gradient is dL/ddir chained
    # through that normalization, tangent to the unit sphere.
    offsets = rng.normal(size=(8, 3)) * 3.0
    grad = quaternion.backprop_unit(
        rng.normal(size=(8, 3)), *quaternion.unit_and_norm(offsets)
    )
    unit = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    np.testing.assert_allclose(np.sum(grad * unit, axis=1), 0.0, atol=1e-10)


def test_dl_dsh_beyond_active_degree_is_zero(rng):
    coeffs = rng.normal(size=(3, 16, 3))
    dirs = unit_dirs(rng, 3)
    colors, mask = sh.sh_to_color(coeffs, dirs, 1)
    d_sh, _ = sh.sh_backward(np.ones((3, 3)), coeffs, dirs, 1, mask)
    assert np.all(d_sh[:, 4:, :] == 0.0)
