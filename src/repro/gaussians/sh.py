"""Real spherical harmonics for view-dependent Gaussian colour.

3DGS stores per-Gaussian SH coefficients (16 basis functions x 3 channels =
48 floats at degree 3, Table 1 of the paper) and evaluates them along the
camera->Gaussian direction.  We implement the same real SH basis and
constants as the reference implementation, plus analytic derivatives of the
basis with respect to the direction (needed because the view direction
depends on the Gaussian position, so colour gradients flow back into
position).
"""

from __future__ import annotations

import numpy as np


# Basis-function counts per degree: degree d uses (d + 1)^2 functions.
BASIS_PER_DEGREE = {0: 1, 1: 4, 2: 9, 3: 16}
MAX_DEGREE = 3

_C0 = 0.28209479177387814
_C1 = 0.4886025119029199
_C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
_C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)


def num_basis(degree: int) -> int:
    """Number of SH basis functions for ``degree`` (0..3)."""
    if degree not in BASIS_PER_DEGREE:
        raise ValueError(f"SH degree must be 0..3, got {degree}")
    return BASIS_PER_DEGREE[degree]


def eval_basis(dirs: np.ndarray, degree: int) -> np.ndarray:
    """Evaluate the SH basis at unit directions ``(N, 3)`` -> ``(N, K)``."""
    k = num_basis(degree)
    n = dirs.shape[0]
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    basis = np.empty((n, k), dtype=dirs.dtype)
    basis[:, 0] = _C0
    if degree >= 1:
        basis[:, 1] = -_C1 * y
        basis[:, 2] = _C1 * z
        basis[:, 3] = -_C1 * x
    if degree >= 2:
        xx, yy, zz = x * x, y * y, z * z
        basis[:, 4] = _C2[0] * x * y
        basis[:, 5] = _C2[1] * y * z
        basis[:, 6] = _C2[2] * (2 * zz - xx - yy)
        basis[:, 7] = _C2[3] * x * z
        basis[:, 8] = _C2[4] * (xx - yy)
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        basis[:, 9] = _C3[0] * y * (3 * xx - yy)
        basis[:, 10] = _C3[1] * x * y * z
        basis[:, 11] = _C3[2] * y * (4 * zz - xx - yy)
        basis[:, 12] = _C3[3] * z * (2 * zz - 3 * xx - 3 * yy)
        basis[:, 13] = _C3[4] * x * (4 * zz - xx - yy)
        basis[:, 14] = _C3[5] * z * (xx - yy)
        basis[:, 15] = _C3[6] * x * (xx - 3 * yy)
    return basis


def eval_basis_jacobian(dirs: np.ndarray, degree: int) -> np.ndarray:
    """``dY/ddir`` at unit directions: shape ``(N, K, 3)``."""
    k = num_basis(degree)
    n = dirs.shape[0]
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    zero = np.zeros(n, dtype=dirs.dtype)
    jac = np.zeros((n, k, 3), dtype=dirs.dtype)
    if degree >= 1:
        jac[:, 1] = np.stack([zero, np.full(n, -_C1, dirs.dtype), zero], axis=-1)
        jac[:, 2] = np.stack([zero, zero, np.full(n, _C1, dirs.dtype)], axis=-1)
        jac[:, 3] = np.stack([np.full(n, -_C1, dirs.dtype), zero, zero], axis=-1)
    if degree >= 2:
        jac[:, 4] = _C2[0] * np.stack([y, x, zero], axis=-1)
        jac[:, 5] = _C2[1] * np.stack([zero, z, y], axis=-1)
        jac[:, 6] = _C2[2] * np.stack([-2 * x, -2 * y, 4 * z], axis=-1)
        jac[:, 7] = _C2[3] * np.stack([z, zero, x], axis=-1)
        jac[:, 8] = _C2[4] * np.stack([2 * x, -2 * y, zero], axis=-1)
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        jac[:, 9] = _C3[0] * np.stack([6 * x * y, 3 * xx - 3 * yy, zero], axis=-1)
        jac[:, 10] = _C3[1] * np.stack([y * z, x * z, x * y], axis=-1)
        jac[:, 11] = _C3[2] * np.stack(
            [-2 * x * y, 4 * zz - xx - 3 * yy, 8 * y * z], axis=-1
        )
        jac[:, 12] = _C3[3] * np.stack(
            [-6 * x * z, -6 * y * z, 6 * zz - 3 * xx - 3 * yy], axis=-1
        )
        jac[:, 13] = _C3[4] * np.stack(
            [4 * zz - 3 * xx - yy, -2 * x * y, 8 * x * z], axis=-1
        )
        jac[:, 14] = _C3[5] * np.stack([2 * x * z, -2 * y * z, xx - yy], axis=-1)
        jac[:, 15] = _C3[6] * np.stack([3 * xx - 3 * yy, -6 * x * y, zero], axis=-1)
    return jac


def sh_to_color(
    sh_coeffs: np.ndarray, dirs: np.ndarray, degree: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Evaluate colours from SH coefficients.

    Parameters
    ----------
    sh_coeffs:
        ``(N, K, 3)`` coefficients.
    dirs:
        ``(N, 3)`` unit view directions (Gaussian centre minus camera).
    degree:
        Active SH degree (may be lower than the stored degree during the
        warm-up schedule 3DGS uses).

    Returns
    -------
    colors, clamp_mask:
        ``(N, 3)`` colours in [0, inf) and the boolean mask of channels that
        were clamped at zero (used to gate gradients in the backward pass).
    """
    k = num_basis(degree)
    basis = eval_basis(dirs, degree)
    raw = np.einsum("nk,nkc->nc", basis, sh_coeffs[:, :k, :]) + 0.5
    clamp_mask = raw < 0.0
    return np.maximum(raw, 0.0), clamp_mask


def sh_backward(
    dL_dcolor: np.ndarray,
    sh_coeffs: np.ndarray,
    dirs: np.ndarray,
    degree: int,
    clamp_mask: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Backward pass of :func:`sh_to_color`.

    Returns ``(dL_dsh, dL_ddir)`` where ``dL_dsh`` covers the full stored
    coefficient tensor (zeros beyond the active degree) and ``dL_ddir`` is
    the gradient with respect to the *unit* direction.
    """
    k = num_basis(degree)
    gated = np.where(clamp_mask, 0.0, dL_dcolor)
    basis = eval_basis(dirs, degree)
    dL_dsh = np.zeros_like(sh_coeffs)
    dL_dsh[:, :k, :] = basis[:, :, None] * gated[:, None, :]
    jac = eval_basis_jacobian(dirs, degree)
    # dL/ddir = sum_k sum_c gated[c] * sh[k, c] * dY_k/ddir
    coeff_grad = np.einsum("nkc,nc->nk", sh_coeffs[:, :k, :], gated)
    dL_ddir = np.einsum("nk,nkd->nd", coeff_grad, jac)
    return dL_dsh, dL_ddir
