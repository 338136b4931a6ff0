"""Quaternion utilities for Gaussian orientations.

Each 3D Gaussian carries a rotation stored as a raw (unnormalized)
quaternion ``(w, x, y, z)``; the forward pass normalizes it before building
the rotation matrix, exactly as in the reference 3DGS implementation, and
the backward pass chains gradients through both the matrix construction and
the normalization.
"""

from __future__ import annotations

import numpy as np


def unit_and_norm(vectors: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(unit, norms)`` of ``(N, D)`` vectors, the ``(N, 1)`` norms clamped
    at 1e-12 so a zero vector stays zero instead of dividing by zero."""
    norms = np.maximum(np.linalg.norm(vectors, axis=-1, keepdims=True), 1e-12)
    return vectors / norms, norms


def normalize(quats: np.ndarray) -> np.ndarray:
    """Return unit quaternions; input shape ``(N, 4)`` as ``(w, x, y, z)``."""
    return unit_and_norm(quats)[0]


def to_rotation_matrices(quats: np.ndarray) -> np.ndarray:
    """Convert unit quaternions ``(N, 4)`` to rotation matrices ``(N, 3, 3)``.

    The caller is responsible for normalization (see :func:`normalize`);
    this keeps the derivative of each step separable in the backward pass.
    """
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    n = quats.shape[0]
    rot = np.empty((n, 3, 3), dtype=quats.dtype)
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def rotation_matrix_jacobian(quats: np.ndarray) -> np.ndarray:
    """Return ``dR/dq`` with shape ``(N, 4, 3, 3)`` for unit quaternions."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    n = quats.shape[0]
    zeros = np.zeros(n, dtype=quats.dtype)
    jac = np.empty((n, 4, 3, 3), dtype=quats.dtype)
    # dR/dw
    jac[:, 0] = 2 * np.stack(
        [
            np.stack([zeros, -z, y], axis=-1),
            np.stack([z, zeros, -x], axis=-1),
            np.stack([-y, x, zeros], axis=-1),
        ],
        axis=-2,
    )
    # dR/dx
    jac[:, 1] = 2 * np.stack(
        [
            np.stack([zeros, y, z], axis=-1),
            np.stack([y, -2 * x, -w], axis=-1),
            np.stack([z, w, -2 * x], axis=-1),
        ],
        axis=-2,
    )
    # dR/dy
    jac[:, 2] = 2 * np.stack(
        [
            np.stack([-2 * y, x, w], axis=-1),
            np.stack([x, zeros, z], axis=-1),
            np.stack([-w, z, -2 * y], axis=-1),
        ],
        axis=-2,
    )
    # dR/dz
    jac[:, 3] = 2 * np.stack(
        [
            np.stack([-2 * z, -w, x], axis=-1),
            np.stack([w, -2 * z, y], axis=-1),
            np.stack([x, y, zeros], axis=-1),
        ],
        axis=-2,
    )
    return jac


#: ``dR/dq`` is linear in ``q``: ``dR_ij/dq_k = sum_l C[ij, k, l] q_l``.
#: The constant ``C`` as a ``(9, 16)`` matrix, read off
#: :func:`rotation_matrix_jacobian` at the four basis quaternions.
_ROTATION_JACOBIAN_COEFFS = np.ascontiguousarray(
    rotation_matrix_jacobian(np.eye(4)).transpose(2, 3, 1, 0).reshape(9, 16)
)


def backprop_rotation(dL_drot: np.ndarray, unit_quats: np.ndarray) -> np.ndarray:
    """Chain ``dL/dR`` (``(N, 3, 3)``) to ``dL/dq_unit`` (``(N, 4)``).

    The contraction of ``dL/dR`` with :func:`rotation_matrix_jacobian`, in
    closed form: one ``(N, 9) @ (9, 16)`` product against the constant
    coefficients, then one batched ``(4, 4) @ (4,)`` product with ``q`` —
    the ``(N, 4, 3, 3)`` Jacobian is never built.
    """
    n = unit_quats.shape[0]
    per_quat = dL_drot.reshape(n, 9) @ _ROTATION_JACOBIAN_COEFFS
    return np.einsum("nkl,nl->nk", per_quat.reshape(n, 4, 4), unit_quats)


def backprop_unit(
    dL_dunit: np.ndarray, unit: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """Chain gradients through ``(unit, norms) = unit_and_norm(v)``.

    ``d unit / d v = (I - u u^T) / |v|``, so the raw gradient is the unit
    gradient projected onto the tangent space of the unit sphere and
    rescaled.
    """
    inner = np.sum(dL_dunit * unit, axis=-1, keepdims=True)
    return (dL_dunit - unit * inner) / norms
