"""3D covariance construction and EWA projection to screen space.

A Gaussian's shape is parameterized by a log-scale vector ``s`` and a unit
quaternion ``q``.  The world-space covariance is ``Sigma = M M^T`` with
``M = R(q) diag(exp(s))``.  For rasterization the covariance is projected to
a 2D screen-space covariance via the EWA splatting approximation
``Sigma' = J W Sigma W^T J^T`` where ``W`` is the world->camera rotation and
``J`` the Jacobian of the perspective projection, plus the 0.3-pixel
low-pass dilation used by all 3DGS implementations.

Both directions are implemented: forward construction/projection and the
analytic backward pass used by the rasterizer gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians import quaternion

# Screen-space dilation (in pixel^2) applied by 3DGS to guarantee splats
# cover at least ~one pixel; matches the reference implementation.
LOW_PASS_FILTER = 0.3


@dataclass
class GaussianShape:
    """The view-independent geometry of a set of Gaussians: activated
    scales, quaternion norms, unit quaternions and rotation matrices.

    Everything a view derives from ``(log_scales, raw_quats)`` — the world
    covariance, the frustum test's support radii, the covariance backward
    pass — reads these four arrays, so the rasterizer builds them once per
    view and retains them for the backward pass (17 floats a Gaussian).
    """

    scales: np.ndarray  # (N, 3) exp(log_scales)
    quat_norms: np.ndarray  # (N, 1) |raw_quats|, clamped at 1e-12
    unit_quats: np.ndarray  # (N, 4)
    rotations: np.ndarray  # (N, 3, 3)

    @classmethod
    def of(cls, log_scales: np.ndarray, raw_quats: np.ndarray) -> "GaussianShape":
        unit, norms = quaternion.unit_and_norm(raw_quats)
        return cls(
            scales=np.exp(log_scales),
            quat_norms=norms,
            unit_quats=unit,
            rotations=quaternion.to_rotation_matrices(unit),
        )

    def take(self, rows: np.ndarray) -> "GaussianShape":
        """The shape of the Gaussians ``rows``."""
        return GaussianShape(
            self.scales[rows],
            self.quat_norms[rows],
            self.unit_quats[rows],
            self.rotations[rows],
        )

    def covariance(self) -> np.ndarray:
        """World-space covariance ``(N, 3, 3)``: ``M M^T``, ``M = R diag(s)``."""
        m = self.rotations * self.scales[:, None, :]
        return m @ np.swapaxes(m, 1, 2)

    def covariance_backward(
        self, dL_dcov: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Backward of :meth:`covariance`: ``(dL_dlog_scales, dL_draw_quats)``.

        ``dL_dcov`` need not be symmetric; it is symmetrized internally
        because the covariance itself is symmetric.
        """
        scales, rot = self.scales, self.rotations
        m = rot * scales[:, None, :]
        sym = dL_dcov + np.swapaxes(dL_dcov, 1, 2)
        dL_dm = sym @ m  # d(M M^T)/dM contracted with symmetrized upstream grad
        dL_drot = dL_dm * scales[:, None, :]
        dL_dscales = np.einsum("nij,nij->nj", rot, dL_dm)
        dL_dunit = quaternion.backprop_rotation(dL_drot, self.unit_quats)
        dL_draw = quaternion.backprop_unit(
            dL_dunit, self.unit_quats, self.quat_norms
        )
        return dL_dscales * scales, dL_draw


def build_covariance(log_scales: np.ndarray, raw_quats: np.ndarray) -> np.ndarray:
    """World-space covariance ``(N, 3, 3)`` from log-scales and quaternions."""
    return GaussianShape.of(log_scales, raw_quats).covariance()


def perspective_jacobian(
    t_cam: np.ndarray, fx: float, fy: float
) -> np.ndarray:
    """Jacobian ``J`` of the pinhole projection at camera-space points.

    ``t_cam`` has shape ``(N, 3)``; returns ``(N, 2, 3)``.
    """
    tx, ty, tz = t_cam[:, 0], t_cam[:, 1], t_cam[:, 2]
    inv_z = 1.0 / tz
    inv_z2 = inv_z * inv_z
    n = t_cam.shape[0]
    jac = np.zeros((n, 2, 3), dtype=t_cam.dtype)
    jac[:, 0, 0] = fx * inv_z
    jac[:, 0, 2] = -fx * tx * inv_z2
    jac[:, 1, 1] = fy * inv_z
    jac[:, 1, 2] = -fy * ty * inv_z2
    return jac


def project_covariance(
    cov_world: np.ndarray,
    t_cam: np.ndarray,
    world_to_cam_rot: np.ndarray,
    fx: float,
    fy: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """EWA projection of world covariances to 2D screen space.

    Returns ``(cov2d, cov_cam)`` where ``cov2d`` is ``(N, 2, 2)`` (with the
    low-pass dilation applied) and ``cov_cam = W Sigma W^T`` is kept for the
    backward pass.
    """
    w = world_to_cam_rot
    cov_cam = w @ cov_world @ w.T
    jac = perspective_jacobian(t_cam, fx, fy)
    cov2d = jac @ cov_cam @ np.swapaxes(jac, 1, 2)
    cov2d[:, 0, 0] += LOW_PASS_FILTER
    cov2d[:, 1, 1] += LOW_PASS_FILTER
    return cov2d, cov_cam


def project_covariance_backward(
    dL_dcov2d: np.ndarray,
    cov_cam: np.ndarray,
    t_cam: np.ndarray,
    world_to_cam_rot: np.ndarray,
    fx: float,
    fy: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Backward of :func:`project_covariance`.

    Returns ``(dL_dcov_world, dL_dt_cam)``.  The second term captures the
    dependence of the projection Jacobian ``J`` on the camera-space mean,
    which the reference CUDA implementation also propagates.
    """
    w = world_to_cam_rot
    jac = perspective_jacobian(t_cam, fx, fy)
    g = 0.5 * (dL_dcov2d + np.swapaxes(dL_dcov2d, 1, 2))
    # cov2d = J M J^T with M = cov_cam  =>  dL/dM = J^T g J
    dL_dcov_cam = np.swapaxes(jac, 1, 2) @ g @ jac
    # dL/dSigma_world = W^T dL/dM W
    dL_dcov_world = w.T @ dL_dcov_cam @ w
    # dL/dJ = 2 g J M (g and M symmetric)
    dL_djac = 2.0 * (g @ jac @ cov_cam)
    tx, ty, tz = t_cam[:, 0], t_cam[:, 1], t_cam[:, 2]
    inv_z = 1.0 / tz
    inv_z2 = inv_z * inv_z
    inv_z3 = inv_z2 * inv_z
    dL_dt = np.zeros_like(t_cam)
    # Non-zero entries of dJ/dt (see perspective_jacobian):
    # dJ[0,2]/dtx = -fx/tz^2 ; dJ[1,2]/dty = -fy/tz^2
    # dJ[0,0]/dtz = -fx/tz^2 ; dJ[1,1]/dtz = -fy/tz^2
    # dJ[0,2]/dtz = 2 fx tx/tz^3 ; dJ[1,2]/dtz = 2 fy ty/tz^3
    dL_dt[:, 0] = dL_djac[:, 0, 2] * (-fx * inv_z2)
    dL_dt[:, 1] = dL_djac[:, 1, 2] * (-fy * inv_z2)
    dL_dt[:, 2] = (
        dL_djac[:, 0, 0] * (-fx * inv_z2)
        + dL_djac[:, 1, 1] * (-fy * inv_z2)
        + dL_djac[:, 0, 2] * (2 * fx * tx * inv_z3)
        + dL_djac[:, 1, 2] * (2 * fy * ty * inv_z3)
    )
    return dL_dcov_world, dL_dt


def invert_cov2d(cov2d: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Invert 2x2 covariances -> conic matrices.

    Returns ``(conic, determinant)``; Gaussians with non-positive
    determinant are degenerate and should be culled by the caller.
    """
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    safe_det = np.where(det > 0, det, 1.0)
    inv = np.empty_like(cov2d)
    inv[:, 0, 0] = c / safe_det
    inv[:, 0, 1] = -b / safe_det
    inv[:, 1, 0] = -b / safe_det
    inv[:, 1, 1] = a / safe_det
    return inv, det


def invert_cov2d_backward(
    dL_dconic: np.ndarray, conic: np.ndarray
) -> np.ndarray:
    """Backward of matrix inversion: ``dL/dA = -A^{-T} dL/dA^{-1} A^{-T}``."""
    return -(conic @ dL_dconic @ conic)
