"""Pinhole camera model.

A :class:`Camera` bundles the intrinsics and the world->camera rigid
transform of one posed training image.  The scene datasets
(:mod:`repro.scenes`) generate cameras along synthetic trajectories; the
culling index (:mod:`repro.core.culling_index`) consumes them to compute
per-view in-frustum sets; and the rasterizer renders through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


#: The fields a camera's frustum planes are a function of.
_FRUSTUM_FIELDS = frozenset(
    ("rotation", "center", "fx", "fy", "cx", "cy", "width", "height", "znear", "zfar")
)


@dataclass
class Camera:
    """A posed pinhole camera.

    Attributes
    ----------
    rotation:
        ``(3, 3)`` world->camera rotation ``W``; ``p_cam = W (p - center)``.
    center:
        ``(3,)`` camera centre in world coordinates.
    fx, fy, cx, cy:
        Intrinsics in pixels.
    width, height:
        Image resolution in pixels.
    znear, zfar:
        Clip distances bounding the view frustum.
    view_id:
        Index of this camera within its dataset (used as the microbatch id).

    :func:`repro.gaussians.frustum.frustum_planes` caches its result on the
    camera.  The cache is not a constructor field (``dataclasses.replace``
    starts without it) and assigning any pose, intrinsic or clip field drops
    it, so a moved camera never keeps its old frustum; writing *into*
    ``rotation`` / ``center`` in place is not seen — assign a new array.
    """

    rotation: np.ndarray
    center: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    znear: float = 0.01
    zfar: float = 1000.0
    view_id: int = -1
    _cached_planes: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        if name in _FRUSTUM_FIELDS:
            object.__setattr__(self, "_cached_planes", None)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.rotation.shape != (3, 3):
            raise ValueError("camera rotation must be 3x3")
        if self.center.shape != (3,):
            raise ValueError("camera center must be a 3-vector")
        if self.znear <= 0 or self.zfar <= self.znear:
            raise ValueError("require 0 < znear < zfar")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Transform world points ``(N, 3)`` into camera space."""
        return (points - self.center) @ self.rotation.T

    def forward_axis(self) -> np.ndarray:
        """The camera's viewing direction in world coordinates."""
        return self.rotation[2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors as three scalar expressions: the
    products and differences ``np.cross`` rounds, in its order, so the same
    bits — without its ~40 us of broadcasting a call."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def look_at_camera(
    eye,
    target,
    up=(0.0, 0.0, 1.0),
    fov_y_deg: float = 60.0,
    width: int = 64,
    height: int = 64,
    znear: float = 0.05,
    zfar: float = 1000.0,
    view_id: int = -1,
) -> Camera:
    """Construct a camera at ``eye`` looking toward ``target``.

    Follows the graphics convention of +z forward in camera space.  ``up``
    defaults to world +z (our scenes are z-up).
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    if abs(np.dot(forward, up) / max(np.linalg.norm(up), 1e-12)) > 0.999:
        # Degenerate up vector: pick any perpendicular axis.
        up = (
            np.array([1.0, 0.0, 0.0])
            if abs(forward[0]) < 0.9
            else np.array([0.0, 1.0, 0.0])
        )
    right = _cross(forward, up)
    right = right / np.linalg.norm(right)
    down = _cross(forward, right)
    rotation = np.stack([right, down, forward], axis=0)
    fov_y = math.radians(fov_y_deg)
    fy = height / (2.0 * math.tan(fov_y / 2.0))
    fx = fy  # square pixels; fov_x follows from the aspect ratio
    return Camera(
        rotation=rotation,
        center=eye,
        fx=fx,
        fy=fy,
        cx=width / 2.0,
        cy=height / 2.0,
        width=width,
        height=height,
        znear=znear,
        zfar=zfar,
        view_id=view_id,
    )
