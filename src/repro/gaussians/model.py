"""The Gaussian scene representation.

:class:`GaussianModel` is a structure-of-arrays parameter store for ``N``
anisotropic 3D Gaussians.  Per Table 1 of the paper, each Gaussian has 59
learnable parameters across four attribute groups:

==================  ======  =========================================
attribute           floats  role
==================  ======  =========================================
position            3       world-space mean
scale (log)         3       per-axis extent (exp activation)
rotation            4       unit quaternion (normalized in forward)
spherical harmonics 48      view-dependent colour (16 basis x RGB)
opacity (logit)     1       sigmoid activation
==================  ======  =========================================

During training each parameter carries four 4-byte floats (value, gradient,
two Adam moments), which is the ``N x 59 x 4 x 4`` bytes memory-demand
formula of §2.2 that the memory model (:mod:`repro.core.memory_model`)
reuses.

The model may be built with a lower *stored* SH degree to keep the NumPy
compute tractable at test scale; memory accounting always uses the
canonical 59 floats so that paper-scale experiments are faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.gaussians import sh as sh_module
from repro.utils.rng import SeedLike, make_rng

#: Canonical parameter count per Gaussian (paper Table 1).
PARAMS_PER_GAUSSIAN = 59
#: Bytes per parameter during training: value + grad + 2 Adam moments.
TRAIN_FLOATS_PER_PARAM = 4
BYTES_PER_FLOAT = 4

PARAMETER_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inverse_sigmoid(y: np.ndarray) -> np.ndarray:
    """Logit; the inverse activation used when initializing opacity."""
    y = np.clip(y, 1e-7, 1.0 - 1e-7)
    return np.log(y / (1.0 - y))


@dataclass
class GaussianModel:
    """SoA parameter store for a 3DGS scene.

    All arrays are float64 for numerical fidelity of the NumPy gradient
    checks; the *accounting* of GPU/CPU memory assumes the 4-byte floats the
    paper's CUDA implementation uses (see :meth:`training_state_bytes`).
    """

    positions: np.ndarray  # (N, 3)
    log_scales: np.ndarray  # (N, 3)
    quaternions: np.ndarray  # (N, 4) raw (w, x, y, z)
    sh: np.ndarray  # (N, K, 3)
    opacity_logits: np.ndarray  # (N,)
    sh_degree: int = 3

    def __post_init__(self) -> None:
        n = self.positions.shape[0]
        expected_k = sh_module.num_basis(self.sh_degree)
        if self.log_scales.shape != (n, 3):
            raise ValueError("log_scales must be (N, 3)")
        if self.quaternions.shape != (n, 4):
            raise ValueError("quaternions must be (N, 4)")
        if self.sh.shape != (n, expected_k, 3):
            raise ValueError(
                f"sh must be (N, {expected_k}, 3) for degree {self.sh_degree}"
            )
        if self.opacity_logits.shape != (n,):
            raise ValueError("opacity_logits must be (N,)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        num_gaussians: int,
        extent: float = 1.0,
        sh_degree: int = 3,
        seed: SeedLike = None,
    ) -> "GaussianModel":
        """Random initialization inside a cube of half-width ``extent``."""
        rng = make_rng(seed)
        k = sh_module.num_basis(sh_degree)
        positions = rng.uniform(-extent, extent, size=(num_gaussians, 3))
        # Log-scales sized so a typical Gaussian covers a few pixels at the
        # working distances our scenes use.
        log_scales = np.log(
            rng.uniform(0.02, 0.08, size=(num_gaussians, 3)) * max(extent, 1e-6)
        )
        quaternions = rng.normal(size=(num_gaussians, 4))
        quaternions /= np.linalg.norm(quaternions, axis=1, keepdims=True)
        sh = np.zeros((num_gaussians, k, 3))
        sh[:, 0, :] = rng.uniform(-1.0, 1.0, size=(num_gaussians, 3))
        if k > 1:
            sh[:, 1:, :] = 0.1 * rng.normal(size=(num_gaussians, k - 1, 3))
        opacity = inverse_sigmoid(
            rng.uniform(0.3, 0.9, size=num_gaussians)
        )
        return cls(positions, log_scales, quaternions, sh, opacity, sh_degree)

    @classmethod
    def from_point_cloud(
        cls,
        points: np.ndarray,
        colors: Optional[np.ndarray] = None,
        sh_degree: int = 3,
        initial_opacity: float = 0.5,
        seed: SeedLike = None,
    ) -> "GaussianModel":
        """Initialize from a point cloud, the COLMAP-style path of §2.1.

        Initial scales follow the reference heuristic: the distance to each
        point's nearest neighbours sets the isotropic starting extent.
        """
        rng = make_rng(seed)
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        k = sh_module.num_basis(sh_degree)
        nn = _mean_nearest_neighbor_distance(points)
        log_scales = np.tile(np.log(np.maximum(nn, 1e-7))[:, None], (1, 3))
        quaternions = np.zeros((n, 4))
        quaternions[:, 0] = 1.0
        sh = np.zeros((n, k, 3))
        if colors is not None:
            colors = np.asarray(colors, dtype=np.float64)
            sh[:, 0, :] = (colors - 0.5) / sh_module._C0
        else:
            sh[:, 0, :] = rng.uniform(-0.5, 0.5, size=(n, 3))
        opacity = inverse_sigmoid(np.full(n, initial_opacity))
        return cls(points.copy(), log_scales, quaternions, sh, opacity, sh_degree)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_gaussians(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_sh_basis(self) -> int:
        return int(self.sh.shape[1])

    def opacities(self) -> np.ndarray:
        """Activated opacities in (0, 1)."""
        return sigmoid(self.opacity_logits)

    def scales(self) -> np.ndarray:
        """Activated (positive) scales."""
        return np.exp(self.log_scales)

    def parameters(self) -> Dict[str, np.ndarray]:
        """Name -> array view of every learnable tensor."""
        return {
            "positions": self.positions,
            "log_scales": self.log_scales,
            "quaternions": self.quaternions,
            "sh": self.sh,
            "opacity_logits": self.opacity_logits,
        }

    def zero_gradients(self) -> Dict[str, np.ndarray]:
        """A fresh gradient dict matching :meth:`parameters` shapes."""
        return {name: np.zeros_like(arr) for name, arr in self.parameters().items()}

    def training_state_bytes(self) -> int:
        """Canonical training memory of the model state (paper §2.2).

        ``N x 59 params x 4 floats x 4 bytes`` regardless of the stored SH
        degree, so scaled-down functional models report paper-faithful
        memory numbers.
        """
        return (
            self.num_gaussians
            * PARAMS_PER_GAUSSIAN
            * TRAIN_FLOATS_PER_PARAM
            * BYTES_PER_FLOAT
        )

    # ------------------------------------------------------------------
    # Structural ops
    # ------------------------------------------------------------------
    def gather(self, indices: np.ndarray) -> "GaussianModel":
        """A new model containing only ``indices`` (used by working sets):
        each array gathered once, into a C-contiguous array of its own."""
        return GaussianModel(
            *(np.take(arr, indices, axis=0) for arr in self.parameters().values()),
            self.sh_degree,
        )

    def clone(self) -> "GaussianModel":
        return self.gather(np.arange(self.num_gaussians))

    def extend(self, other: "GaussianModel") -> "GaussianModel":
        """Concatenate two models (densification grows the scene this way)."""
        if other.sh_degree != self.sh_degree:
            raise ValueError("cannot extend models with different SH degrees")
        return GaussianModel(
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.log_scales, other.log_scales]),
            np.concatenate([self.quaternions, other.quaternions]),
            np.concatenate([self.sh, other.sh]),
            np.concatenate([self.opacity_logits, other.opacity_logits]),
            self.sh_degree,
        )

    def keep(self, mask: np.ndarray) -> "GaussianModel":
        """Filter by boolean mask (pruning)."""
        idx = np.nonzero(np.asarray(mask))[0]
        return self.gather(idx)


def _mean_nearest_neighbor_distance(points: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest other point.

    Uses a cKDTree when available (scipy is a hard dependency) which keeps
    point-cloud initialization fast for the larger synthetic scenes.
    """
    from scipy.spatial import cKDTree

    if points.shape[0] < 2:
        return np.full(points.shape[0], 0.01)
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=2)
    return np.maximum(dists[:, 1], 1e-7)
