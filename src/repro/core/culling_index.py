"""Pre-rendering frustum culling index (paper §5.1 + §3).

Computes and stores, for each camera view, the sorted index set ``S_i`` of
Gaussians intersecting the view frustum — using only the selection-critical
attributes that CLM keeps GPU-resident (§4.1).  Every other CLM component
consumes these sets: the transfer planner (cache intersections), the TSP
scheduler (symmetric differences), the overlapped-Adam planner
(finalization maps) and the memory model (rho statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import cull_batch
from repro.gaussians.model import GaussianModel


@dataclass
class CullingIndex:
    """Per-view in-frustum index sets over a fixed model snapshot."""

    num_gaussians: int
    sets: Dict[int, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: GaussianModel,
        cameras: Sequence[Camera],
    ) -> "CullingIndex":
        """Cull every camera against the model's critical attributes.

        Deliberately takes the three critical arrays through the model but
        never touches ``model.sh`` / ``model.opacity_logits`` — mirroring
        that culling runs before any non-critical attribute is loaded.
        """
        sets = cull_batch(
            cameras, model.positions, model.log_scales, model.quaternions
        )
        return cls(
            num_gaussians=model.num_gaussians,
            sets={cam.view_id: s for cam, s in zip(cameras, sets)},
        )

    @classmethod
    def from_sets(cls, num_gaussians: int, sets: Dict[int, np.ndarray]) -> "CullingIndex":
        return cls(num_gaussians=num_gaussians, sets=dict(sets))

    # ------------------------------------------------------------------
    def set_for(self, view_id: int) -> np.ndarray:
        try:
            return self.sets[view_id]
        except KeyError:
            raise KeyError(f"view {view_id} not in culling index") from None

    def sets_for(self, view_ids: Iterable[int]) -> List[np.ndarray]:
        return [self.set_for(v) for v in view_ids]

    def sparsity(self, view_id: int) -> float:
        """rho_i = |S_i| / N (§3)."""
        if self.num_gaussians == 0:
            return 0.0
        return self.set_for(view_id).size / self.num_gaussians

    def sparsities(self) -> np.ndarray:
        """rho for every indexed view, ordered by view id."""
        ids = sorted(self.sets)
        return np.array([self.sparsity(v) for v in ids])

    def view_ids(self) -> List[int]:
        return sorted(self.sets)

    def mean_set_size(self) -> float:
        if not self.sets:
            return 0.0
        return float(np.mean([s.size for s in self.sets.values()]))

    def max_set_size(self) -> int:
        if not self.sets:
            return 0
        return int(max(s.size for s in self.sets.values()))
