"""Pre-rendering frustum culling index (paper §5.1 + §3).

Holds, for each camera view, the sorted index set ``S_i`` of Gaussians
intersecting the view frustum — computed from the selection-critical
attributes that CLM keeps GPU-resident (§4.1).  Every other CLM component
consumes these sets: the transfer planner (cache intersections), the TSP
scheduler (symmetric differences), the overlapped-Adam planner
(finalization maps) and the memory model (rho statistics).

An index is used two ways:

- :meth:`CullingIndex.build` culls every camera once over a model snapshot
  (the simulator, the CLI, :mod:`repro.core.memory_model`), through
  :func:`~repro.gaussians.frustum.cull_batch`;
- a training engine keeps one across batches and calls
  :meth:`CullingIndex.refresh` with the batch's cameras.  It answers them
  from one :class:`~repro.gaussians.spatial.CullingGrid` over the engine's
  culling arrays (paper §8's spatial structure), built once per array set
  and queried for the whole batch in one ``grid_cull`` call.  An Adam step
  writes only the critical rows of its touched union and reports them
  (:meth:`CullingIndex.moved`); the next refresh refits the grid to those
  rows instead of rebuilding it, widening the cells that hold them, and
  rebuilds only when a refit left a cell too wide.  A query of a refit grid
  puts every row it does not skip to the same arbiter as
  :func:`~repro.gaussians.frustum.cull_batch`, so the sets are a fresh
  cull's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import cull_batch
from repro.gaussians.model import GaussianModel
from repro.gaussians.spatial import CullingGrid


@dataclass
class CullingIndex:
    """Per-view in-frustum index sets.

    ``sets`` maps a view id to its sorted set.  An index that
    :meth:`refresh` maintains also holds the grid it culls through and the
    rows :meth:`moved` reported since the grid was last refit.  It is
    host-side bookkeeping — the grid's 11 doubles and two int64 a row plus
    the sets — never charged to the simulated GPU pool.
    """

    num_gaussians: int
    sets: Dict[int, np.ndarray] = field(default_factory=dict)
    _grid: Optional[CullingGrid] = field(default=None, repr=False)
    _moved: List[np.ndarray] = field(default_factory=list, repr=False)

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

    # -- maintained across training batches ----------------------------
    def reset(self) -> None:
        """Forget every held set and the grid: the next :meth:`refresh`
        builds afresh.  For writers that replace the critical rows in place
        (a checkpoint restore, a recovery snapshot)."""
        self.sets.clear()
        self._grid = None
        self._moved.clear()

    def moved(self, rows: np.ndarray) -> None:
        """Record that an optimizer step has written ``rows``' critical
        attributes (after any :meth:`refresh` of the batch); the next
        refresh refits the grid to them.  Callers must not write to
        ``rows`` afterwards."""
        if self._grid is not None:
            self._moved.append(rows)

    def refresh(
        self,
        cameras: Sequence[Camera],
        positions: np.ndarray,
        log_scales: np.ndarray,
        raw_quats: np.ndarray,
        kernel_backend: Optional[str] = None,
    ) -> List[np.ndarray]:
        """The sorted in-frustum set of every camera, in order — equal to
        ``cull_batch(cameras, positions, log_scales, raw_quats,
        kernel_backend)``.

        The grid is built when there is none or it was built over other
        array objects or another backend, refit to the rows reported
        since the last refresh otherwise, and rebuilt when that refit left
        it :attr:`~repro.gaussians.spatial.CullingGrid.bloated`.  Callers
        must not write to the returned arrays: the index holds them.
        """
        arrays = (positions, log_scales, raw_quats)
        grid = self._grid
        if grid is not None and (
            grid.kernel_backend != kernel_backend
            or any(
                a is not b
                for a, b in zip(arrays, (grid.positions, grid.log_scales, grid.raw_quats))
            )
        ):
            self.reset()
            grid = None
        if grid is not None and self._moved:
            grid.refit(np.concatenate(self._moved))
            self._moved.clear()
        if grid is None or grid.bloated:
            grid = self._grid = CullingGrid(*arrays, kernel_backend=kernel_backend)
            self.num_gaussians = positions.shape[0]
        out = grid.query_views(list(cameras))
        for cam, s in zip(cameras, out):
            self.sets[cam.view_id] = s
        return out

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
