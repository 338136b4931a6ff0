"""Pre-rendering frustum culling index (paper §5.1 + §3).

Holds, for each camera view, the sorted index set ``S_i`` of Gaussians
intersecting the view frustum — computed from the selection-critical
attributes that CLM keeps GPU-resident (§4.1).  Every other CLM component
consumes these sets: the transfer planner (cache intersections), the TSP
scheduler (symmetric differences), the overlapped-Adam planner
(finalization maps) and the memory model (rho statistics).

An index is used two ways:

- :meth:`CullingIndex.build` culls every camera once over a model snapshot
  (the simulator, the CLI, :mod:`repro.core.memory_model`);
- a training engine keeps one across batches and calls
  :meth:`CullingIndex.refresh` with the batch's cameras.  CLM's Adam is
  sparse — a batch writes only the critical rows of its touched union —
  and a row's verdict depends on that row's bits alone
  (:func:`repro.gaussians.frustum.exact_cull`), so a view culled before
  needs only the rows written since re-tested.  The engine reports each
  write through :meth:`CullingIndex.moved`; the refreshed sets are those
  of a fresh :func:`~repro.gaussians.frustum.cull_batch`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import cull_batch, frustum_planes
from repro.gaussians.model import GaussianModel

#: A refresh whose moved rows are at least this share of the model culls
#: every row instead: re-testing a subset that large costs a gather on top
#: of the same scan.  (``dense`` training touches ~all rows every batch and
#: takes this path each time.)  Fixed, not a knob: it moves only cost.
FULL_CULL_SHARE = 0.5


@dataclass
class CullingIndex:
    """Per-view in-frustum index sets.

    ``sets`` maps a view id to its sorted set.  An index that
    :meth:`refresh` maintains also records, per view, the
    :func:`~repro.gaussians.frustum.frustum_planes` array its set was
    culled under and the :attr:`tick` at that moment (``culled_under``),
    and per row the tick of the last :meth:`moved` report that wrote it
    (``row_ticks``).  It is host-side bookkeeping: 8 bytes a row plus the
    sets, never charged to the simulated GPU pool.
    """

    num_gaussians: int
    sets: Dict[int, np.ndarray] = field(default_factory=dict)
    culled_under: Dict[int, Tuple[np.ndarray, int]] = field(
        default_factory=dict
    )
    row_ticks: Optional[np.ndarray] = None
    tick: int = 0
    #: The three culling arrays and the kernel backend the held sets were
    #: culled over; another array object or backend resets the index.
    _culled_over: Tuple = field(default=(), repr=False)

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
        """Forget every held set: the next :meth:`refresh` culls fresh.
        For writers that replace the critical rows in place (a checkpoint
        restore, a recovery snapshot)."""
        self.sets.clear()
        self.culled_under.clear()
        self.row_ticks = None
        self._culled_over = ()

    def moved(self, rows: np.ndarray) -> None:
        """Record that an optimizer step has written ``rows``' critical
        attributes (after any :meth:`refresh` of the batch)."""
        if self.row_ticks is not None:
            self.tick += 1
            self.row_ticks[rows] = self.tick

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
        kernel_backend)``, from as few re-tested rows as the held sets
        allow.

        A view is re-culled whole when it is new or its planes are not the
        array ``frustum_planes`` returns now (the camera drops that cache
        when a field is assigned).  The others keep the rows of their set
        that no :meth:`moved` report has written since they were culled,
        and re-test only the written rows — in one ``cull_batch(rows=)``
        call for all of them, unless those rows are
        :data:`FULL_CULL_SHARE` of the model or more.  Callers must not
        write to the returned arrays: the index holds them.
        """
        cameras = list(cameras)
        arrays = (positions, log_scales, raw_quats)
        if (
            not self._culled_over
            or self._culled_over[3] != kernel_backend
            or any(a is not b for a, b in zip(arrays, self._culled_over))
        ):
            self.reset()
            self._culled_over = (*arrays, kernel_backend)
            self.num_gaussians = positions.shape[0]
            self.row_ticks = np.zeros(self.num_gaussians, dtype=np.int64)
        planes = [frustum_planes(cam) for cam in cameras]
        held = [self.culled_under.get(cam.view_id) for cam in cameras]
        known = [
            k for k, (p, h) in enumerate(zip(planes, held))
            if h is not None and h[0] is p
        ]
        out: List[Optional[np.ndarray]] = [None] * len(cameras)
        if known:
            moved = self.row_ticks > min(held[k][1] for k in known)
            if np.count_nonzero(moved) < FULL_CULL_SHARE * self.num_gaussians:
                accepted = cull_batch(
                    [cameras[k] for k in known],
                    positions, log_scales, raw_quats,
                    kernel_backend=kernel_backend, rows=np.flatnonzero(moved),
                )
                for k, new in zip(known, accepted):
                    old = self.sets[cameras[k].view_id]
                    out[k] = np.sort(np.concatenate((old[~moved[old]], new)))
        fresh = [k for k, s in enumerate(out) if s is None]
        if fresh:
            culled = cull_batch(
                [cameras[k] for k in fresh],
                positions, log_scales, raw_quats,
                kernel_backend=kernel_backend,
            )
            for k, s in zip(fresh, culled):
                out[k] = s
        for cam, p, s in zip(cameras, planes, out):
            self.sets[cam.view_id] = s
            self.culled_under[cam.view_id] = (p, self.tick)
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

    def mean_set_size(self) -> float:
        if not self.sets:
            return 0.0
        return float(np.mean([s.size for s in self.sets.values()]))

    def max_set_size(self) -> int:
        if not self.sets:
            return 0
        return int(max(s.size for s in self.sets.values()))
