"""Spatial acceleration for frustum culling (paper §8, future work).

The paper notes that naive frustum culling iterates over every Gaussian and
"future work could explore integrating spatial acceleration structures,
such as bounding volume hierarchies, to skip non-intersected regions".
This module implements that extension as a uniform spatial grid (the
flat-BVH equivalent that vectorizes well):

- Gaussians are binned by centre into cubic cells;
- each cell keeps an AABB (of centres) and the maximum 3-sigma support
  radius of its members;
- a query classifies whole cells against the frustum planes:

  * **outside** — some plane is farther than ``support`` below every
    corner: the entire cell is skipped with no per-Gaussian work;
  * **inside** — every corner is inside every plane: all members pass
    without per-Gaussian work (a centre inside the frustum always passes
    the support test);
  * **boundary** — the exact per-Gaussian support test runs on members.

The result is *identical* to :func:`repro.gaussians.frustum.cull_gaussians`
under the same ``kernel_backend`` (verified by tests; the boundary pass is
the same :func:`repro.gaussians.frustum.exact_cull` — one kernel op, NumPy
or C — the linear cull ends in), while
touching only the boundary shell of cells for sparse views — exactly the
BigCity regime the paper worries about.

What the grid buys depends on what "linear" costs.  Against the
single-level cull (every row through the exact test) it was 16-22x faster
on the quick-tier 50 000-Gaussian BigCity cloud and 40-250x per view at
200 000.  The linear cull is now two-level — a bounding-sphere GEMM rejects
the same far rows for ~30 ns each — and the grid's margin over it is about
2x at 50 000 Gaussians and 3x at 200 000
(``benchmarks/bench_extension_spatial_culling.py``).  It stays the serving
path's culler because a query also skips the O(N) pass.  Training does not
use it: the grid is built for a fixed snapshot, and a batch's Adam step
moves rows.  Training maintains per-view sets instead
(:class:`repro.core.culling_index.CullingIndex`), re-testing only the rows
the sparse Adam step wrote — exact with no widening, no looseness bound and
no rebuilds, and measured no slower where the grid measured no gain (at
20 000 a 16-cell grid answered 8 ``sparse`` views in 1.1-1.4 ms against
1.2-2.1 ms for the linear cull, plus a 4-5 ms build).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import (
    exact_cull,
    frustum_planes,
    max_support_radius,
)


class CullingGrid:
    """Uniform grid over Gaussian centres for accelerated frustum culling.

    Build once per densification epoch (positions/scales change slowly
    between structure changes); query per camera.  Cells are stored flat,
    in lexicographic ``(i, j, k)`` order: per-cell ``cell_lo``/``cell_hi``
    (AABB of member centres) and ``cell_radius`` (largest member 3-sigma
    bound) arrays, and the members as one CSR pair — the sorted rows of
    cell ``c`` are ``members[offsets[c]:offsets[c + 1]]``.
    """

    def __init__(
        self,
        positions: np.ndarray,
        log_scales: np.ndarray,
        raw_quats: np.ndarray,
        target_cells_per_axis: int = 16,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.positions = positions
        self.log_scales = log_scales
        self.raw_quats = raw_quats
        #: Whose exact test the boundary pass runs (see ``exact_cull``).
        self.kernel_backend = kernel_backend
        n = positions.shape[0]
        self.num_gaussians = n
        self.members = np.empty(0, dtype=np.int64)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.cell_lo = np.empty((0, 3))
        self.cell_hi = np.empty((0, 3))
        self.cell_radius = np.empty(0)
        if n == 0:
            self.cell_size = 1.0
            self.origin = np.zeros(3)
            return
        lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        extent = float(np.max(hi - lo))
        self.cell_size = max(extent / max(target_cells_per_axis, 1), 1e-9)
        self.origin = lo
        coords = np.floor((positions - self.origin) / self.cell_size).astype(
            np.int64
        )
        # lexsort is stable, so members come out sorted within each cell.
        self.members = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        sorted_coords = coords[self.members]
        starts = np.concatenate((
            [0],
            np.nonzero(np.any(np.diff(sorted_coords, axis=0) != 0, axis=1))[0]
            + 1,
        ))
        self.offsets = np.append(starts, n)
        sorted_positions = positions[self.members]
        self.cell_lo = np.minimum.reduceat(sorted_positions, starts, axis=0)
        self.cell_hi = np.maximum.reduceat(sorted_positions, starts, axis=0)
        self.cell_radius = np.maximum.reduceat(
            max_support_radius(log_scales)[self.members], starts
        )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.cell_radius.size

    def _classify(
        self, camera: Camera
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(planes, inside, boundary)``: the camera's frustum planes and
        the masks of cells wholly inside it / needing per-Gaussian tests
        (every other cell is wholly outside)."""
        planes = frustum_planes(camera)
        normals = planes[:, :3]
        # Per plane, signed distance of the farthest/nearest AABB corner:
        # positive normal components take hi for the max, lo for the min.
        pos_n = np.maximum(normals, 0.0).T  # (3, P)
        neg_n = np.minimum(normals, 0.0).T
        max_signed = self.cell_lo @ neg_n + self.cell_hi @ pos_n + planes[:, 3]
        min_signed = self.cell_lo @ pos_n + self.cell_hi @ neg_n + planes[:, 3]
        outside = np.any(max_signed + self.cell_radius[:, None] < 0.0, axis=1)
        inside = np.all(min_signed >= 0.0, axis=1)
        return planes, inside, ~outside & ~inside

    def _members_of(self, cell_mask: np.ndarray) -> np.ndarray:
        """Rows of every cell selected by ``cell_mask``, cell by cell."""
        cells = np.flatnonzero(cell_mask)
        starts = self.offsets[cells]
        counts = self.offsets[cells + 1] - starts
        # Position of each output slot within its cell's member run.
        within = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return self.members[np.repeat(starts, counts) + within]

    def query(self, camera: Camera) -> np.ndarray:
        """In-frustum index set; identical to the linear support-test cull."""
        planes, inside, boundary = self._classify(camera)
        accepted = np.concatenate((
            self._members_of(inside),
            exact_cull(
                planes, self.positions, self.log_scales, self.raw_quats,
                self._members_of(boundary), self.kernel_backend,
            ),
        ))
        accepted.sort()
        return accepted

    def query_stats(self, camera: Camera) -> Dict[str, int]:
        """Cell classification counts (for the §8 ablation benchmark)."""
        _, inside, boundary = self._classify(camera)
        return {
            "outside": int(self.num_cells - inside.sum() - boundary.sum()),
            "inside": int(inside.sum()),
            "boundary": int(boundary.sum()),
            "tested": int(self._members_of(boundary).size),
        }
