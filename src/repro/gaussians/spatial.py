"""Spatial acceleration for frustum culling (paper §8, future work).

The paper notes that naive frustum culling iterates over every Gaussian and
"future work could explore integrating spatial acceleration structures,
such as bounding volume hierarchies, to skip non-intersected regions".
This module implements that extension as a uniform spatial grid (the
flat-BVH equivalent that vectorizes well):

- Gaussians are binned by centre into cubic cells (rows whose centre is
  not finite share one extra cell that no query skips);
- each cell keeps an AABB (of centres), the largest reach bound of its
  members (the 3-sigma bound, inflated by the prefilter's margin so that
  rounding, or two ``exp`` an ulp apart, cannot make it reject a row the
  arbiter accepts), and whether every member's activated scales and
  quaternion are finite;
- a query classifies whole cells against the frustum planes:

  * **outside** — some plane is farther than ``support`` below every
    corner: the entire cell is skipped with no per-Gaussian work;
  * **inside** — every corner is inside every plane and every member is
    finite: all members pass without per-Gaussian work (a finite centre
    inside the frustum always passes the support test; a NaN scale or an
    infinite quaternion can fail it, so such a row's cell is never inside);
  * **boundary** — the exact per-Gaussian support test runs on members.

The grid is one kernel op, ``grid_cull``, resolved when the grid is
constructed: it builds the tables and binds them (:func:`grid_cull` is the
reference: ``_build``, the classification above in NumPy, then
:func:`repro.gaussians.frustum.exact_cull` on the boundary cells'
members).  ``native`` builds them with a counting sort and answers a batch
of views in one C call, whose boundary test is the arbiter its
``exact_cull`` and its renders call, after a bounding-sphere test of each
member of a cell that holds two or more.  The result is *identical* to
:func:`repro.gaussians.frustum.cull_gaussians` under the same
``kernel_backend`` (verified by tests), while touching only the boundary
shell of cells for sparse views — exactly the BigCity regime the paper
worries about.

A grid outlives the rows it was built over: :meth:`CullingGrid.refit`
takes rows whose critical attributes changed, refills their slots and
widens the cells that hold them, so every cell still bounds its members
and a query stays exact.  Membership changes only at a build; a refit that
leaves a cell more than :data:`_MAX_CELL_WIDTH` cells across marks the grid
:attr:`~CullingGrid.bloated`, and its owner builds a new one.  That is how
training culls (:class:`repro.core.culling_index.CullingIndex`): one grid
per engine over its culling arrays, refit to the ~0.1 N rows a sparse Adam
step moves.

What the grid buys depends on what "linear" costs.  Against the
single-level cull (every row through the exact test) it was 16-22x faster
on the quick-tier 50 000-Gaussian BigCity cloud and 40-250x per view at
200 000.  The linear cull is now two-level — a bounding-sphere GEMM rejects
the same far rows for ~30 ns each — and the NumPy grid's margin over it
was about 2x at 50 000 Gaussians and 3x at 200 000.  As one C call the
grid answers a view of those clouds in 0.13-0.19 ms and 0.18-0.49 ms,
where it took 0.70-0.94 ms and 1.07-2.03 ms classifying its cells in
NumPy (``benchmarks/bench_extension_spatial_culling.py``, which reads
16-17x and 32-35x the linear cull), and a served request on
``bench_e2e``'s 1000-Gaussian models in 35-45 us where it took 240-260 us
(one BLAS thread, a 2-vCPU Xeon).  The C walks a copy of the rows in cell
order: at 200 000 rows, walking them in place, scattered through the
model's arrays, took 4x as long.  On ``bench_e2e``'s ``sparse`` training
recipe at 400 000 Gaussians (a flat city: 16 x 16 x 1 cells of ~1 500
rows) a ``clm`` batch culls in 3.2-3.6 ms — ~1 ms of refit and ~2 ms for
the 8 views' query — where re-testing the moved rows through
:func:`~repro.gaussians.frustum.cull_batch` took 9.4 ms; the C build takes
50-75 ms there, about what one fresh ``cull_batch`` of the batch took
(61-67 ms), and 3.5 ms at 20 000.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import (
    _PREFILTER_MARGIN,
    exact_cull,
    frustum_planes,
    max_support_radius,
)

#: A refit that leaves a regular cell more than this many ``cell_size``
#: across on some axis marks the grid :attr:`~CullingGrid.bloated` (a
#: fresh build's cells are at most one across).  Fixed, not a knob: it
#: trades rebuilds against wider boundary shells, never the sets.
_MAX_CELL_WIDTH = 2.0


class GridOps(NamedTuple):
    """What the ``grid_cull`` kernel op binds a grid to."""

    #: ``(V, 6, 4)`` frustum planes to each view's sorted in-frustum rows.
    cull: Callable[[np.ndarray], List[np.ndarray]]
    #: Refit the grid to moved rows; whether a cell is now too wide.
    refit: Callable[[np.ndarray], bool]


class CullingGrid:
    """Uniform grid over Gaussian centres for accelerated frustum culling.

    Cells are stored flat, in lexicographic ``(i, j, k)`` order: per-cell
    ``cell_lo``/``cell_hi`` (AABB of member centres), ``cell_radius``
    (largest member reach bound: the 3-sigma bound inflated by the
    prefilter's margin) and ``cell_finite`` (every member's activated
    scales and quaternion are finite) arrays, and the members as one CSR
    pair — the sorted rows of cell ``c`` are
    ``members[offsets[c]:offsets[c + 1]]``.  Rows whose centre is not
    finite fill one extra cell after the ``regular_cells``, with NaN
    bounds, which every query walks.  ``slots`` maps a row to its place in
    ``members``, and ``block`` holds each slot's 10 critical doubles and
    reach bound in that order.

    The tables are built, and the query is bound to them, by the
    ``grid_cull`` kernel op of ``kernel_backend`` at construction.  From
    then on the three critical arrays may change only in rows handed to
    :meth:`refit`, which widens the cells that hold them.
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
        self.target_cells_per_axis = target_cells_per_axis
        #: Whose cull the query runs (see ``grid_cull``).
        self.kernel_backend = kernel_backend
        n = positions.shape[0]
        self.num_gaussians = n
        #: Set by a :meth:`refit` that left a cell wider than
        #: :data:`_MAX_CELL_WIDTH` cells: still exact, but due a rebuild.
        self.bloated = False
        self.cell_size = 1.0
        self.origin = np.zeros(3)
        self.members = self.offsets = self.slots = self.block = None
        if n == 0:
            self._adopt(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 0)
        from repro.kernels import compile_with_fallback, cull_spec, resolve_backend

        self._ops: GridOps = compile_with_fallback(
            resolve_backend(kernel_backend),
            cull_spec(positions, log_scales, raw_quats, "grid_cull"),
        )[0](self)

    def _build(self) -> None:
        """The reference build (``native`` builds the same tables in C)."""
        positions = self.positions
        centred = np.isfinite(positions).all(axis=1)
        rows = np.flatnonzero(centred)
        members, starts = rows, np.zeros(0, dtype=np.int64)
        if rows.size:
            points = positions[rows]
            lo = points.min(axis=0)
            extent = float(np.max(points.max(axis=0) - lo))
            self.cell_size = max(extent / max(self.target_cells_per_axis, 1), 1e-9)
            self.origin = lo
            coords = np.floor((points - lo) / self.cell_size).astype(np.int64)
            # lexsort is stable, so members come out sorted within each cell.
            order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
            members = rows[order]
            starts = np.concatenate((
                [0],
                np.flatnonzero(np.any(np.diff(coords[order], axis=0) != 0, axis=1))
                + 1,
            ))
        regular = starts.size
        if rows.size < self.num_gaussians:
            members = np.concatenate((members, np.flatnonzero(~centred)))
            starts = np.append(starts, rows.size)
        self._adopt(members, np.append(starts, self.num_gaussians), regular)

    def _adopt(self, members: np.ndarray, offsets: np.ndarray, regular: int) -> None:
        """The tables of the cells ``offsets`` cuts ``members`` into, the
        first ``regular`` of them holding finite centres."""
        self.members, self.offsets, self.regular_cells = members, offsets, regular
        self.slots = np.empty(self.num_gaussians, dtype=np.int64)
        self.slots[members] = np.arange(members.size)
        self.block = _slots_of(self, members)
        starts = offsets[:-1]
        if starts.size == 0:
            self.cell_lo, self.cell_hi = np.empty((0, 3)), np.empty((0, 3))
            self.cell_radius = np.empty(0)
            self.cell_finite = np.empty(0, dtype=bool)
            return
        self.cell_lo = np.minimum.reduceat(self.block[:, :3], starts, axis=0)
        self.cell_hi = np.maximum.reduceat(self.block[:, :3], starts, axis=0)
        self.cell_radius = np.maximum.reduceat(self.block[:, 10], starts)
        # The arbiter's accept path (a centre inside every plane passes) is
        # only taken by rows whose activated scales and quaternion are
        # finite.  A NaN or overflowing scale leaves the radius non-finite
        # (``np.maximum`` keeps NaN); the quaternion is tested here.
        self.cell_finite = np.logical_and.reduceat(_may_accept(self.block), starts)
        for table in (self.cell_lo, self.cell_hi, self.cell_radius):
            table[regular:] = np.nan
        self.cell_finite[regular:] = False

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.cell_radius.size

    def refit(self, rows: np.ndarray) -> None:
        """``rows``' critical attributes have changed: refill their slots
        and widen the cells holding them, so every query stays exact.
        Membership does not change; a cell widened past
        :data:`_MAX_CELL_WIDTH` cells sets :attr:`bloated`."""
        if self._ops.refit(rows):
            self.bloated = True

    def _classify(self, planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(inside, boundary)``: the masks of cells wholly inside the
        frustum ``planes`` bound / needing per-Gaussian tests (every other
        cell is wholly outside)."""
        normals = planes[:, :3]
        # Per plane, signed distance of the farthest/nearest AABB corner:
        # positive normal components take hi for the max, lo for the min.
        pos_n = np.maximum(normals, 0.0).T  # (3, P)
        neg_n = np.minimum(normals, 0.0).T
        max_signed = self.cell_lo @ neg_n + self.cell_hi @ pos_n + planes[:, 3]
        min_signed = self.cell_lo @ pos_n + self.cell_hi @ neg_n + planes[:, 3]
        outside = np.any(max_signed + self.cell_radius[:, None] < 0.0, axis=1)
        # A member with a non-finite scale or quaternion may fail the exact
        # test with its centre inside, so its cell is never wholly inside.
        inside = np.all(min_signed >= 0.0, axis=1) & self.cell_finite
        return inside, ~outside & ~inside

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
        return self._ops.cull(frustum_planes(camera)[None])[0]

    def query_views(self, cameras: Sequence[Camera]) -> List[np.ndarray]:
        """:meth:`query` of every camera, in order, in one op call."""
        if not cameras:
            return []
        return self._ops.cull(np.stack([frustum_planes(c) for c in cameras]))

    def query_stats(self, camera: Camera) -> Dict[str, int]:
        """Cell classification counts (for the §8 ablation benchmark)."""
        inside, boundary = self._classify(frustum_planes(camera))
        return {
            "outside": int(self.num_cells - inside.sum() - boundary.sum()),
            "inside": int(inside.sum()),
            "boundary": int(boundary.sum()),
            "tested": int(self._members_of(boundary).size),
        }


def _slots_of(grid: CullingGrid, rows: np.ndarray) -> np.ndarray:
    """``(len(rows), 11)``: each row's position, log-scales and raw
    quaternion, then its reach bound — the 3-sigma bound inflated by the
    prefilter's margin, which covers the ulps by which the arbiter's reach
    may pass the bound and those by which two ``exp`` may differ."""
    log_scales = np.take(grid.log_scales, rows, axis=0)
    return np.concatenate((
        np.take(grid.positions, rows, axis=0),
        log_scales,
        np.take(grid.raw_quats, rows, axis=0),
        (max_support_radius(log_scales) * (1.0 + _PREFILTER_MARGIN))[:, None],
    ), axis=1)


def _may_accept(slots: np.ndarray) -> np.ndarray:
    """Which slots may take the arbiter's accept path: finite reach bound
    and quaternion."""
    return np.isfinite(slots[:, 10]) & np.isfinite(slots[:, 6:10]).all(axis=1)


def grid_cull(grid: CullingGrid) -> GridOps:
    """The reference ``grid_cull`` kernel op: builds ``grid``'s tables
    (:meth:`CullingGrid._build`) unless it has them, and binds them.  Its
    cull classifies whole cells in NumPy; the members of inside cells are
    taken, and those of boundary cells go to the reference arbiter
    (:func:`~repro.gaussians.frustum.exact_cull` on ``numpy``).  Its refit
    widens the moved rows' cells with ``np.minimum.at`` /
    ``np.maximum.at``."""
    from repro.kernels.numpy_backend import index_rows

    if grid.offsets is None:
        grid._build()

    def cull_one(planes: np.ndarray) -> np.ndarray:
        inside, boundary = grid._classify(planes)
        accepted = np.concatenate((
            grid._members_of(inside),
            exact_cull(
                planes, grid.positions, grid.log_scales, grid.raw_quats,
                grid._members_of(boundary), "numpy",
            ),
        ))
        accepted.sort()
        return accepted

    def cull(planes: np.ndarray) -> List[np.ndarray]:
        planes = np.asarray(planes, dtype=np.float64)
        if planes.ndim != 3 or planes.shape[1:] != (6, 4):
            raise ValueError(f"grid_cull: planes of shape {planes.shape}, not (V, 6, 4)")
        return [cull_one(p) for p in planes]

    def refit(rows: np.ndarray) -> bool:
        rows = index_rows(rows, grid.num_gaussians, "grid_cull refit")
        slots = grid.slots[rows]
        cells = np.searchsorted(grid.offsets, slots, side="right") - 1
        moved = _slots_of(grid, rows)
        grid.block[slots] = moved
        np.minimum.at(grid.cell_lo, cells, moved[:, :3])
        np.maximum.at(grid.cell_hi, cells, moved[:, :3])
        np.maximum.at(grid.cell_radius, cells, moved[:, 10])
        centred = np.isfinite(moved[:, :3]).all(axis=1)
        grid.cell_finite[cells[~(centred & _may_accept(moved))]] = False
        touched = np.unique(cells[cells < grid.regular_cells])
        width = grid.cell_hi[touched] - grid.cell_lo[touched]
        return not np.all(width <= _MAX_CELL_WIDTH * grid.cell_size)

    return GridOps(cull, refit)
