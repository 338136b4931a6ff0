"""Spatial sharding of Gaussian rows across K simulated devices.

Rows are binned through the :class:`repro.gaussians.spatial.CullingGrid`
cells (built once per densification epoch, like the culling accelerator),
walked in the grid's lexicographic cell order, and cut into K contiguous
runs of near-equal row counts.  Contiguity in cell order means each shard
is a compact axis-aligned region of the scene, so a camera's in-frustum
set concentrates on few shards and the *halo* — working-set rows owned by
a peer device — stays a boundary-shell effect rather than a uniform
scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.gaussians.spatial import CullingGrid


@dataclass(frozen=True)
class ShardAssignment:
    """Row -> owning device map for one model epoch.

    ``owner[i]`` is the device id (0..K-1) owning Gaussian row ``i``.  The
    owner is the *only* device whose optimizer updates row ``i``; any other
    device using the row in a working set borrows it as halo.
    """

    num_devices: int
    owner: np.ndarray  # (N,) int64, values in [0, num_devices)

    def __post_init__(self) -> None:
        self.owner.setflags(write=False)

    @property
    def num_rows(self) -> int:
        return int(self.owner.size)

    def rows(self, device: int) -> np.ndarray:
        """Sorted rows owned by ``device``."""
        return np.nonzero(self.owner == device)[0].astype(np.int64)

    def counts(self) -> np.ndarray:
        """Rows per device, length ``num_devices``."""
        return np.bincount(self.owner, minlength=self.num_devices)

    def owned_subset(self, rows: np.ndarray, device: int) -> np.ndarray:
        """The subset of ``rows`` owned by ``device`` (order preserved)."""
        rows = np.asarray(rows, dtype=np.int64)
        return rows[self.owner[rows] == device]


def halo_rows(
    working_set: np.ndarray, assignment: ShardAssignment, device: int
) -> np.ndarray:
    """Rows of ``working_set`` that ``device`` must borrow from peers."""
    working_set = np.asarray(working_set, dtype=np.int64)
    return working_set[assignment.owner[working_set] != device]


def spatial_shard(
    positions: np.ndarray,
    log_scales: np.ndarray,
    quaternions: np.ndarray,
    num_devices: int,
    grid: Optional[CullingGrid] = None,
    target_cells_per_axis: int = 16,
) -> ShardAssignment:
    """Partition rows into K contiguous cell runs of near-equal size.

    ``grid`` reuses an already-built culling grid; otherwise one is built
    from the critical attributes.  Deterministic: the grid stores its cells
    in lexicographic ``(i, j, k)`` coordinate order, and the cut points
    follow cumulative row counts against the ideal ``N/K`` targets.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    n = positions.shape[0]
    owner = np.zeros(n, dtype=np.int64)
    if num_devices == 1 or n == 0:
        return ShardAssignment(num_devices=num_devices, owner=owner)
    if grid is None:
        grid = CullingGrid(
            positions,
            log_scales,
            quaternions,
            target_cells_per_axis=target_cells_per_axis,
        )
    device = 0
    for start, stop in zip(grid.offsets[:-1], grid.offsets[1:]):
        owner[grid.members[start:stop]] = device
        # Advance once the running total (``stop`` rows so far) reaches
        # this device's cumulative quota; never past the last device.
        while (
            device < num_devices - 1
            and stop >= (device + 1) * n / num_devices
        ):
            device += 1
    return ShardAssignment(num_devices=num_devices, owner=owner)


def assign_views(
    sets: Sequence[np.ndarray], assignment: ShardAssignment
) -> List[int]:
    """Home device per view: the one owning the plurality of its
    in-frustum rows (ties and empty sets resolve to the lowest id)."""
    homes: List[int] = []
    for s in sets:
        s = np.asarray(s, dtype=np.int64)
        if s.size == 0:
            homes.append(0)
            continue
        votes = np.bincount(
            assignment.owner[s], minlength=assignment.num_devices
        )
        homes.append(int(np.argmax(votes)))
    return homes
