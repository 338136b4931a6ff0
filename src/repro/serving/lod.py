"""Level-of-detail culling for render serving.

Training always composites every in-frustum Gaussian — reconstruction
gradients need them all.  Serving does not: a camera far from the scene
receives at most a pixel or two from the smallest splats, so far views
can composite a subset holding only the larger Gaussians.  This module
derives that subset deterministically:

- every Gaussian gets the rotation-independent 3-sigma support radius of
  :func:`repro.gaussians.spatial.max_support_radius`;
- LOD level ``k`` keeps the largest ``keep_fractions[k-1]`` of them (a
  radius-quantile threshold, so the subset is scene-scale invariant);
- a camera's level is chosen by its distance to the model centroid, in
  units of the cloud's bounding radius (``distance_edges``).

Level subsets are sorted index sets, so they compose with the frustum
cull through one :func:`repro.utils.setops.intersect` and flow straight
into the :class:`repro.planning.BatchPlanner` — the plan fingerprint sees
the LOD'd sets and memoizes per (view, level) automatically.

The module also hosts :func:`grid_culling_report`, the grid-vs-linear
frustum-culling comparison previously embedded in
``benchmarks/bench_extension_spatial_culling.py`` — promoted here so the
serving layer and the benchmark share one implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.spatial import CullingGrid, max_support_radius
from repro.utils import setops


@dataclass(frozen=True)
class LodConfig:
    """Distance-bucketed LOD policy.

    ``distance_edges`` are bucket boundaries in units of the cloud's
    bounding radius: a camera closer than ``edges[0]`` radii renders full
    detail (level 0), between ``edges[0]`` and ``edges[1]`` level 1, and
    so on.  ``keep_fractions[k-1]`` is the fraction of Gaussians (largest
    support radius first) level ``k`` composites.
    """

    distance_edges: Tuple[float, ...] = (3.0, 8.0)
    keep_fractions: Tuple[float, ...] = (0.5, 0.25)

    def __post_init__(self) -> None:
        if len(self.distance_edges) != len(self.keep_fractions):
            raise ValueError(
                "distance_edges and keep_fractions must align "
                f"({len(self.distance_edges)} vs {len(self.keep_fractions)})"
            )
        if any(
            a >= b
            for a, b in zip(self.distance_edges, self.distance_edges[1:])
        ):
            raise ValueError("distance_edges must be strictly increasing")
        if any(not (0.0 < f <= 1.0) for f in self.keep_fractions):
            raise ValueError("keep_fractions must be in (0, 1]")

    @property
    def num_levels(self) -> int:
        return len(self.distance_edges) + 1


class LodSelector:
    """Per-camera LOD level selection plus the per-level Gaussian subsets.

    Built once per served model (the subsets only depend on the Gaussian
    scales); queried per request.  Level 0 is the full model and is
    represented as ``None`` so callers skip the intersection entirely.
    """

    def __init__(
        self,
        positions: np.ndarray,
        log_scales: np.ndarray,
        config: Optional[LodConfig] = None,
    ) -> None:
        self.config = config or LodConfig()
        n = positions.shape[0]
        self.num_gaussians = n
        if n == 0:
            self.centroid = np.zeros(3)
            self.bounding_radius = 1.0
            self._subsets: List[Optional[np.ndarray]] = [
                None
            ] * self.config.num_levels
            return
        self.centroid = positions.mean(axis=0)
        self.bounding_radius = max(
            float(np.linalg.norm(positions - self.centroid, axis=1).max()),
            1e-9,
        )
        radii = max_support_radius(log_scales)
        self._subsets = [None]
        for frac in self.config.keep_fractions:
            if frac >= 1.0:
                self._subsets.append(None)
                continue
            threshold = np.quantile(radii, 1.0 - frac)
            subset = np.nonzero(radii >= threshold)[0].astype(np.int64)
            # Quantile ties on degenerate clouds (all radii equal) yield
            # an empty or whole-cloud "subset"; both mean full detail, so
            # store None and skip the per-request intersection.
            self._subsets.append(subset if 0 < subset.size < n else None)

    @property
    def num_levels(self) -> int:
        return self.config.num_levels

    def level_for(self, camera: Camera) -> int:
        """LOD level of ``camera`` by distance to the model centroid."""
        d = float(np.linalg.norm(camera.center - self.centroid))
        edges = np.asarray(self.config.distance_edges) * self.bounding_radius
        return int(np.searchsorted(edges, d, side="right"))

    def subset(self, level: int) -> Optional[np.ndarray]:
        """Sorted Gaussian indices of ``level`` (``None`` = full model)."""
        return self._subsets[level]

    def apply(self, level: int, index_set: np.ndarray) -> np.ndarray:
        """Restrict an in-frustum set to the level's subset."""
        subset = self._subsets[level]
        if subset is None:
            return index_set
        return setops.intersect(index_set, subset)

    def subset_sizes(self) -> Dict[int, int]:
        """``{level: composited-Gaussian budget}`` for reporting."""
        return {
            level: (
                self.num_gaussians if subset is None else int(subset.size)
            )
            for level, subset in enumerate(self._subsets)
        }


def grid_culling_report(
    model,
    cameras: Sequence[Camera],
    target_cells_per_axis: int = 24,
) -> Tuple[List[list], List[float]]:
    """Grid-accelerated vs linear frustum culling, view by view.

    Returns ``(rows, summary)`` where each row is ``[view_id, |S|,
    linear_ms, grid_ms, speedup, exact-tested %]`` and ``summary`` is
    ``[num_gaussians, num_cells, overall_speedup]`` — the §8-extension
    ablation the spatial-culling benchmark reports, exposed as library
    code because the serving layer leans on the same grid per request.

    Exactness is asserted inline: the grid result must equal the linear
    support-test cull on every view.  The linear side is the two-level
    :func:`~repro.gaussians.frustum.cull_gaussians`, so expect an overall
    speedup of ~2x at 50 000 Gaussians and ~3x at 200 000 (it was 16-22x
    and 40-250x against the single-level cull).
    """
    grid = CullingGrid(
        model.positions,
        model.log_scales,
        model.quaternions,
        target_cells_per_axis=target_cells_per_axis,
    )
    rows: List[list] = []
    linear_total = grid_total = 0.0
    for cam in cameras:
        t0 = time.perf_counter()
        linear = cull_gaussians(
            cam, model.positions, model.log_scales, model.quaternions
        )
        t_linear = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = grid.query(cam)
        t_grid = time.perf_counter() - t0
        assert np.array_equal(linear, fast)
        linear_total += t_linear
        grid_total += t_grid
        stats = grid.query_stats(cam)
        rows.append([
            cam.view_id,
            linear.size,
            t_linear * 1e3,
            t_grid * 1e3,
            t_linear / max(t_grid, 1e-9),
            100 * stats["tested"] / model.num_gaussians,
        ])
    summary = [
        model.num_gaussians,
        grid.num_cells,
        linear_total / max(grid_total, 1e-12),
    ]
    return rows, summary
