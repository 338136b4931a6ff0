"""Benchmark tiers and the paper-protocol constants shared by every
``benchmarks/bench_*.py`` module.

Two tiers exist (DESIGN.md §5 scaling):

- ``full`` — the scale the paper-shape assertions were calibrated at
  (2e-4 of the paper Gaussian counts, up to 256 views).  This is what
  ``pytest benchmarks`` runs.
- ``quick`` — tiny scales for CI smoke runs (``repro bench run --quick``):
  the same code paths, seconds not minutes, no shape guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenes.datasets import SCENE_SPECS

#: Scene-synthesis seed shared by both tiers so full-tier runs reproduce
#: the calibrated statistics and quick-tier runs are deterministic.
SCENE_SEED = 1

#: Per-scene view counts at the full tier (bicycle's dataset has 200).
BENCH_VIEWS = {
    "bicycle": 200,
    "rubble": 256,
    "alameda": 256,
    "ithaca": 256,
    "bigcity": 256,
}

#: Model sizes (Gaussians) used by the paper's performance figures.
#: "baseline_max" feeds Figure 12, "naive_max" Figures 11/13/14/15 and
#: Tables 5/7 (per §6.3's experimental protocol).
PAPER_MODEL_SIZES = {
    "rtx4090": {
        "baseline_max": {
            "bicycle": 15.4e6, "rubble": 15.3e6, "alameda": 16.2e6,
            "ithaca": 16.4e6, "bigcity": 15.3e6,
        },
        "naive_max": {
            "bicycle": 27.0e6, "rubble": 30.4e6, "alameda": 28.6e6,
            "ithaca": 40.0e6, "bigcity": 46.0e6,
        },
    },
    "rtx2080ti": {
        "baseline_max": {
            "bicycle": 6.5e6, "rubble": 6.5e6, "alameda": 7.1e6,
            "ithaca": 7.2e6, "bigcity": 7.0e6,
        },
        "naive_max": {
            "bicycle": 11.6e6, "rubble": 13.3e6, "alameda": 12.7e6,
            "ithaca": 18.0e6, "bigcity": 20.6e6,
        },
    },
}


@dataclass(frozen=True)
class BenchTier:
    """One execution scale for the whole benchmark suite.

    ``scale`` multiplies the paper Gaussian counts when synthesizing
    scenes; ``max_views`` caps the per-scene view count (never below the
    scene's paper batch size — batch sampling needs that many views);
    ``num_batches``/``comm_batches``/``train_batches`` size the simulated
    runs, the Figure 14 volume averages, and the functional Figure 9
    training respectively; ``spatial_scale``/``spatial_views`` size the
    §8 spatial-culling extension benchmark, which builds its own larger
    cloud.
    """

    name: str
    scale: float
    max_views: int
    num_batches: int
    comm_batches: int
    train_batches: int
    spatial_scale: float
    spatial_views: int

    def views(self, scene_name: str) -> int:
        """View count for ``scene_name`` at this tier."""
        cap = min(self.max_views, BENCH_VIEWS[scene_name])
        return max(cap, SCENE_SPECS[scene_name].batch_size)


QUICK_TIER = BenchTier(
    name="quick",
    scale=6e-5,
    max_views=72,
    num_batches=2,
    comm_batches=2,
    train_batches=6,
    spatial_scale=5e-4,
    spatial_views=4,
)

FULL_TIER = BenchTier(
    name="full",
    scale=2e-4,
    max_views=256,
    num_batches=6,
    comm_batches=8,
    train_batches=18,
    spatial_scale=2e-3,
    spatial_views=8,
)

TIERS = {tier.name: tier for tier in (QUICK_TIER, FULL_TIER)}


def resolve_tier(tier) -> BenchTier:
    """Accept a tier name or a :class:`BenchTier` instance."""
    if isinstance(tier, BenchTier):
        return tier
    try:
        return TIERS[tier]
    except KeyError:
        raise ValueError(
            f"unknown tier '{tier}'; choose from {tuple(TIERS)}"
        ) from None
