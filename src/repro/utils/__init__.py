"""Shared utilities: seeded RNG helpers and sorted-index set algebra."""

from repro.utils.rng import make_rng
from repro.utils.setops import intersect, is_sorted_unique

__all__ = ["make_rng", "intersect", "is_sorted_unique"]
