"""Attribute-wise offload schema (paper §4.1).

Frustum culling needs only position, scale and rotation — 10 of the 59
floats per Gaussian — so CLM keeps those *selection-critical* attributes
resident in GPU memory and offloads the other 49 (*non-critical*: spherical
harmonics and opacity) to pinned CPU memory.

This module is the single source of truth for that split: float counts,
byte sizes, the mapping onto :class:`~repro.gaussians.model.GaussianModel`
parameter names, and the padded row layout the selective loading kernel
uses (§5.2: attributes of one Gaussian are concatenated and cache-line
aligned in pinned memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

BYTES_PER_FLOAT = 4
CACHE_LINE_BYTES = 64
CACHE_LINE_FLOATS = CACHE_LINE_BYTES // BYTES_PER_FLOAT


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute group of a Gaussian."""

    name: str  # GaussianModel parameter name
    floats: int
    selection_critical: bool


#: Table 1 of the paper, annotated with the §4.1 split.
ATTRIBUTE_SCHEMA: Tuple[AttributeSpec, ...] = (
    AttributeSpec("positions", 3, selection_critical=True),
    AttributeSpec("log_scales", 3, selection_critical=True),
    AttributeSpec("quaternions", 4, selection_critical=True),
    AttributeSpec("sh", 48, selection_critical=False),
    AttributeSpec("opacity_logits", 1, selection_critical=False),
)

CRITICAL_NAMES: Tuple[str, ...] = tuple(
    a.name for a in ATTRIBUTE_SCHEMA if a.selection_critical
)
NONCRITICAL_NAMES: Tuple[str, ...] = tuple(
    a.name for a in ATTRIBUTE_SCHEMA if not a.selection_critical
)


def total_floats() -> int:
    """59 — every learnable float of one Gaussian."""
    return sum(a.floats for a in ATTRIBUTE_SCHEMA)


def critical_floats() -> int:
    """10 — floats that stay GPU-resident (<20% of the footprint, §4.1)."""
    return sum(a.floats for a in ATTRIBUTE_SCHEMA if a.selection_critical)


def noncritical_floats() -> int:
    """49 — floats offloaded to pinned CPU memory."""
    return total_floats() - critical_floats()


def padded_row_floats(floats: int = None) -> int:
    """Floats per Gaussian row after cache-line padding (§5.2).

    49 non-critical floats pad to 64 (4 cache lines), so each Gaussian's
    offloaded attributes occupy whole cache lines and DMA gathers never
    split lines.
    """
    n = noncritical_floats() if floats is None else floats
    lines = (n + CACHE_LINE_FLOATS - 1) // CACHE_LINE_FLOATS
    return lines * CACHE_LINE_FLOATS


def critical_bytes(num_gaussians: float) -> float:
    return num_gaussians * critical_floats() * BYTES_PER_FLOAT


def noncritical_bytes(num_gaussians: float) -> float:
    return num_gaussians * noncritical_floats() * BYTES_PER_FLOAT
