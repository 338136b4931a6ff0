"""Sparsity statistics (paper §3, Figure 5)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.culling_index import CullingIndex


def sparsity_cdf(index: CullingIndex) -> "tuple[np.ndarray, np.ndarray]":
    """Empirical CDF of per-view sparsity rho (the Figure 5 curves).

    Returns ``(rho_sorted, cumulative_fraction)``.
    """
    rhos = np.sort(index.sparsities())
    if rhos.size == 0:
        return np.zeros(0), np.zeros(0)
    cdf = np.arange(1, rhos.size + 1) / rhos.size
    return rhos, cdf


def sparsity_summary(index: CullingIndex) -> Dict[str, float]:
    """Mean/max/min rho plus percentile markers for reporting."""
    rhos = index.sparsities()
    if rhos.size == 0:
        return {"mean": 0.0, "max": 0.0, "min": 0.0, "p50": 0.0, "p90": 0.0}
    return {
        "mean": float(rhos.mean()),
        "max": float(rhos.max()),
        "min": float(rhos.min()),
        "p50": float(np.percentile(rhos, 50)),
        "p90": float(np.percentile(rhos, 90)),
    }
