"""Sparsity CDFs (Figure 5 machinery)."""

import numpy as np
import pytest

from repro.analysis.sparsity import sparsity_cdf, sparsity_summary
from repro.core.culling_index import CullingIndex


def index_from_rhos(rhos, n=1000):
    sets = {
        i: np.arange(int(round(r * n)), dtype=np.int64)
        for i, r in enumerate(rhos)
    }
    return CullingIndex.from_sets(n, sets)


def test_cdf_monotone_and_normalized():
    index = index_from_rhos([0.1, 0.3, 0.2, 0.05])
    rhos, cdf = sparsity_cdf(index)
    assert np.all(np.diff(rhos) >= 0)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0)
    assert cdf[0] == pytest.approx(0.25)


def test_cdf_empty_index():
    rhos, cdf = sparsity_cdf(CullingIndex.from_sets(10, {}))
    assert rhos.size == 0 and cdf.size == 0


def test_summary_statistics():
    index = index_from_rhos([0.1, 0.2, 0.3, 0.4])
    s = sparsity_summary(index)
    assert s["mean"] == pytest.approx(0.25)
    assert s["max"] == pytest.approx(0.4)
    assert s["min"] == pytest.approx(0.1)
    assert s["p50"] == pytest.approx(0.25)


def test_summary_empty():
    s = sparsity_summary(CullingIndex.from_sets(10, {}))
    assert s["mean"] == 0.0


def test_scale_invariance(scene_cache):
    """rho statistics are (approximately) invariant to the Gaussian-count
    scale — the property DESIGN.md §5 leans on to run paper-scale
    experiments from scaled scenes."""
    from repro.core.culling_index import CullingIndex

    small = scene_cache("rubble", 5e-5, 24)
    large = scene_cache("rubble", 2e-4, 24)
    rho_small = CullingIndex.build(small.model, small.cameras).sparsities()
    rho_large = CullingIndex.build(large.model, large.cameras).sparsities()
    assert rho_small.mean() == pytest.approx(rho_large.mean(), rel=0.25)
