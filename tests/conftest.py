"""Shared fixtures.

Session-scoped scene/model fixtures keep the suite fast: building synthetic
scenes and rendering ground-truth images dominates runtime, so tests share
read-only instances and clone before mutating.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from legacy_cull import single_level_cull

from repro.core.culling_index import CullingIndex
from repro.gaussians import rasterizer
from repro.gaussians.camera import look_at_camera
from repro.gaussians.model import GaussianModel
from repro.scenes.datasets import build_scene
from repro.scenes.images import make_trainable_scene


@pytest.fixture(scope="session")
def tiny_model():
    """40 random Gaussians in a small cube (read-only)."""
    return GaussianModel.random(40, extent=0.5, sh_degree=2, seed=11)


@pytest.fixture(scope="session")
def tiny_camera():
    return look_at_camera(
        eye=(0.0, -2.5, 0.6), target=(0.0, 0.0, 0.0), width=48, height=40, view_id=0
    )


@pytest.fixture(scope="session")
def trainable_scene():
    """A small fit-able scene with ground-truth images (read-only)."""
    return make_trainable_scene(
        reference_gaussians=150, num_views=10, image_size=(32, 24), seed=5
    )


@pytest.fixture(scope="session")
def scene_cache():
    """Lazily built scaled scenes keyed by (name, scale, views, seed)."""
    cache = {}

    def get(name, scale=1e-4, num_views=48, seed=3):
        key = (name, scale, num_views, seed)
        if key not in cache:
            cache[key] = build_scene(
                name, scale=scale, num_views=num_views, seed=seed
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def index_cache(scene_cache):
    """Culling indexes over cached scenes."""
    cache = {}

    def get(name, scale=1e-4, num_views=48, seed=3):
        key = (name, scale, num_views, seed)
        if key not in cache:
            scene = scene_cache(name, scale, num_views, seed)
            cache[key] = (
                scene,
                CullingIndex.build(scene.model, scene.cameras),
            )
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@contextmanager
def _slab_tiles(tiles):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rasterizer, "_MAX_GROUP_TILES", tiles)
        yield


@pytest.fixture(scope="session")
def slab_tiles():
    """``with slab_tiles(n):`` caps the NumPy reference's slabs at ``n``
    tiles (``rasterizer._MAX_GROUP_TILES``, 256) inside the block, so a
    small render still spans several slabs.  A context manager, not a
    setter, so a Hypothesis example can narrow its own slabs."""
    return _slab_tiles


@pytest.fixture(scope="session")
def cull_oracle():
    """The cull before the prefilter (``tests/reference/legacy_cull.py``)."""
    return single_level_cull


class PlannerOracle:
    """The planner's set algebra as it was before it became linear in what a
    batch touches: four sorting set operations a microbatch, B chained
    unions, and finalization chunks found by scanning ``num_gaussians`` once
    per microbatch (O(B·N)).

    Test-only oracle, spelled out here rather than imported: every array of
    every :class:`repro.planning.BatchPlan` must stay ``np.array_equal`` to
    these.
    """

    @staticmethod
    def transfer_sets(sets, enable_cache=True):
        """``(loads, cached, stores, carried)`` per microbatch."""
        empty = np.empty(0, dtype=np.int64)
        out = []
        for i, current in enumerate(sets):
            prev_set = sets[i - 1] if enable_cache and i > 0 else empty
            next_set = sets[i + 1] if enable_cache and i + 1 < len(sets) else empty
            out.append((
                np.setdiff1d(current, prev_set, assume_unique=True),
                np.intersect1d(current, prev_set, assume_unique=True),
                np.setdiff1d(current, next_set, assume_unique=True),
                np.intersect1d(current, next_set, assume_unique=True),
            ))
        return out

    @staticmethod
    def touched_union(sets):
        out = np.empty(0, dtype=np.int64)
        for s in sets:
            out = np.union1d(out, s)
        return out

    @staticmethod
    def finalization_positions(sets, num_gaussians):
        last = np.zeros(num_gaussians, dtype=np.int64)
        for position, s in enumerate(sets, start=1):
            last[s] = position
        return last

    @classmethod
    def adam_chunks(cls, sets, num_gaussians):
        last = cls.finalization_positions(sets, num_gaussians)
        return [
            np.nonzero(last == position)[0].astype(np.int64)
            for position in range(1, len(sets) + 1)
        ]


@pytest.fixture(scope="session")
def planner_oracle():
    return PlannerOracle


def scipy_ssim_with_grad(rendered, target, window_size=11, sigma=1.5):
    """SSIM and its gradient as :mod:`repro.gaussians.loss` computed them
    before the banded-GEMM filter: ten ``scipy.ndimage.convolve1d`` passes
    per image, zero padded.

    Test-only oracle, spelled out here rather than imported so a change to
    the product code cannot move both sides.  Returns ``(value, grad)``.
    """
    from scipy.ndimage import convolve1d

    xs = np.arange(window_size) - (window_size - 1) / 2.0
    window = np.exp(-(xs**2) / (2 * sigma**2))
    window /= window.sum()

    def filt(img):
        out = convolve1d(img, window, axis=0, mode="constant", cval=0.0)
        return convolve1d(out, window, axis=1, mode="constant", cval=0.0)

    c1, c2 = 0.01**2, 0.03**2
    x, y = rendered, target
    ux, uy, uxx, uyy, uxy = filt(x), filt(y), filt(x * x), filt(y * y), filt(x * y)
    a1 = 2 * ux * uy + c1
    a2 = 2 * (uxy - ux * uy) + c2
    b1 = ux * ux + uy * uy + c1
    b2 = (uxx - ux * ux) + (uyy - uy * uy) + c2
    s_map = (a1 * a2) / (b1 * b2)
    n = s_map.size
    inv_b1b2 = 1.0 / (b1 * b2)
    ds_dux = (
        2 * uy * (a2 - a1) * inv_b1b2 - 2 * ux * s_map / b1 + 2 * ux * s_map / b2
    )
    grad = (
        filt(ds_dux / n)
        + 2 * x * filt(-s_map / b2 / n)
        + y * filt(2 * a1 * inv_b1b2 / n)
    )
    return float(np.mean(s_map)), grad


@pytest.fixture(scope="session")
def ssim_oracle():
    return scipy_ssim_with_grad
