"""Shared fixtures.

Session-scoped scene/model fixtures keep the suite fast: building synthetic
scenes and rendering ground-truth images dominates runtime, so tests share
read-only instances and clone before mutating.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.culling_index import CullingIndex
from repro.gaussians import quaternion
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import frustum_planes
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


def single_level_cull(camera, positions, log_scales, raw_quats):
    """The frustum cull as it was before the bounding-sphere prefilter:
    the exact 3-sigma support test on every row of the model.

    Test-only oracle.  :func:`repro.gaussians.frustum.cull_batch` (and
    everything built on it) must reproduce these index sets with
    ``np.array_equal`` — the arithmetic is spelled out here rather than
    imported, so a change to the product code cannot move both sides.
    """
    planes = frustum_planes(camera)
    normals = planes[:, :3]
    signed = positions @ normals.T + planes[:, 3]  # (N, P)
    rot = quaternion.to_rotation_matrices(quaternion.normalize(raw_quats))
    v = np.einsum("nji,pj->pni", rot, normals) * np.exp(log_scales)[None]
    radii = 3.0 * np.linalg.norm(v, axis=-1)  # (P, N)
    inside = np.all(signed + radii.T >= 0.0, axis=1)
    return np.nonzero(inside)[0].astype(np.int64)


@pytest.fixture(scope="session")
def cull_oracle():
    return single_level_cull
