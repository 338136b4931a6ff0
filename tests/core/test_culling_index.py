"""Per-view culling index."""

import numpy as np
import pytest

from repro.core.culling_index import CullingIndex
from repro.gaussians.frustum import cull_gaussians
from repro.utils.setops import is_sorted_unique


def test_build_matches_direct_culling(scene_cache):
    scene = scene_cache("rubble", 1e-4, 12)
    index = CullingIndex.build(scene.model, scene.cameras)
    for cam in scene.cameras[:4]:
        direct = cull_gaussians(
            cam, scene.model.positions, scene.model.log_scales,
            scene.model.quaternions,
        )
        np.testing.assert_array_equal(index.set_for(cam.view_id), direct)


def test_sets_are_canonical(scene_cache):
    scene = scene_cache("alameda", 1e-4, 12)
    index = CullingIndex.build(scene.model, scene.cameras)
    for vid in index.view_ids():
        assert is_sorted_unique(index.set_for(vid))


def test_sparsity_values(scene_cache):
    scene = scene_cache("bigcity", 1e-4, 12)
    index = CullingIndex.build(scene.model, scene.cameras)
    rhos = index.sparsities()
    assert rhos.shape == (12,)
    assert np.all((rhos >= 0) & (rhos <= 1))
    assert index.sparsity(scene.cameras[0].view_id) == pytest.approx(
        index.set_for(scene.cameras[0].view_id).size / scene.num_gaussians
    )


def test_sets_for_preserves_order(scene_cache):
    scene = scene_cache("rubble", 1e-4, 12)
    index = CullingIndex.build(scene.model, scene.cameras)
    ids = [scene.cameras[3].view_id, scene.cameras[0].view_id]
    sets = index.sets_for(ids)
    np.testing.assert_array_equal(sets[0], index.set_for(ids[0]))
    np.testing.assert_array_equal(sets[1], index.set_for(ids[1]))


def test_missing_view_raises(scene_cache):
    scene = scene_cache("rubble", 1e-4, 12)
    index = CullingIndex.build(scene.model, scene.cameras)
    with pytest.raises(KeyError):
        index.set_for(10_000)


def test_from_sets_roundtrip():
    sets = {0: np.array([1, 5], dtype=np.int64), 1: np.array([2], dtype=np.int64)}
    index = CullingIndex.from_sets(10, sets)
    assert [index.set_for(v).tolist() for v in index.view_ids()] == [[1, 5], [2]]
    assert index.view_ids() == [0, 1]


def test_empty_index_statistics():
    index = CullingIndex.from_sets(10, {})
    assert index.view_ids() == []
    assert index.sparsities().size == 0
