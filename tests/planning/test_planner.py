"""BatchPlanner memoization: fingerprints, LRU behaviour, perf counters."""

import pytest

from repro.planning import BatchPlanner, plan_fingerprint, set_fingerprint
from repro.utils.setops import as_index_set


def make_sets(rng, n, universe=300, size_range=(10, 60)):
    return [
        as_index_set(rng.integers(0, universe, rng.integers(*size_range)))
        for _ in range(n)
    ]


def test_repeated_batch_skips_planning(rng):
    """The acceptance property: a cache hit must not re-run TSP or the
    set algebra — observable through the perf counters."""
    sets = make_sets(rng, 6)
    planner = BatchPlanner(ordering="tsp", cache_size=4, seed=0)
    plan1 = planner.plan(sets, list(range(6)), num_gaussians=300)
    built_once = planner.counters.plans_built
    order_time = planner.counters.order_time_s
    build_time = planner.counters.build_time_s

    plan2 = planner.plan(sets, list(range(6)), num_gaussians=300)
    assert plan2 is plan1  # the very object, not a rebuild
    assert planner.counters.plans_built == built_once == 1
    assert planner.counters.cache_hits == 1
    assert planner.counters.requests == 2
    # No additional ordering/set-algebra time was spent on the hit.
    assert planner.counters.order_time_s == order_time
    assert planner.counters.build_time_s == build_time
    assert planner.counters.hit_rate == pytest.approx(0.5)


def test_content_equal_sets_hit_even_if_different_objects(rng):
    sets = make_sets(rng, 4)
    copies = [s.copy() for s in sets]
    planner = BatchPlanner(ordering="gs_count", cache_size=4)
    planner.plan(sets, [0, 1, 2, 3], num_gaussians=300)
    planner.plan(copies, [0, 1, 2, 3], num_gaussians=300)
    assert planner.counters.cache_hits == 1


def test_changed_set_contents_miss(rng):
    sets = make_sets(rng, 4)
    planner = BatchPlanner(ordering="gs_count", cache_size=4)
    planner.plan(sets, [0, 1, 2, 3], num_gaussians=300)
    perturbed = list(sets)
    perturbed[2] = sets[2][:-1]  # drop one element: new content, new key
    planner.plan(perturbed, [0, 1, 2, 3], num_gaussians=300)
    assert planner.counters.cache_hits == 0
    assert planner.counters.plans_built == 2


def test_key_includes_view_ids_strategy_and_model_size(rng):
    sets = make_sets(rng, 3)
    planner = BatchPlanner(ordering="gs_count", cache_size=8)
    planner.plan(sets, [0, 1, 2], num_gaussians=300)
    planner.plan(sets, [5, 6, 7], num_gaussians=300)  # other views
    planner.plan(sets, [0, 1, 2], num_gaussians=301)  # model grew
    planner.plan(sets, [0, 1, 2], num_gaussians=300, strategy="identity")
    assert planner.counters.plans_built == 4
    assert planner.counters.cache_hits == 0
    # And each variant now hits.
    planner.plan(sets, [0, 1, 2], num_gaussians=300)
    planner.plan(sets, [0, 1, 2], num_gaussians=300, strategy="identity")
    assert planner.counters.cache_hits == 2


def test_lru_eviction(rng):
    a, b = make_sets(rng, 3), make_sets(rng, 3)
    planner = BatchPlanner(ordering="identity", cache_size=1)
    planner.plan(a, [0, 1, 2], num_gaussians=300)
    planner.plan(b, [0, 1, 2], num_gaussians=300)  # evicts a
    planner.plan(a, [0, 1, 2], num_gaussians=300)  # rebuild
    assert planner.counters.plans_built == 3
    assert planner.cache.evictions >= 1
    assert len(planner.cache) == 1


def test_cache_size_zero_disables_memoization(rng):
    sets = make_sets(rng, 3)
    planner = BatchPlanner(ordering="identity", cache_size=0)
    planner.plan(sets, [0, 1, 2], num_gaussians=300)
    planner.plan(sets, [0, 1, 2], num_gaussians=300)
    assert planner.counters.plans_built == 2
    assert planner.counters.cache_hits == 0


def test_set_fingerprint_content_based(rng):
    s = make_sets(rng, 1)[0]
    assert set_fingerprint(s) == set_fingerprint(s.copy())
    if s.size:
        assert set_fingerprint(s) != set_fingerprint(s[:-1])


def test_plan_fingerprint_distinguishes_flags(rng):
    sets = make_sets(rng, 2)
    base = plan_fingerprint(sets, [0, 1], "tsp", 300)
    assert base == plan_fingerprint(sets, [0, 1], "tsp", 300)
    assert base != plan_fingerprint(sets, [0, 1], "random", 300)


def test_from_engine_config_reads_planning_knobs():
    from repro.core.config import EngineConfig

    cfg = EngineConfig(ordering="gs_count", enable_cache=False)
    planner = BatchPlanner.from_engine_config(cfg)
    assert planner.ordering == "gs_count"
    assert planner.enable_cache is False
    assert planner.cache.capacity == 0


def test_random_strategy_is_never_memoized(rng):
    """A cached 'random' plan would replay an earlier shuffle; random
    orderings must replan (and redraw) on every request."""
    sets = make_sets(rng, 6)
    planner = BatchPlanner(ordering="random", cache_size=8, seed=0)
    planner.plan(sets, list(range(6)), num_gaussians=300)
    planner.plan(sets, list(range(6)), num_gaussians=300)
    assert planner.counters.plans_built == 2
    assert planner.counters.cache_hits == 0
    assert len(planner.cache) == 0
    # Non-random strategies on the same planner still memoize.
    planner.plan(sets, list(range(6)), num_gaussians=300, strategy="tsp")
    planner.plan(sets, list(range(6)), num_gaussians=300, strategy="tsp")
    assert planner.counters.cache_hits == 1


def test_caller_arrays_never_frozen(rng):
    """The plan owns copies, which a cache freezes when it stores the
    plan; the caller's index sets (e.g. a long-lived CullingIndex) must
    stay writable."""
    sets = make_sets(rng, 4)
    planner = BatchPlanner(ordering="identity", cache_size=2)
    plan = planner.plan(sets, [0, 1, 2, 3], num_gaussians=300)
    for s in sets:
        assert s.flags.writeable
    for step in plan.steps:
        assert not step.working_set.flags.writeable


def test_camera_strategy_key_includes_camera_geometry(rng):
    """Moved cameras with unchanged in-frustum sets must miss the cache
    under the 'camera' ordering (its order depends on camera centers)."""
    from repro.gaussians.camera import look_at_camera

    def cams(offset):
        return [
            look_at_camera(eye=(float(i) + offset, 0.0, 1.0),
                           target=(float(i) + offset, 1.0, 1.0), view_id=i)
            for i in range(3)
        ]

    sets = make_sets(rng, 3)
    planner = BatchPlanner(ordering="camera", cache_size=4)
    planner.plan(sets, [0, 1, 2], cameras=cams(0.0), num_gaussians=300)
    planner.plan(sets, [0, 1, 2], cameras=cams(5.0), num_gaussians=300)
    assert planner.counters.plans_built == 2
    planner.plan(sets, [0, 1, 2], cameras=cams(0.0), num_gaussians=300)
    assert planner.counters.cache_hits == 1


def test_unsorted_out_of_range_index_rejected(rng):
    import numpy as np

    planner = BatchPlanner(ordering="identity")
    with pytest.raises(ValueError, match="out of range"):
        planner.plan([np.array([70, 3])], [0], num_gaussians=60)


def test_stats_expose_eviction_count(rng):
    """`stats()` must surface PlanCache evictions — serving dashboards
    distinguish cold misses from a cache that is simply too small."""
    a, b, c = make_sets(rng, 2), make_sets(rng, 2), make_sets(rng, 2)
    planner = BatchPlanner(ordering="identity", cache_size=2)
    stats = planner.stats()
    assert stats["evictions"] == 0.0
    assert stats["cache_size"] == 0.0
    planner.plan(a, [0, 1], num_gaussians=300)
    planner.plan(b, [0, 1], num_gaussians=300)
    planner.plan(c, [0, 1], num_gaussians=300)  # evicts one
    stats = planner.stats()
    assert stats["evictions"] == 1.0
    assert stats["cache_size"] == 2.0


def test_lru_eviction_order_under_capacity_churn(rng):
    """Recency, not insertion order, decides the victim: touching an old
    entry (a hit) must protect it through the next eviction."""
    a, b, c = make_sets(rng, 2), make_sets(rng, 2), make_sets(rng, 2)
    planner = BatchPlanner(ordering="identity", cache_size=2)
    plan_a = planner.plan(a, [0, 1], num_gaussians=300)
    planner.plan(b, [0, 1], num_gaussians=300)
    # Touch A: it becomes most-recent, so inserting C must evict B.
    assert planner.plan(a, [0, 1], num_gaussians=300) is plan_a
    planner.plan(c, [0, 1], num_gaussians=300)
    assert planner.cache.evictions == 1
    assert planner.plan(a, [0, 1], num_gaussians=300) is plan_a  # hit
    built = planner.counters.plans_built
    planner.plan(b, [0, 1], num_gaussians=300)  # miss: B was the victim
    assert planner.counters.plans_built == built + 1
