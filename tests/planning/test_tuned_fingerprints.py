"""Plan fingerprints separate the tuner's candidate orderings: each
ordering is keyed as the plan strategy, so per-batch tuned orderings
never collide on one cached plan."""

import numpy as np
import pytest

from repro.planning import BatchPlanner, plan_fingerprint


@pytest.fixture
def sets():
    rng = np.random.default_rng(0)
    return [
        np.sort(rng.choice(300, size=80, replace=False)) for _ in range(4)
    ]


def test_ordering_keys_fingerprint(sets):
    a = plan_fingerprint(sets, [0, 1, 2, 3], "tsp", 300)
    b = plan_fingerprint(sets, [0, 1, 2, 3], "gs_count", 300)
    assert a != b


def test_tuned_orderings_get_distinct_cache_entries(sets):
    """Ordering is keyed as the plan strategy; per-batch tuned orderings
    coexist in the cache."""
    planner = BatchPlanner(cache_size=8)
    planner.plan(sets, [0, 1, 2, 3], num_gaussians=300, strategy="tsp")
    planner.plan(sets, [0, 1, 2, 3], num_gaussians=300, strategy="gs_count")
    assert planner.counters.plans_built == 2
    planner.plan(sets, [0, 1, 2, 3], num_gaussians=300, strategy="tsp")
    assert planner.counters.cache_hits == 1
