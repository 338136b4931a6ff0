"""BatchPlan construction, analytics, and who owns its arrays."""

import dataclasses

import pytest

from repro.kernels import get_backend
from repro.planning import BatchPlanner
from repro.utils.setops import as_index_set

BACKENDS = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not get_backend("native").available(), reason="no C compiler here"
    )),
]


def make_sets(rng, n, universe=200, size_range=(5, 40)):
    return [
        as_index_set(rng.integers(0, universe, rng.integers(*size_range)))
        for _ in range(n)
    ]


@pytest.fixture()
def plan(rng):
    sets = make_sets(rng, 5)
    planner = BatchPlanner(ordering="tsp", seed=0)
    return planner.plan(sets, [3, 1, 4, 1 + 5, 9], num_gaussians=200)


def test_order_is_permutation(plan):
    assert sorted(plan.order) == list(range(5))


def test_view_ids_follow_order(plan):
    for step, vid in zip(plan.steps, plan.view_ids):
        assert step.view_id == vid


def test_analytics_match_step_sums(plan):
    assert plan.total_loads == sum(s.num_loads for s in plan.steps)
    assert plan.total_stores == sum(s.num_stores for s in plan.steps)
    assert plan.total_cached == sum(s.cached.size for s in plan.steps)


def test_adam_chunks_partition_touched(plan):
    assert sum(plan.adam_chunk_sizes) == plan.touched.size
    assert plan.batch_size == len(plan.adam_chunks) == 5


def test_loads_and_cached_cover_every_working_set_row(plan):
    # loads + cached together cover every working-set row.
    covered = plan.total_loads + plan.total_cached
    assert covered == sum(s.working_set.size for s in plan.steps)


def test_validate_passes(plan):
    plan.validate()


def test_plan_is_frozen(plan):
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.strategy = "random"


def plan_arrays(plan):
    return [plan.touched, *plan.adam_chunks] + [
        getattr(step, name) for step in plan.steps
        for name in ("working_set", "loads", "cached", "stores", "carried")
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_training_plans_arrays_are_writable(rng, backend):
    """A plan built for its batch (no cache, as every engine plans) owns
    its arrays, and they stay writable."""
    planner = BatchPlanner(ordering="tsp", kernel_backend=backend)
    plan = planner.plan(make_sets(rng, 5), list(range(5)), num_gaussians=200)
    assert all(arr.flags.writeable for arr in plan_arrays(plan))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_served_plans_arrays_are_read_only(rng, backend):
    """A cached plan is handed to every request of its batch, so the cache
    freezes it: a write to any of its arrays raises."""
    sets = make_sets(rng, 5)
    planner = BatchPlanner(ordering="tsp", cache_size=4, kernel_backend=backend)
    plan = planner.plan(sets, list(range(5)), num_gaussians=200)
    assert planner.plan(sets, list(range(5)), num_gaussians=200) is plan
    for arr in plan_arrays(plan):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:0] = 0  # shape-safe write attempt


def test_out_of_range_indices_rejected_at_plan_time(rng):
    planner = BatchPlanner(ordering="identity")
    sets = make_sets(rng, 3, universe=200)
    with pytest.raises(ValueError, match="out of range"):
        planner.plan(sets, [0, 1, 2], num_gaussians=10)


def test_identity_strategy_keeps_input_order(rng):
    sets = make_sets(rng, 4)
    planner = BatchPlanner(ordering="identity")
    plan = planner.plan(sets, [7, 5, 3, 1], num_gaussians=200)
    assert plan.order == (0, 1, 2, 3)
    assert plan.view_ids == (7, 5, 3, 1)


def test_no_cache_plan(rng):
    sets = make_sets(rng, 4)
    planner = BatchPlanner(ordering="identity", enable_cache=False)
    plan = planner.plan(sets, list(range(4)), num_gaussians=200)
    plan.validate()
    assert plan.total_cached == 0
    assert plan.total_loads == sum(s.size for s in sets)


def test_mismatched_lengths_rejected(rng):
    planner = BatchPlanner()
    with pytest.raises(ValueError):
        planner.plan(make_sets(rng, 3), [0, 1], num_gaussians=200)


def test_adam_chunks_come_with_the_plan(rng):
    """The chunks are built with the rest of the plan (linear in the rows
    the batch touches), one per step, partitioning ``touched``."""
    sets = make_sets(rng, 4)
    planner = BatchPlanner(ordering="identity")
    plan = planner.plan(sets, list(range(4)), num_gaussians=200)
    assert len(plan.adam_chunks) == plan.batch_size
    assert sum(c.size for c in plan.adam_chunks) == plan.touched.size
    plan.validate()
