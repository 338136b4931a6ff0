"""Plan invariants (§4.2.1/§4.2.2), property-based and across every
registered engine.

The invariants: loads ∪ cached partition each working set ``S_i``;
stores ∪ carried partition ``S_i``; the Adam chunks partition the touched
union with ``F_j ⊆ S_j``; and every touched Gaussian is stored exactly
once *after its final microbatch* — the property that makes overlapped
CPU Adam safe.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.model import GaussianModel
from repro.planning import BatchPlanner, finalization_positions
from repro.utils import setops

index_sets = st.lists(
    st.integers(min_value=0, max_value=80), max_size=40
).map(setops.as_index_set)
batches = st.lists(index_sets, min_size=1, max_size=8)
strategies = st.sampled_from(("identity", "random", "gs_count", "tsp"))
flags = st.booleans()


def assert_plan_invariants(plan):
    for step, chunk in zip(plan.steps, plan.adam_chunks):
        s = step.working_set
        assert np.array_equal(np.union1d(step.loads, step.cached), s)
        assert setops.intersect(step.loads, step.cached).size == 0
        assert np.array_equal(np.union1d(step.stores, step.carried), s)
        assert setops.intersect(step.stores, step.carried).size == 0
        assert np.isin(chunk, s).all()
    # Adam chunks partition the touched union.
    all_chunks = (
        np.concatenate(plan.adam_chunks)
        if plan.adam_chunks else np.empty(0, dtype=np.int64)
    )
    assert len(np.unique(all_chunks)) == len(all_chunks)
    assert np.array_equal(np.sort(all_chunks), plan.touched)
    # Every touched Gaussian's *final* store is its finalization
    # microbatch L_g, and nothing is stored after it.
    last = finalization_positions(
        [s.working_set for s in plan.steps], plan.num_gaussians
    )
    final_store = np.zeros(plan.num_gaussians, dtype=np.int64)
    store_events = np.zeros(plan.num_gaussians, dtype=np.int64)
    stored_at_final = np.zeros(plan.num_gaussians, dtype=bool)
    for i, step in enumerate(plan.steps, start=1):
        final_store[step.stores] = i
        store_events[step.stores] += 1
        stored_at_final[step.stores[last[step.stores] == i]] = True
    np.testing.assert_array_equal(
        final_store[plan.touched], last[plan.touched]
    )
    assert stored_at_final[plan.touched].all(), (
        "some touched Gaussian is never stored at its finalization step"
    )
    # ... and exactly once per contiguous visit run; in particular the
    # finalization store happens exactly once.
    assert (store_events[plan.touched] >= 1).all()


class TestPlanProperties:
    @given(sets=batches, strategy=strategies, enable_cache=flags)
    @settings(max_examples=60, deadline=None)
    def test_invariants_any_strategy(self, sets, strategy, enable_cache):
        planner = BatchPlanner(
            ordering=strategy, enable_cache=enable_cache,
            seed=0,
        )
        plan = planner.plan(sets, list(range(len(sets))), num_gaussians=81)
        plan.validate()
        assert_plan_invariants(plan)

    @given(sets=batches)
    @settings(max_examples=40, deadline=None)
    def test_touched_is_union_of_sets(self, sets):
        planner = BatchPlanner(ordering="identity")
        plan = planner.plan(sets, list(range(len(sets))), num_gaussians=81)
        union = np.empty(0, dtype=np.int64)
        for s in sets:
            union = np.union1d(union, s)
        assert np.array_equal(plan.touched, union)


@pytest.fixture(scope="module")
def engine_inputs(trainable_scene):
    model = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    targets = {
        c.view_id: img
        for c, img in zip(trainable_scene.cameras, trainable_scene.images)
    }
    return trainable_scene, model, targets


@pytest.mark.parametrize("name", available_engines())
def test_every_engine_plans_through_the_planner(engine_inputs, name):
    """All registered engines own a BatchPlanner, train through it, and
    their plans satisfy the §4.2 invariants."""
    scene, model, targets = engine_inputs
    engine = create_engine(
        name, model, scene.cameras, EngineConfig(batch_size=4, seed=0)
    )
    plan = engine.plan_batch([0, 1, 2, 3])
    plan.validate()
    assert_plan_invariants(plan)
    assert engine.planner.counters.plans_built == 1

    result = engine.train_batch([0, 1, 2, 3], targets)
    assert engine.planner.counters.plans_built >= 1
    assert engine.planner.counters.requests >= 2
    # The executed order is the planner's order.
    trained_plan_order = list(result.order)
    assert sorted(trained_plan_order) == [0, 1, 2, 3]
    assert result.touched_gaussians > 0
