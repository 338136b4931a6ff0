"""The planner's set algebra, linear in what a batch touches, builds the
plans the O(B·N) definitions built.

``planner_oracle`` (tests/conftest.py) is the construction as it was:
``intersect1d`` / ``setdiff1d`` four times a microbatch, chained
``union1d``, and Adam chunks from ``num_gaussians``-long scans.  Every array
here is ``np.array_equal`` to it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.frustum import cull_batch
from repro.planning import BatchPlanner, adam_overlap
from repro.planning.caching import build_transfer_plan
from repro.scenes.datasets import build_scene
from repro.scenes.images import make_trainable_scene
from repro.utils import setops
from test_compute_bins import batch_plans

index_sets = st.lists(st.integers(0, 120), max_size=60).map(setops.as_index_set)
batches = st.lists(index_sets, max_size=8)


def assert_same(got, want):
    assert got.dtype == np.int64 and got.ndim == 1
    assert np.array_equal(got, want), (got, want)


@given(a=index_sets, b=index_sets)
@settings(max_examples=300, deadline=None)
def test_partition_is_intersect_and_difference(a, b):
    both, only_a = setops.partition(a, b)
    assert_same(both, np.intersect1d(a, b))
    assert_same(only_a, np.setdiff1d(a, b))
    # Fresh arrays, never views of an input: a plan owns what it gets.
    for out in (both, only_a):
        assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
        assert out.flags.writeable


def test_partition_at_the_ends_of_the_other_set():
    a = np.array([0, 5, 9, 10, 11], dtype=np.int64)
    b = np.array([5, 10], dtype=np.int64)
    both, only_a = setops.partition(a, b)
    assert both.tolist() == [5, 10] and only_a.tolist() == [0, 9, 11]
    both, only_a = setops.partition(b, a)
    assert both.tolist() == [5, 10] and only_a.tolist() == []


@given(sets=batches, enable_cache=st.booleans())
@settings(max_examples=200, deadline=None)
def test_transfer_plan_matches_the_four_set_operations(
    planner_oracle, sets, enable_cache
):
    steps = build_transfer_plan(sets, enable_cache=enable_cache)
    want = planner_oracle.transfer_sets(sets, enable_cache)
    assert len(steps) == len(want)
    for step, (loads, cached, stores, carried) in zip(steps, want):
        assert_same(step.loads, loads)
        assert_same(step.cached, cached)
        assert_same(step.stores, stores)
        assert_same(step.carried, carried)


@given(sets=batches)
@settings(max_examples=200, deadline=None)
def test_union_and_chunks_match_the_dense_definition(planner_oracle, sets):
    n = 121
    assert_same(adam_overlap.touched_union(sets), planner_oracle.touched_union(sets))
    chunks = adam_overlap.adam_chunks(sets, n)
    want = planner_oracle.adam_chunks(sets, n)
    assert len(chunks) == len(want) == len(sets)
    for got, dense in zip(chunks, want):
        assert_same(got, dense)
    assert np.array_equal(
        adam_overlap.finalization_positions(sets, n),
        planner_oracle.finalization_positions(sets, n),
    )


def test_rows_beyond_the_model_are_refused():
    sets = [np.array([1, 7], dtype=np.int64), np.array([7, 30], dtype=np.int64)]
    assert len(adam_overlap.adam_chunks(sets, 31)) == 2
    with pytest.raises(IndexError):
        adam_overlap.adam_chunks(sets, 30)
    with pytest.raises(IndexError):
        adam_overlap.finalization_positions(sets, 30)


@given(plan=batch_plans())
@settings(max_examples=40, deadline=None)
def test_generated_plans_validate(planner_oracle, plan):
    plan.validate()
    assert_plan_matches_oracle(planner_oracle, plan)


def assert_plan_matches_oracle(oracle, plan):
    """Every array of ``plan``, field by field, against the oracle built
    from its scheduled working sets."""
    sets = [step.working_set for step in plan.steps]
    for step, (loads, cached, stores, carried) in zip(
        plan.steps, oracle.transfer_sets(sets, plan.enable_cache)
    ):
        assert_same(step.loads, loads)
        assert_same(step.cached, cached)
        assert_same(step.stores, stores)
        assert_same(step.carried, carried)
    assert_same(plan.touched, oracle.touched_union(sets))
    want = oracle.adam_chunks(sets, plan.num_gaussians)
    assert len(plan.adam_chunks) == len(want)
    for got, dense in zip(plan.adam_chunks, want):
        assert_same(got, dense)


def bench_e2e_scenes():
    sparse = build_scene("bigcity", scale=2e-4, num_views=32, seed=0)
    dense = make_trainable_scene(
        reference_gaussians=1000, num_views=24, image_size=(40, 30),
        init_fraction=1.0,
    )
    return [
        ("sparse", sparse.model, sparse.cameras, 8),
        ("dense", dense.reference, dense.cameras, 4),
    ]


@pytest.mark.parametrize("enable_cache", [True, False])
def test_plans_of_both_bench_e2e_scenes_match_the_oracle(
    planner_oracle, enable_cache
):
    for name, model, cameras, batch in bench_e2e_scenes():
        sets = cull_batch(
            cameras, model.positions, model.log_scales, model.quaternions
        )
        planner = BatchPlanner(ordering="tsp", enable_cache=enable_cache)
        for first in range(0, len(cameras) - batch + 1, batch):
            views = list(range(first, first + batch))
            plan = planner.plan(
                [sets[v] for v in views], views, num_gaussians=model.num_gaussians
            )
            plan.validate()
            assert_plan_matches_oracle(planner_oracle, plan)
            assert plan.touched.size > 0, name


def test_adam_chunks_do_not_allocate_the_model_size(planner_oracle):
    """N = 5e6 with three 100-row sets: the dense definition allocates (and
    scans, three times) 40 MB; the chunks now come from the ~300 touched
    rows."""
    n = 5_000_000
    rng = np.random.default_rng(0)
    sets = [np.unique(rng.integers(0, n, size=100)) for _ in range(3)]
    adam_overlap.adam_chunks(sets, n)  # imports and caches, outside the trace
    tracemalloc.start()
    try:
        chunks = adam_overlap.adam_chunks(sets, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak  # the dense scan: > 8 * n bytes
    for got, dense in zip(chunks, planner_oracle.adam_chunks(sets, n)):
        assert_same(got, dense)
