"""Precise Gaussian caching transfer plans (§4.2.1): unit + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planning.caching import (
    build_transfer_plan,
    total_cached_count,
    total_load_count,
    total_store_count,
    validate_plan,
)
from repro.utils import setops

index_sets = st.lists(
    st.integers(min_value=0, max_value=80), max_size=40
).map(setops.as_index_set)
batches = st.lists(index_sets, min_size=1, max_size=8)


def arr(*v):
    return np.asarray(v, dtype=np.int64)


def test_first_microbatch_loads_everything():
    steps = build_transfer_plan([arr(1, 2, 3), arr(2, 3, 4)])
    np.testing.assert_array_equal(steps[0].loads, arr(1, 2, 3))
    assert steps[0].cached.size == 0


def test_consecutive_overlap_cached():
    steps = build_transfer_plan([arr(1, 2, 3), arr(2, 3, 4)])
    np.testing.assert_array_equal(steps[1].cached, arr(2, 3))
    np.testing.assert_array_equal(steps[1].loads, arr(4))


def test_gradient_store_defers_carried():
    steps = build_transfer_plan([arr(1, 2, 3), arr(2, 3, 4)])
    np.testing.assert_array_equal(steps[0].stores, arr(1))
    np.testing.assert_array_equal(steps[0].carried, arr(2, 3))
    # Last microbatch stores everything it touched.
    np.testing.assert_array_equal(steps[1].stores, arr(2, 3, 4))
    assert steps[1].carried.size == 0


def test_no_cache_variant_loads_full_sets():
    sets = [arr(1, 2, 3), arr(2, 3, 4)]
    steps = build_transfer_plan(sets, enable_cache=False)
    for step, s in zip(steps, sets):
        np.testing.assert_array_equal(step.loads, s)
        assert step.cached.size == 0
        np.testing.assert_array_equal(step.stores, s)


def test_cache_reduces_loads_when_overlapping():
    sets = [arr(1, 2, 3, 4), arr(2, 3, 4, 5), arr(3, 4, 5, 6)]
    cached = build_transfer_plan(sets, enable_cache=True)
    uncached = build_transfer_plan(sets, enable_cache=False)
    assert total_load_count(cached) < total_load_count(uncached)
    assert total_cached_count(cached) == 6


def test_disjoint_sets_cache_nothing():
    sets = [arr(1, 2), arr(3, 4), arr(5)]
    steps = build_transfer_plan(sets)
    assert total_cached_count(steps) == 0
    assert total_load_count(steps) == 5


def test_identical_sets_load_once():
    s = arr(1, 2, 3)
    steps = build_transfer_plan([s, s, s])
    assert total_load_count(steps) == 3
    assert total_cached_count(steps) == 6
    # Gradients only offload at the end.
    assert steps[0].num_stores == 0 and steps[2].num_stores == 3


def test_view_ids_attached():
    steps = build_transfer_plan([arr(1), arr(2)], view_ids=[7, 9])
    assert [s.view_id for s in steps] == [7, 9]
    assert [s.position for s in steps] == [0, 1]


def test_view_ids_length_mismatch():
    with pytest.raises(ValueError):
        build_transfer_plan([arr(1)], view_ids=[1, 2])


def test_empty_working_set():
    steps = build_transfer_plan([arr(), arr(1)])
    assert steps[0].num_loads == 0
    assert steps[0].cached.size == 0


class TestPlanProperties:
    @given(sets=batches)
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, sets):
        validate_plan(build_transfer_plan(sets))
        validate_plan(build_transfer_plan(sets, enable_cache=False))

    @given(sets=batches)
    @settings(max_examples=60, deadline=None)
    def test_every_touched_gaussian_reaches_cpu(self, sets):
        """Every touched Gaussian's gradient is offloaded; a Gaussian
        visited in several non-adjacent runs is stored once per run (the
        accumulating offload kernel of §5.3 sums the pieces on the CPU)."""
        steps = build_transfer_plan(sets)
        all_stores = (
            np.concatenate([s.stores for s in steps])
            if steps else np.array([], dtype=np.int64)
        )
        touched = sets[0]
        for s in sets[1:]:
            touched = np.union1d(touched, s)
        assert np.array_equal(np.unique(all_stores), touched)

    @given(sets=batches)
    @settings(max_examples=60, deadline=None)
    def test_final_store_at_finalization(self, sets):
        """The *last* store of each Gaussian is exactly its finalization
        microbatch L_g — the §4.2.2 safety property that lets CPU Adam run
        as soon as chunk F_j's gradients land."""
        from repro.planning.adam_overlap import finalization_positions

        steps = build_transfer_plan(sets)
        num = 81
        last = finalization_positions(sets, num)
        final_store = np.zeros(num, dtype=np.int64)
        for i, step in enumerate(steps, start=1):
            final_store[step.stores] = i
        touched = np.nonzero(last)[0]
        np.testing.assert_array_equal(final_store[touched], last[touched])

    @given(sets=batches)
    @settings(max_examples=40, deadline=None)
    def test_cache_never_increases_loads(self, sets):
        cached = total_load_count(build_transfer_plan(sets, enable_cache=True))
        plain = total_load_count(build_transfer_plan(sets, enable_cache=False))
        assert cached <= plain

    @given(sets=batches)
    @settings(max_examples=40, deadline=None)
    def test_loads_plus_cached_equals_total_work(self, sets):
        steps = build_transfer_plan(sets)
        total_sets = sum(s.size for s in sets)
        assert total_load_count(steps) + total_cached_count(steps) == total_sets
        assert total_store_count(steps) <= total_sets
