"""Overlapped CPU Adam planning (§4.2.2)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planning import adam_overlap
from repro.utils import setops

index_sets = st.lists(
    st.integers(min_value=0, max_value=60), max_size=30
).map(setops.as_index_set)
batches = st.lists(index_sets, min_size=1, max_size=6)

N = 61


def arr(*v):
    return np.asarray(v, dtype=np.int64)


def test_finalization_positions_basic():
    sets = [arr(0, 1), arr(1, 2)]
    last = adam_overlap.finalization_positions(sets, 4)
    assert last.tolist() == [1, 2, 2, 0]


def test_chunks_group_by_last_touch():
    sets = [arr(0, 1), arr(1, 2)]
    chunks = adam_overlap.adam_chunks(sets, 4)
    assert chunks[0].tolist() == [0]
    assert chunks[1].tolist() == [1, 2]


def test_untouched_not_scheduled():
    chunks = adam_overlap.adam_chunks([arr(5)], 10)
    total = np.concatenate(chunks)
    assert 9 not in total
    assert total.tolist() == [5]


def test_touched_union():
    u = adam_overlap.touched_union([arr(1, 3), arr(2, 3), arr()])
    assert u.tolist() == [1, 2, 3]


class TestChunkProperties:
    @given(sets=batches)
    @settings(max_examples=60, deadline=None)
    def test_chunks_partition_touched_union(self, sets):
        chunks = adam_overlap.adam_chunks(sets, N)
        merged = (
            np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
        )
        assert np.unique(merged).size == merged.size  # disjoint
        np.testing.assert_array_equal(
            np.sort(merged), adam_overlap.touched_union(sets)
        )

    @given(sets=batches)
    @settings(max_examples=60, deadline=None)
    def test_chunk_j_subset_of_set_j(self, sets):
        chunks = adam_overlap.adam_chunks(sets, N)
        for chunk, s in zip(chunks, sets):
            assert np.setdiff1d(chunk, s).size == 0

    @given(sets=batches)
    @settings(max_examples=40, deadline=None)
    def test_chunk_disjoint_from_later_sets(self, sets):
        """The safety property: once F_j is updated, no later microbatch in
        the batch touches those Gaussians."""
        chunks = adam_overlap.adam_chunks(sets, N)
        for j, chunk in enumerate(chunks):
            for later in sets[j + 1:]:
                assert setops.intersect(chunk, later).size == 0
