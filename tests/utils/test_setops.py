"""Sorted-index set algebra: unit + property tests.

These operations underpin every CLM transfer plan, so the invariants are
checked both on hand-built cases and via hypothesis-generated sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import setops

index_sets = st.lists(
    st.integers(min_value=0, max_value=200), max_size=60
).map(setops.as_index_set)


def arr(*values):
    return np.asarray(values, dtype=np.int64)


class TestBasics:
    def test_as_index_set_sorts_and_dedups(self):
        out = setops.as_index_set([5, 1, 5, 3, 1])
        assert np.array_equal(out, arr(1, 3, 5))

    def test_as_index_set_empty(self):
        assert setops.as_index_set([]).size == 0

    def test_is_sorted_unique_accepts_canonical(self):
        assert setops.is_sorted_unique(arr(1, 2, 9))
        assert setops.is_sorted_unique(arr())
        assert setops.is_sorted_unique(arr(7))

    def test_is_sorted_unique_rejects_duplicates(self):
        assert not setops.is_sorted_unique(arr(1, 1, 2))

    def test_is_sorted_unique_rejects_unsorted(self):
        assert not setops.is_sorted_unique(arr(3, 1))

    def test_is_sorted_unique_rejects_2d(self):
        assert not setops.is_sorted_unique(np.zeros((2, 2), dtype=np.int64))

    def test_intersect(self):
        assert np.array_equal(
            setops.intersect(arr(1, 2, 3), arr(2, 3, 4)), arr(2, 3)
        )

    def test_intersect_empty_operand(self):
        assert setops.intersect(arr(), arr(1, 2)).size == 0
        assert setops.intersect(arr(1, 2), arr()).size == 0


class TestMatrices:
    def test_intersection_matrix_diagonal_is_sizes(self):
        sets = [arr(1, 2, 3), arr(2, 3), arr()]
        mat = setops.intersection_matrix(sets)
        assert mat[0, 0] == 3 and mat[1, 1] == 2 and mat[2, 2] == 0

    def test_intersection_matrix_symmetric(self):
        sets = [arr(1, 2, 3), arr(2, 3, 9), arr(0, 9)]
        mat = setops.intersection_matrix(sets)
        assert np.array_equal(mat, mat.T)

    def test_symmetric_difference_matrix_values(self):
        sets = [arr(1, 2), arr(2, 3)]
        mat = setops.symmetric_difference_matrix(sets)
        assert mat[0, 1] == 2
        assert mat[0, 0] == 0

    def test_empty_list(self):
        assert setops.intersection_matrix([]).shape == (0, 0)


class TestProperties:
    @given(a=index_sets, b=index_sets)
    @settings(max_examples=60, deadline=None)
    def test_partition_identity(self, a, b):
        """(a & b) and (a \\ b) partition a — the caching invariant."""
        inter, diff = setops.partition(a, b)
        assert np.array_equal(inter, setops.intersect(a, b))
        assert setops.intersect(inter, diff).size == 0
        assert np.array_equal(np.union1d(inter, diff), a)

    @given(a=index_sets, b=index_sets, c=index_sets)
    @settings(max_examples=40, deadline=None)
    def test_symdiff_triangle_inequality(self, a, b, c):
        """|a^c| <= |a^b| + |b^c| — the metric-TSP property (App A.1)."""
        d = setops.symmetric_difference_matrix([a, b, c])
        assert d[0, 2] <= d[0, 1] + d[1, 2]

    @given(sets=st.lists(index_sets, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_pairwise(self, sets):
        mat = setops.symmetric_difference_matrix(sets)
        for i in range(len(sets)):
            for j in range(len(sets)):
                assert mat[i, j] == np.setxor1d(sets[i], sets[j]).size

    @given(a=index_sets, b=index_sets)
    @settings(max_examples=40, deadline=None)
    def test_results_stay_canonical(self, a, b):
        for out in (setops.intersect(a, b), *setops.partition(a, b)):
            assert setops.is_sorted_unique(out)
