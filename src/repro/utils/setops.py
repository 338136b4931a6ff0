"""Sorted-index set algebra.

CLM reasons about *sets of Gaussian indices*: the in-frustum set ``S_i`` of
each view, cache intersections ``S_i & S_{i+1}``, deferred-gradient carries,
and the TSP distance ``|S_i ^ S_j|``.  We represent every set as a sorted,
duplicate-free ``int64`` array, which makes each operation a single
vectorized NumPy call and keeps memory proportional to the set size rather
than the scene size.

All functions assume (and preserve) the sorted-unique invariant; validation
is available via :func:`is_sorted_unique` and is exercised heavily by the
property-based tests.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def as_index_set(values) -> np.ndarray:
    """Coerce an iterable of indices into the canonical sorted-unique form."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size == 0:
        return _EMPTY.copy()
    return np.unique(arr)


def is_sorted_unique(indices: np.ndarray) -> bool:
    """Return True when ``indices`` satisfies the canonical invariant."""
    arr = np.asarray(indices)
    if arr.ndim != 1:
        return False
    if arr.size <= 1:
        return True
    return bool(np.all(arr[1:] > arr[:-1]))


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b`` — the Gaussians shared by two views (cache hits)."""
    if a.size == 0 or b.size == 0:
        return _EMPTY.copy()
    return np.intersect1d(a, b, assume_unique=True)


def partition(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(a & b, a \\ b)`` from one membership pass — the cached / loaded
    (or carried / stored) halves of a working set against its neighbour.

    One ``searchsorted`` of ``a`` into ``b`` and two boolean takes, where
    ``intersect`` + ``difference`` each concatenate and sort both sets.
    """
    if a.size == 0 or b.size == 0:
        return _EMPTY.copy(), a.copy()
    slot = np.minimum(np.searchsorted(b, a), b.size - 1)
    member = b[slot] == a
    return a[member], a[~member]


def intersection_matrix(sets: list) -> np.ndarray:
    """Pairwise ``|S_i & S_j|`` for a list of index sets.

    Builds a boolean indicator matrix over the union of all sets and takes a
    single matrix product, which is far faster than ``B^2`` pairwise
    ``intersect1d`` calls for the batch sizes CLM uses (B <= 64).

    This is the TSP distance-matrix hot path, so two things are
    vectorized: the universe and every set's column positions come from
    *one* ``np.unique`` pass over the concatenated sets (each element is
    touched once, never per pair), and the indicator is floating-point so
    the product runs through BLAS rather than NumPy's naive integer
    matmul.  Entries are exact: an intersection size never exceeds the
    total element count, which is checked against the mantissa width.
    """
    n_sets = len(sets)
    if n_sets == 0:
        return np.zeros((0, 0), dtype=np.int64)
    sizes = np.asarray([s.size for s in sets], dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros((n_sets, n_sets), dtype=np.int64)
    concat = np.concatenate([s for s in sets if s.size])
    universe, columns = np.unique(concat, return_inverse=True)
    rows = np.repeat(np.arange(n_sets, dtype=np.int64), sizes)
    # float32 is exact up to 2**24; counts are bounded by `total`.
    dtype = np.float32 if total < 2**24 else np.float64
    indicator = np.zeros((n_sets, universe.size), dtype=dtype)
    indicator[rows, columns] = 1
    product = indicator @ indicator.T
    return np.rint(product).astype(np.int64)


def symmetric_difference_matrix(sets: list) -> np.ndarray:
    """Pairwise ``|S_i ^ S_j|`` — the TSP distance matrix of §4.2.3."""
    inter = intersection_matrix(sets)
    sizes = np.asarray([s.size for s in sets], dtype=np.int64)
    return sizes[:, None] + sizes[None, :] - 2 * inter
