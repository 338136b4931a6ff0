"""Sparse (subset-updating) Adam — the CPU Adam of §5.4.

The central property: updating rows at *different times* (CLM's overlapped
chunks) is equivalent to updating them together, because moments and bias
correction are per-row.  This is the paper's correctness argument for
overlapped CPU Adam and the reason the equivalence tests can demand
bitwise-level agreement.
"""

import numpy as np
import pytest

from repro.optim.adam import Adam, AdamConfig
from repro.optim.sparse_adam import SparseAdam


def make_params(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.normal(size=(n, 3)),
        "b": rng.normal(size=n),
    }


def clone(params):
    return {k: v.copy() for k, v in params.items()}


def test_all_rows_matches_dense_adam():
    params_sparse = make_params()
    params_dense = clone(params_sparse)
    cfg = AdamConfig(lr=0.01)
    sparse = SparseAdam(params_sparse, cfg)
    dense = Adam(params_dense, cfg)
    rng = np.random.default_rng(1)
    for _ in range(5):
        grads = {k: rng.normal(size=v.shape) for k, v in params_sparse.items()}
        sparse.step_rows(params_sparse, grads, np.arange(6))
        dense.step(params_dense, grads)
    for k in params_sparse:
        np.testing.assert_allclose(params_sparse[k], params_dense[k], rtol=1e-12)


def test_untouched_rows_unchanged():
    params = make_params()
    before = clone(params)
    opt = SparseAdam(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    opt.step_rows(params, grads, np.array([1, 3]))
    for k in params:
        np.testing.assert_array_equal(params[k][0], before[k][0])
        np.testing.assert_array_equal(params[k][2], before[k][2])
        assert not np.allclose(params[k][1], before[k][1])


def test_split_chunks_equal_single_update():
    """F_1..F_B applied at different times == one union update (§4.2.2)."""
    params_a = make_params()
    params_b = clone(params_a)
    grads = {k: np.random.default_rng(2).normal(size=v.shape)
             for k, v in params_a.items()}
    opt_a = SparseAdam(params_a)
    opt_b = SparseAdam(params_b)
    opt_a.step_rows(params_a, grads, np.array([0, 1, 2, 3, 4, 5]))
    for chunk in (np.array([4, 5]), np.array([0, 2]), np.array([1, 3])):
        opt_b.step_rows(params_b, grads, chunk)
    for k in params_a:
        np.testing.assert_allclose(params_a[k], params_b[k], rtol=1e-14)


def test_per_row_step_counts():
    params = make_params()
    opt = SparseAdam(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    opt.step_rows(params, grads, np.array([0, 1]))
    opt.step_rows(params, grads, np.array([1]))
    assert opt.steps.tolist() == [1, 2, 0, 0, 0, 0]


def test_empty_rows_noop():
    params = make_params()
    before = clone(params)
    opt = SparseAdam(params)
    opt.step_rows(params, {k: np.ones_like(v) for k, v in params.items()},
                  np.array([], dtype=np.int64))
    for k in params:
        np.testing.assert_array_equal(params[k], before[k])


def test_resize_carries_state():
    params = make_params(4)
    opt = SparseAdam(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    opt.step_rows(params, grads, np.array([0, 1, 2, 3]))
    old_m = {k: v.copy() for k, v in opt.m.items()}
    # New layout: old rows 2, 0 survive; one brand-new row.
    keep = np.array([2, 0, -1])
    new_params = {k: np.zeros((3,) + v.shape[1:]) for k, v in params.items()}
    opt.resize(new_params, keep)
    assert opt.num_rows == 3
    np.testing.assert_array_equal(opt.m["a"][0], old_m["a"][2])
    np.testing.assert_array_equal(opt.m["a"][1], old_m["a"][0])
    assert not np.any(opt.m["a"][2])
    assert opt.steps.tolist() == [1, 1, 0]


def test_mismatched_rows_rejected():
    with pytest.raises(ValueError):
        SparseAdam({"a": np.zeros((3, 2)), "b": np.zeros(4)})


def test_state_bytes_counts_two_moments():
    params = make_params(5)
    opt = SparseAdam(params)
    assert opt.state_bytes() == (5 * 3 + 5) * 2 * 4
