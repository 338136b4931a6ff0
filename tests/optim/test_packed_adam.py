"""PackedSparseAdam: the fused packed-row optimizer must agree bit-for-bit
with the per-name SparseAdam it replaces (they share one kernel)."""

import numpy as np
import pytest
from legacy_adam import step_rows_legacy

from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam, pack_named
from repro.optim.sparse_adam import SparseAdam

COLUMNS = {"a": (2, 3), "b": (4,), "c": ()}
ORDER = tuple(COLUMNS)


def make_named(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.normal(size=(n,) + shape) for name, shape in COLUMNS.items()
    }


def make_config():
    return AdamConfig(lr=0.01, lr_overrides={"a": 0.002, "c": 0.05})


def test_layout_and_lr_columns():
    opt = PackedSparseAdam(COLUMNS, 5, make_config())
    assert opt.width == 6 + 4 + 1
    assert opt.slices["b"] == slice(6, 10)
    expected = [0.002] * 6 + [0.01] * 4 + [0.05]
    np.testing.assert_array_equal(opt.lr_columns, expected)


def test_lr_columns_track_live_config_mutation():
    """Schedules mutate lr_overrides in place; the packed lr must follow."""
    cfg = make_config()
    opt = PackedSparseAdam(COLUMNS, 5, cfg)
    cfg.lr_overrides["a"] = 1e-5
    assert opt.lr_columns[0] == 1e-5


def test_step_packed_bitwise_matches_sparse_adam():
    named = make_named()
    cfg = make_config()
    legacy = SparseAdam({k: v.copy() for k, v in named.items()}, cfg)
    legacy_params = {k: v.copy() for k, v in named.items()}
    packed_opt = PackedSparseAdam(COLUMNS, 12, cfg)
    packed_params = pack_named(named, ORDER)

    rng = np.random.default_rng(1)
    for rows in [np.array([0, 3, 7]), np.arange(12), np.array([7])]:
        grads = {
            k: rng.normal(size=v.shape) for k, v in named.items()
        }
        legacy.step_rows(legacy_params, grads, rows)
        packed_grads = pack_named(grads, ORDER)
        packed_opt.step_packed(packed_params, packed_grads, rows)

    expected = pack_named(legacy_params, ORDER)
    assert np.array_equal(packed_params, expected)
    assert np.array_equal(packed_opt.packed_m, pack_named(legacy.m, ORDER))
    assert np.array_equal(packed_opt.packed_v, pack_named(legacy.v, ORDER))
    assert np.array_equal(packed_opt.steps, legacy.steps)


def test_step_through_padded_column_view():
    """Scattering through a column view of a padded buffer (the pinned
    store layout) updates only the data columns."""
    cfg = make_config()
    opt = PackedSparseAdam(COLUMNS, 6, cfg)
    padded = np.zeros((6, opt.width + 5))
    padded[:, : opt.width] = 1.0
    padded[:, opt.width :] = 99.0
    view = padded[:, : opt.width]
    grads = np.ones((6, opt.width))
    opt.step_packed(view, grads, np.array([0, 2]))
    assert not np.array_equal(view[0], np.ones(opt.width))
    np.testing.assert_array_equal(padded[:, opt.width :], 99.0)
    np.testing.assert_array_equal(view[1], 1.0)  # untouched row


def test_padded_gathered_block_updates_data_columns_only():
    """pad_to-style blocks: padding columns travel through unchanged."""
    opt = PackedSparseAdam(COLUMNS, 4, make_config(), pad_to=16)
    assert opt.width == 16 and opt.data_width == 11
    block = np.zeros((4, 16))
    block[:, 11:] = 7.0  # padding payload must survive
    grads = np.zeros((4, 16))
    grads[:, :11] = 1.0
    rows = np.array([0, 2])
    opt.step_packed(block, grads, rows)
    assert np.all(block[rows, :11] != 0.0)
    np.testing.assert_array_equal(block[[1, 3], :11], 0.0)  # untouched rows
    np.testing.assert_array_equal(block[:, 11:], 7.0)
    # padding moments stay exactly zero (zero grads there)
    assert not np.any(opt.packed_m[:, 11:])


def test_pad_to_narrower_than_data_rejected():
    with pytest.raises(ValueError, match="pad_to"):
        PackedSparseAdam(COLUMNS, 4, make_config(), pad_to=10)


def test_moment_views_alias_packed_arrays():
    opt = PackedSparseAdam(COLUMNS, 4, make_config())
    views = opt.m
    assert views["a"].shape == (4, 2, 3)
    views["a"][1, 1, 2] = 42.0
    assert opt.packed_m[1, opt.slices["a"].stop - 1] == 42.0


def test_float32_grads_accumulate_float64_moments():
    opt = PackedSparseAdam(COLUMNS, 4, make_config())
    params = np.zeros((4, opt.width))
    grads = np.ones((4, opt.width), dtype=np.float32)
    opt.step_packed(params, grads, np.arange(4))
    assert opt.packed_m.dtype == np.float64
    assert opt.packed_v.dtype == np.float64
    assert np.all(opt.steps == 1)


def test_resize_carries_state():
    opt = PackedSparseAdam(COLUMNS, 4, make_config())
    params = np.random.default_rng(0).normal(size=(4, opt.width))
    grads = np.ones((4, opt.width))
    opt.step_packed(params, grads, np.arange(4))
    old_m = opt.packed_m.copy()
    opt.resize(np.array([2, 0, -1]))
    assert opt.num_rows == 3
    np.testing.assert_array_equal(opt.packed_m[0], old_m[2])
    np.testing.assert_array_equal(opt.packed_m[1], old_m[0])
    assert not np.any(opt.packed_m[2])
    assert opt.steps.tolist() == [1, 1, 0]


def test_empty_rows_noop():
    opt = PackedSparseAdam(COLUMNS, 4, make_config())
    params = np.ones((4, opt.width))
    opt.step_packed(params, np.ones((4, opt.width)), np.array([], dtype=int))
    np.testing.assert_array_equal(params, 1.0)
    assert not np.any(opt.steps)


def test_state_bytes_counts_two_moments():
    opt = PackedSparseAdam(COLUMNS, 5, make_config())
    assert opt.state_bytes() == 5 * 11 * 2 * 4


def test_state_bytes_exclude_padding():
    opt = PackedSparseAdam(COLUMNS, 5, make_config(), pad_to=16)
    assert opt.state_bytes() == 5 * 11 * 2 * 4


def test_legacy_twin_parity():
    """The verbatim legacy loop (``tests/reference/legacy_adam.py``) and the
    fused kernel agree numerically (different association order, so
    allclose rather than bit-equality)."""
    named = make_named(seed=8)
    cfg = make_config()
    legacy = SparseAdam({k: v.copy() for k, v in named.items()}, cfg)
    modern = SparseAdam({k: v.copy() for k, v in named.items()}, cfg)
    p_legacy = {k: v.copy() for k, v in named.items()}
    p_modern = {k: v.copy() for k, v in named.items()}
    rng = np.random.default_rng(9)
    for rows in [np.array([0, 2, 5]), np.arange(12), np.array([5])]:
        grads = {k: rng.normal(size=v.shape) for k, v in named.items()}
        step_rows_legacy(legacy, p_legacy, grads, rows)
        modern.step_rows(p_modern, grads, rows)
    for k in named:
        np.testing.assert_allclose(
            p_legacy[k], p_modern[k], rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(
            legacy.m[k], modern.m[k], rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(
            legacy.v[k], modern.v[k], rtol=1e-10, atol=1e-14
        )
    assert np.array_equal(legacy.steps, modern.steps)
