"""GaussianModel: construction, accounting, structural ops."""

import numpy as np
import pytest

from repro.gaussians.model import (
    PARAMS_PER_GAUSSIAN,
    GaussianModel,
    inverse_sigmoid,
    sigmoid,
)


def test_params_per_gaussian_is_59():
    """Paper Table 1: 3 + 7 + 48 + 1 = 59 learnable parameters."""
    assert PARAMS_PER_GAUSSIAN == 59


def test_random_shapes():
    m = GaussianModel.random(10, sh_degree=3, seed=0)
    assert m.positions.shape == (10, 3)
    assert m.log_scales.shape == (10, 3)
    assert m.quaternions.shape == (10, 4)
    assert m.sh.shape == (10, 16, 3)
    assert m.opacity_logits.shape == (10,)


def test_random_reproducible():
    a = GaussianModel.random(5, seed=3)
    b = GaussianModel.random(5, seed=3)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_training_state_bytes_formula():
    """N x 59 x 4 floats x 4 bytes (paper §2.2) regardless of stored degree."""
    for degree in (1, 3):
        m = GaussianModel.random(100, sh_degree=degree, seed=0)
        assert m.training_state_bytes() == 100 * 59 * 4 * 4


def test_from_point_cloud_uses_colors():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    colors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    m = GaussianModel.from_point_cloud(pts, colors=colors, sh_degree=1)
    from repro.gaussians.sh import sh_to_color

    dirs = np.tile([[0.0, 0.0, 1.0]], (2, 1))
    rendered, _ = sh_to_color(m.sh, dirs, 0)
    np.testing.assert_allclose(rendered, colors, atol=1e-10)


def test_from_point_cloud_scales_follow_nn_distance():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [5.0, 5.0, 5.0]])
    m = GaussianModel.from_point_cloud(pts, sh_degree=1)
    # The isolated point gets a much larger initial scale.
    assert m.log_scales[2, 0] > m.log_scales[0, 0]


def test_gather_and_clone_are_copies():
    m = GaussianModel.random(6, seed=1)
    sub = m.gather(np.array([0, 2]))
    sub.positions[:] = 99.0
    assert not np.any(m.positions == 99.0)
    assert sub.num_gaussians == 2


def test_gather_takes_each_array_once_into_its_own_buffer():
    m = GaussianModel.random(1000, sh_degree=1, seed=4)
    rows = np.random.default_rng(0).choice(1000, size=675, replace=False)
    rows.sort()
    sub = m.gather(rows)
    for name, arr in sub.parameters().items():
        source = m.parameters()[name]
        np.testing.assert_array_equal(arr, source[rows])
        assert arr.flags.c_contiguous and arr.flags.owndata, name
        before = source.copy()
        arr[...] = -7.0
        np.testing.assert_array_equal(source, before)


def test_extend_concatenates():
    a = GaussianModel.random(3, seed=1)
    b = GaussianModel.random(2, seed=2)
    c = a.extend(b)
    assert c.num_gaussians == 5
    np.testing.assert_array_equal(c.positions[:3], a.positions)
    np.testing.assert_array_equal(c.positions[3:], b.positions)


def test_extend_rejects_mixed_degrees():
    a = GaussianModel.random(2, sh_degree=1, seed=0)
    b = GaussianModel.random(2, sh_degree=2, seed=0)
    with pytest.raises(ValueError):
        a.extend(b)


def test_keep_filters_by_mask():
    m = GaussianModel.random(5, seed=1)
    kept = m.keep(np.array([True, False, True, False, False]))
    assert kept.num_gaussians == 2
    np.testing.assert_array_equal(kept.positions[1], m.positions[2])


def test_shape_validation():
    m = GaussianModel.random(4, seed=0)
    with pytest.raises(ValueError):
        GaussianModel(
            m.positions, m.log_scales[:2], m.quaternions, m.sh,
            m.opacity_logits, m.sh_degree,
        )


def test_opacities_in_unit_interval():
    m = GaussianModel.random(20, seed=0)
    o = m.opacities()
    assert np.all((o > 0) & (o < 1))


def test_sigmoid_inverse_roundtrip(rng):
    y = rng.uniform(0.01, 0.99, size=50)
    np.testing.assert_allclose(sigmoid(inverse_sigmoid(y)), y, atol=1e-10)


def test_sigmoid_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_zero_gradients_match_shapes():
    m = GaussianModel.random(7, seed=0)
    grads = m.zero_gradients()
    for name, arr in m.parameters().items():
        assert grads[name].shape == arr.shape
        assert not np.any(grads[name])
