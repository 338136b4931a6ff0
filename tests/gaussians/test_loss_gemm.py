"""The banded-GEMM SSIM is the ``convolve1d`` SSIM.

``ssim_oracle`` (tests/conftest.py) is the loss as it was computed with
``scipy.ndimage``; the product code filters with two matrix products and
reuses the target's moments.  Same value and gradient to rounding, with
and without the kept moments — and moments kept for another target are
never used.  ``photometric_loss`` is a kernel op: here it runs on whatever
``auto`` resolves to (``native``'s register sums where a C compiler
exists), and ``tests/kernels/other_backends`` runs it on the other backend.
"""

import numpy as np
import pytest

from repro.gaussians import loss
from repro.gaussians.loss import TargetMoments

TOL = 1e-15

#: ``(H, W)``: the two ``bench_e2e`` training sizes and an image smaller
#: than the 11-tap window in both directions.
SIZES = [(24, 32), (30, 40), (7, 9)]


def image_pair(size, seed=0, channels=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = size + (channels,) if channels else size
    return (
        rng.uniform(0, 1, size=shape).astype(dtype),
        rng.uniform(0, 1, size=shape).astype(dtype),
    )


@pytest.mark.parametrize("size", SIZES)
def test_value_and_gradient_match_the_scipy_oracle(ssim_oracle, size):
    x, y = image_pair(size)
    want_value, want_grad = ssim_oracle(x, y)
    value, grad = loss.ssim_with_grad(x, y)
    assert abs(value - want_value) <= TOL
    assert np.abs(grad - want_grad).max() <= TOL
    assert abs(loss.ssim(x, y) - want_value) <= TOL
    assert grad.shape == x.shape and grad.flags.c_contiguous


@pytest.mark.parametrize("size", SIZES)
def test_kept_target_moments_change_nothing(ssim_oracle, size):
    x, y = image_pair(size, seed=1)
    moments = TargetMoments.of(y)
    assert moments.target is y
    fresh = loss.photometric_loss(x, y, 0.2)
    kept = loss.photometric_loss(x, y, 0.2, moments)
    assert fresh[0] == kept[0]
    assert np.array_equal(fresh[1], kept[1])
    # And the whole training loss against the oracle.
    l1, l1_grad = loss.l1_loss(x, y)
    s_val, s_grad = ssim_oracle(x, y)
    assert abs(kept[0] - (0.8 * l1 + 0.2 * (1.0 - s_val))) <= TOL
    assert np.abs(kept[1] - (0.8 * l1_grad - 0.2 * s_grad)).max() <= TOL


def test_moments_of_another_target_are_not_used(ssim_oracle):
    """Same shape, equal bytes even — but not the object the moments were
    computed from, so they must be recomputed, not trusted."""
    x, y = image_pair((24, 32), seed=2)
    _, other = image_pair((24, 32), seed=3)
    stale = TargetMoments.of(other)
    value, grad = loss.ssim_with_grad(x, y, moments=stale)
    want_value, want_grad = ssim_oracle(x, y)
    assert abs(value - want_value) <= TOL
    assert np.abs(grad - want_grad).max() <= TOL
    twin = TargetMoments.of(y.copy())
    assert not twin.matches(y, 11, 1.5)


def test_moments_are_tied_to_their_window(ssim_oracle):
    x, y = image_pair((24, 32), seed=4)
    default = TargetMoments.of(y)
    value, grad = loss.ssim_with_grad(x, y, window_size=7, sigma=1.0, moments=default)
    want_value, want_grad = ssim_oracle(x, y, window_size=7, sigma=1.0)
    assert abs(value - want_value) <= TOL
    assert np.abs(grad - want_grad).max() <= TOL


def test_grayscale_images(ssim_oracle):
    x, y = image_pair((24, 32), seed=5, channels=0)
    value, grad = loss.ssim_with_grad(x, y)
    want_value, want_grad = ssim_oracle(x, y)
    assert abs(value - want_value) <= TOL
    assert np.abs(grad - want_grad).max() <= TOL


def test_even_windows_are_rejected():
    x, y = image_pair((12, 12))
    with pytest.raises(ValueError, match="odd"):
        loss.ssim(x, y, window_size=10)


def test_window_matrix_is_the_zero_padded_filter():
    """Row ``i`` of the matrix is the window centred on sample ``i`` and
    cut off at the borders (zero padding), and it is symmetric."""
    a = loss._window_matrix(16)
    window = loss._gaussian_window()
    assert not a.flags.writeable
    assert np.array_equal(a, a.T)
    assert np.array_equal(a[8, 3:14], window)
    assert np.array_equal(a[0, :6], window[5:]) and not a[0, 6:].any()
    small = loss._window_matrix(4)  # shorter than the window
    assert np.array_equal(small[0], window[5:9])


def test_src_does_not_import_scipy_ndimage():
    import pathlib
    import re

    import repro

    importing = re.compile(r"^\s*(from|import)\s+scipy(\.ndimage|\s+import\s+ndimage)", re.M)
    root = pathlib.Path(repro.__file__).parent
    assert [
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if importing.search(path.read_text())
    ] == []
