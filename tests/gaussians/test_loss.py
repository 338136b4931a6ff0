"""Losses and metrics: values, identities, analytic gradients."""

import numpy as np
import pytest

from repro.gaussians import loss


@pytest.fixture()
def images(rng):
    a = rng.uniform(0, 1, size=(24, 32, 3))
    b = rng.uniform(0, 1, size=(24, 32, 3))
    return a, b


def test_l1_identical_is_zero(images):
    a, _ = images
    value, grad = loss.l1_loss(a, a.copy())
    assert value == 0.0


def test_l1_value_and_gradient(images):
    a, b = images
    value, grad = loss.l1_loss(a, b)
    assert value == pytest.approx(np.mean(np.abs(a - b)))
    np.testing.assert_allclose(grad, np.sign(a - b) / a.size)


def test_psnr_identical_infinite(images):
    a, _ = images
    assert loss.psnr(a, a.copy()) == float("inf")


def test_psnr_known_value():
    a = np.zeros((4, 4, 3))
    b = np.full((4, 4, 3), 0.1)
    assert loss.psnr(a, b) == pytest.approx(20.0)  # 10 log10(1/0.01)


def test_psnr_monotonic_in_error(images):
    a, b = images
    closer = a + 0.1 * (b - a)
    assert loss.psnr(closer, a) > loss.psnr(b, a)


def test_ssim_identical_is_one(images):
    a, _ = images
    assert loss.ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)


def test_ssim_symmetric(images):
    a, b = images
    assert loss.ssim(a, b) == pytest.approx(loss.ssim(b, a), abs=1e-9)


def test_ssim_bounded(images):
    a, b = images
    assert -1.0 <= loss.ssim(a, b) <= 1.0


def test_ssim_decreases_with_noise(rng):
    a = rng.uniform(0, 1, size=(32, 32, 3))
    small = np.clip(a + 0.02 * rng.normal(size=a.shape), 0, 1)
    big = np.clip(a + 0.3 * rng.normal(size=a.shape), 0, 1)
    assert loss.ssim(small, a) > loss.ssim(big, a)


def test_ssim_with_grad_value_matches_plain(images):
    a, b = images
    v1 = loss.ssim(a, b)
    v2, _ = loss.ssim_with_grad(a, b)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_ssim_gradient_matches_fd(rng):
    a = rng.uniform(0.2, 0.8, size=(16, 18, 3))
    b = rng.uniform(0.2, 0.8, size=(16, 18, 3))
    _, grad = loss.ssim_with_grad(a, b)
    eps = 1e-6
    flat = a.reshape(-1)
    gflat = grad.reshape(-1)
    for i in rng.choice(flat.size, size=10, replace=False):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss.ssim(a, b)
        flat[i] = orig - eps
        lm = loss.ssim(a, b)
        flat[i] = orig
        assert gflat[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-3, abs=1e-7)


def test_photometric_loss_lambda_zero_is_l1(images):
    """The reference's L1 alone is ``l1_loss`` exactly.  ``native``'s sums
    the absolute errors in program order, not pairwise as ``np.mean`` does:
    ``test_native_loss``'s ``0.0`` cells hold it to the loss bars."""
    a, b = images
    v, g = loss.photometric_loss(a, b, ssim_lambda=0.0, kernel_backend="numpy")
    v2, g2 = loss.l1_loss(a, b)
    assert v == v2
    np.testing.assert_array_equal(g, g2)


def test_photometric_loss_combination(images):
    a, b = images
    lam = 0.2
    v, _ = loss.photometric_loss(a, b, ssim_lambda=lam)
    expected = (1 - lam) * loss.l1_loss(a, b)[0] + lam * (1 - loss.ssim(a, b))
    assert v == pytest.approx(expected, abs=1e-12)


def test_photometric_gradient_matches_fd(rng):
    a = rng.uniform(0.2, 0.8, size=(14, 14, 3))
    b = rng.uniform(0.2, 0.8, size=(14, 14, 3))
    _, grad = loss.photometric_loss(a, b, ssim_lambda=0.2)
    eps = 1e-6
    flat = a.reshape(-1)
    gflat = grad.reshape(-1)
    for i in rng.choice(flat.size, size=8, replace=False):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss.photometric_loss(a, b, 0.2)[0]
        flat[i] = orig - eps
        lm = loss.photometric_loss(a, b, 0.2)[0]
        flat[i] = orig
        assert gflat[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-3, abs=1e-7)


def test_perfect_reconstruction_zero_loss(images):
    a, _ = images
    v, _ = loss.photometric_loss(a, a.copy())
    assert v == pytest.approx(0.0, abs=1e-12)
