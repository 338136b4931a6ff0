"""Training losses and quality metrics.

3DGS optimizes ``(1 - lambda) * L1 + lambda * (1 - SSIM)`` with
``lambda = 0.2``; evaluation reports PSNR (paper Figure 9).  Both the loss
values and their analytic image-space gradients are implemented here; the
SSIM gradient is derived through the raw windowed moments (see
``ssim_with_grad``) and is verified against finite differences in the test
suite.

The training loss is a kernel op, ``photometric_loss``
(:mod:`repro.kernels`): :func:`photometric_loss` hands the images and the
target's moments to the backend it is given.  ``native`` computes value
and gradient in one C call that sums every window in registers, over
symmetric pairs of taps; the NumPy op is :func:`l1_loss` plus
:func:`ssim_with_grad` below, the reference the C is held to (see
:mod:`repro.kernels.native_backend` for how closely).  Both take the same
operands: float64 ``(H, W, 3)`` images and the target's moments, L1 alone
(``ssim_lambda == 0``) included; ``native`` refuses a grayscale image,
which only the reference, named, computes.

In the NumPy op the SSIM window is applied as two matrix products.
Filtering an ``(H, W)`` plane with the separable, zero-padded 11-tap
window is ``A_H @ X @ A_W^T``
for the banded Toeplitz matrices of the window (:func:`_window_matrix`,
cached per image size), so every moment map of a pass — all channels of
``x``, ``x^2`` and ``x y`` forward, of the three moment gradients backward —
is stacked into one ``(K, H, W)`` block and filtered by two ``np.matmul``
calls (:func:`_filter_planes`): four GEMM calls an image where a
per-map, per-axis filter made sixteen.  At the ~1000-pixel images of the
functional engines the dense products cost less than the per-call overhead
they replace; ``tests/gaussians/test_loss_gemm.py`` pins value and gradient
to the ``scipy.ndimage.convolve1d`` form at 1e-15.

What the SSIM map takes from the *target* alone (``E[y]``, ``E[y^2]`` and
the denominator terms built from them) does not change between epochs:
:class:`TargetMoments` computes it once per target image and
:func:`photometric_loss` accepts it back (the engines keep one per view,
see ``EngineBase._target_moments``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels.registry import OpDispatch

DEFAULT_SSIM_LAMBDA = 0.2
_C1 = 0.01**2
_C2 = 0.03**2
#: The training loss's SSIM window: size and sigma.
_WINDOW = (11, 1.5)


def l1_loss(rendered: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean absolute error and its gradient with respect to ``rendered``."""
    diff = rendered - target
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def mse(rendered: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((rendered - target) ** 2))


def psnr(rendered: np.ndarray, target: np.ndarray, max_value: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher is better)."""
    err = mse(rendered, target)
    if err <= 0:
        return float("inf")
    return float(10.0 * np.log10(max_value**2 / err))


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    xs = np.arange(size) - (size - 1) / 2.0
    w = np.exp(-(xs**2) / (2 * sigma**2))
    return w / w.sum()


@functools.lru_cache(maxsize=64)
def _window_matrix(n: int, size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """``(n, n)`` banded Toeplitz matrix ``A`` of the SSIM window: ``A @ v``
    filters a length-``n`` signal with zero padding ("constant" mode).

    Symmetric, because the window is — which makes the 2D operator
    self-adjoint and is what renders the analytic SSIM gradient exact at
    image borders as well as in the interior.  Read-only: the cache hands
    the same array to every caller.
    """
    if size % 2 == 0:
        raise ValueError(f"the SSIM window must have an odd size, got {size}")
    window = _gaussian_window(size, sigma)
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + (size - 1) // 2
    inside = (offset >= 0) & (offset < size)
    matrix = np.where(inside, window[np.clip(offset, 0, size - 1)], 0.0)
    matrix.setflags(write=False)
    return matrix


def _to_planes(img: np.ndarray) -> np.ndarray:
    """An ``(H, W)`` or ``(H, W, C)`` image as contiguous ``(..., H, W)``
    planes, the layout :func:`_filter_planes` multiplies."""
    return np.ascontiguousarray(np.moveaxis(img, (0, 1), (-2, -1)))


def _from_planes(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_planes` (a view)."""
    return np.moveaxis(planes, (-2, -1), (0, 1))


def _filter_planes(planes: np.ndarray, size: int, sigma: float) -> np.ndarray:
    """Window-filter every trailing ``(H, W)`` plane of a contiguous
    ``(..., H, W)`` stack: one product along ``W`` for the whole stack, one
    broadcast product along ``H``."""
    h, w = planes.shape[-2:]
    rows = np.matmul(planes.reshape(-1, w), _window_matrix(w, size, sigma))
    return np.matmul(
        _window_matrix(h, size, sigma), rows.reshape(-1, h, w)
    ).reshape(planes.shape)


@dataclass(frozen=True)
class TargetMoments:
    """What the SSIM map needs of the target image alone: its planes and,
    from the windowed moments ``E[y]`` and ``E[y^2]``, the target's share
    of the two denominators.

    ``target`` is the array they were computed from, held so that "is this
    still the same target?" is an identity test on a live object (an ``id``
    alone could be recycled).  In-place edits of that array are not seen.
    Four times the target's bytes, on the host beside it.
    """

    target: np.ndarray
    window: Tuple[int, float]
    planes: np.ndarray  # y, (..., H, W)
    uy: np.ndarray  # E[y]
    uy2_c1: np.ndarray  # E[y]^2 + C1
    vy_c2: np.ndarray  # E[y^2] - E[y]^2 + C2

    @classmethod
    def of(
        cls, target: np.ndarray, window_size: int = 11, sigma: float = 1.5
    ) -> "TargetMoments":
        planes = _to_planes(target)
        uy, uyy = _filter_planes(
            np.stack([planes, planes * planes]), window_size, sigma
        )
        uy2 = uy * uy
        return cls(
            target, (window_size, sigma), planes, uy, uy2 + _C1, uyy - uy2 + _C2
        )

    def matches(self, target: np.ndarray, window_size: int, sigma: float) -> bool:
        return self.target is target and self.window == (window_size, sigma)


def _ssim_terms(x: np.ndarray, moments: TargetMoments):
    """The SSIM map's factors ``(a1, a2, b1, b2)`` — ``S = a1 a2 / (b1 b2)``
    — and ``E[x]``, for rendered planes ``x`` against a target's moments."""
    stack = np.empty((3,) + x.shape)
    stack[0] = x
    np.multiply(x, x, out=stack[1])
    np.multiply(x, moments.planes, out=stack[2])
    ux, uxx, uxy = _filter_planes(stack, *moments.window)
    ux2 = ux * ux
    ux_uy = ux * moments.uy
    a1 = 2 * ux_uy + _C1
    a2 = 2 * (uxy - ux_uy) + _C2
    b1 = ux2 + moments.uy2_c1
    b2 = (uxx - ux2) + moments.vy_c2
    return a1, a2, b1, b2, ux


def ssim(
    rendered: np.ndarray,
    target: np.ndarray,
    window_size: int = 11,
    sigma: float = 1.5,
) -> float:
    """Mean structural similarity over all pixels/channels."""
    moments = TargetMoments.of(target, window_size, sigma)
    a1, a2, b1, b2, _ = _ssim_terms(_to_planes(rendered), moments)
    return float(np.mean((a1 * a2) / (b1 * b2)))


def ssim_with_grad(
    rendered: np.ndarray,
    target: np.ndarray,
    window_size: int = 11,
    sigma: float = 1.5,
    moments: Optional[TargetMoments] = None,
) -> Tuple[float, np.ndarray]:
    """SSIM and its analytic gradient with respect to ``rendered``.

    Writing the SSIM map ``S`` as a function of the raw windowed moments
    ``(ux, uy, uxx, uyy, uxy)`` gives pixelwise partials; the chain rule back
    to the image is a second filtering pass:

    ``dL/dx = W * g_ux + 2 x (W * g_uxx) + y (W * g_uxy)``

    where ``W *`` denotes filtering with the (symmetric) SSIM window and
    ``g_m = dL/dS . dS/dm``.

    ``moments`` are the target's :class:`TargetMoments` when the caller
    kept them; anything not computed from this very ``target`` object and
    window is ignored and recomputed.
    """
    if moments is None or not moments.matches(target, window_size, sigma):
        moments = TargetMoments.of(target, window_size, sigma)
    x, y = _to_planes(rendered), moments.planes
    a1, a2, b1, b2, ux = _ssim_terms(x, moments)
    inv_b1b2 = 1.0 / (b1 * b2)
    s_map = a1 * a2 * inv_b1b2
    value = float(np.mean(s_map))

    # g_m = dS/dm / n for each raw moment m (upstream dL/dS = 1/n for the
    # mean):  dS/duxx = -S / b2,  dS/duxy = 2 a1 / (b1 b2),
    # dS/dux = 2 uy (a2 - a1) / (b1 b2) - 2 ux S / b1 + 2 ux S / b2.
    s_map /= s_map.size
    inv_b1b2 /= s_map.size
    g = np.empty((3,) + x.shape)
    g_ux, g_uxx, g_uxy = g
    np.divide(s_map, b2, out=g_uxx)
    np.negative(g_uxx, out=g_uxx)
    np.multiply(a1, inv_b1b2, out=g_uxy)
    g_uxy *= 2
    np.subtract(a2, a1, out=g_ux)
    g_ux *= moments.uy
    g_ux *= inv_b1b2
    g_ux -= ux * (s_map / b1 + g_uxx)
    g_ux *= 2
    f_ux, f_uxx, f_uxy = _filter_planes(g, window_size, sigma)
    f_uxx *= x
    f_uxx *= 2
    f_uxy *= y
    f_ux += f_uxx
    f_ux += f_uxy
    return value, np.ascontiguousarray(_from_planes(f_ux))


def photometric_loss(
    rendered: np.ndarray,
    target: np.ndarray,
    ssim_lambda: float = DEFAULT_SSIM_LAMBDA,
    moments: Optional[TargetMoments] = None,
    *,
    kernel_backend: str | OpDispatch | None = None,
) -> Tuple[float, np.ndarray]:
    """The 3DGS training loss ``(1-l)*L1 + l*(1-SSIM)`` with gradient.

    ``moments``: the target's :class:`TargetMoments`, if the caller kept
    them from an earlier pass over the same target (anything else is
    recomputed).  ``kernel_backend`` runs the ``photometric_loss`` kernel
    op: a backend name (``None``: ``auto``), or the caller's own
    :class:`~repro.kernels.registry.OpDispatch`, which resolves it once.
    """
    ops = (
        kernel_backend
        if isinstance(kernel_backend, OpDispatch)
        else OpDispatch(kernel_backend)
    )
    if moments is None or not moments.matches(target, *_WINDOW):
        moments = TargetMoments.of(target, *_WINDOW)
    return ops("photometric_loss")(rendered, target, ssim_lambda, moments)
