"""High-level differentiable rendering API.

``render`` produces an image plus a :class:`RenderResult` whose context can
be fed to ``render_backward`` to obtain parameter gradients.  This is the
interface both trainers use: the GPU-only baselines render the *whole*
model, while CLM renders the gathered in-frustum working set (the
rasterizer is agnostic — it just sees a smaller model, which is exactly the
compute/activation saving of pre-rendering frustum culling, §5.1).

Execution runs on the vectorized CSR substrate of
:mod:`repro.gaussians.rasterizer`; on every backend, backward reads
the blend state the forward pass kept when
``RasterSettings.cache_blend_state`` is on (NumPy's slab cache, ``native``'s
blend records) instead of regenerating it, and
:attr:`RenderResult.activation_bytes` reports the context's real retained
footprint (what the CLM memory model accounts against ``|S_i|``).

:func:`train_view` is a training view as the three calls — ``render``, the
photometric loss, ``render_backward`` — the reference of the ``view_train``
kernel op, which ``native`` runs as one bound call instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.loss import photometric_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import (
    RasterSettings,
    RenderContext,
    rasterize_forward,
)
from repro.gaussians.rasterizer_grad import rasterize_backward


@dataclass
class RenderResult:
    """Output of a differentiable render."""

    image: np.ndarray  # (H, W, 3)
    transmittance: np.ndarray  # (H, W)
    ctx: RenderContext

    @property
    def alpha(self) -> np.ndarray:
        """Per-pixel accumulated opacity (1 - residual transmittance)."""
        return 1.0 - self.transmittance

    @property
    def num_rendered(self) -> int:
        """How many input Gaussians survived preprocessing for this view."""
        return int(self.ctx.proj.ids.size)

    @property
    def activation_bytes(self) -> int:
        """Saved-state footprint of this render (projected arrays, CSR
        tile keys, and the blend state when retained)."""
        return self.ctx.activation_bytes()


def render(
    camera: Camera,
    model: GaussianModel,
    settings: Optional[RasterSettings] = None,
) -> RenderResult:
    """Differentiably render ``model`` from ``camera``."""
    image, transmittance, ctx = rasterize_forward(camera, model, settings)
    return RenderResult(image=image, transmittance=transmittance, ctx=ctx)


def render_backward(
    result: RenderResult, model: GaussianModel, dL_dimage: np.ndarray
) -> Dict[str, np.ndarray]:
    """Backpropagate an image-space gradient to model-parameter gradients."""
    if dL_dimage.shape != result.image.shape:
        raise ValueError(
            f"gradient shape {dL_dimage.shape} != image shape {result.image.shape}"
        )
    return rasterize_backward(result.ctx, model, dL_dimage)


def train_view(
    camera: Camera,
    model: GaussianModel,
    settings: RasterSettings,
    target: np.ndarray,
    moments,
    ssim_lambda: float,
    batch: int,
    workspace=None,
    *,
    renderer=None,
    loss_backend=None,
):
    """One training view: render, the photometric loss against ``target``
    (over its kept ``moments``; None: computed here), backpropagate.  Returns
    ``(loss, grads)``, the gradients scaled by ``1 / batch``.

    The reference of the ``view_train`` kernel op and the one composition
    every engine runs where ``native`` does not take the op: ``renderer``
    replaces the ``(render, render_backward)`` pair (an engine passes its
    own), ``loss_backend`` runs the loss op (a name or an ``OpDispatch``;
    default ``settings.kernel_backend``).  A ``workspace`` receives the
    two halves' seconds and the backend that composited; the gradients are
    fresh arrays, so no lease is taken.
    """
    forward, backward = renderer or (render, render_backward)
    start = time.perf_counter()
    result = forward(camera, model, settings)
    forward_s = time.perf_counter() - start
    loss, g_img = photometric_loss(
        result.image, target, ssim_lambda, moments,
        kernel_backend=loss_backend or settings.kernel_backend,
    )
    start = time.perf_counter()
    grads = backward(result, model, g_img / batch)
    if workspace is not None:
        workspace.backward_s = time.perf_counter() - start
        workspace.forward_s = forward_s
        # A custom renderer's result may carry no context.
        workspace.rendered_on = getattr(
            getattr(result, "ctx", None), "kernel_backend", None
        )
    return loss, grads
