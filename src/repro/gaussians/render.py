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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.gaussians.camera import Camera
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
