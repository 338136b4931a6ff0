"""An alternative differentiable rendering backend: isotropic point splats.

Paper §8 argues CLM is *backend-agnostic*: it decides where data lives,
what to transfer and when to render, "without depending on the specific
rendering procedure", so it should port to Vulkan, ray tracing, 2DGS or
3D convex splatting unchanged.  We make that claim testable by providing a
second, deliberately different differentiable backend with the same
interface as :mod:`repro.gaussians.render`:

- splats are *isotropic* screen-space Gaussians (radius from mean scale
  and depth, no EWA covariance projection, no quaternions);
- compositing is normalized additive blending (no depth-ordered
  transmittance), so even the blend math differs from the tile rasterizer.

Gradients flow to positions, log-scales, SH (DC) and opacity; the
quaternion gradient is identically zero (orientation is invisible to an
isotropic splat).  The engine equivalence tests run CLM vs the GPU-only
baseline under this backend too — offloading must be invisible regardless
of the renderer.  It is a test fixture, not a shipped renderer: it is
passed in through ``EngineConfig.renderer`` / ``renderer_backward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.gaussians import sh as sh_module
from repro.gaussians.camera import Camera
from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.model import GaussianModel, sigmoid
from repro.gaussians.projection import project_means

EPS = 1e-6


@dataclass
class PointRenderResult:
    """Mirror of :class:`repro.gaussians.render.RenderResult`."""

    image: np.ndarray
    ctx: dict

    @property
    def num_rendered(self) -> int:
        return int(self.ctx["ids"].size)


def _footprints(camera: Camera, model: GaussianModel, ids: np.ndarray):
    means2d, depths, t_cam = project_means(camera, model.positions[ids])
    mean_scale = np.exp(model.log_scales[ids]).mean(axis=1)
    radius = camera.fx * mean_scale / np.maximum(depths, EPS)
    offsets = model.positions[ids] - camera.center
    norms = np.maximum(np.linalg.norm(offsets, axis=1, keepdims=True), EPS)
    dirs = offsets / norms
    colors, clamp = sh_module.sh_to_color(model.sh[ids], dirs, 0)
    opac = sigmoid(model.opacity_logits[ids])
    return means2d, depths, radius, colors, clamp, opac, offsets


def point_render(
    camera: Camera, model: GaussianModel, settings=None
) -> PointRenderResult:
    """Forward pass: normalized additive splatting.

    ``settings`` is accepted for interface parity with the tile
    rasterizer and ignored.
    """
    ids = cull_gaussians(
        camera, model.positions, model.log_scales, model.quaternions
    )
    h, w = camera.height, camera.width
    if ids.size == 0:
        return PointRenderResult(
            image=np.zeros((h, w, 3)),
            ctx={"ids": ids, "camera": camera, "num_input": model.num_gaussians},
        )
    means2d, depths, radius, colors, clamp, opac, offsets = _footprints(
        camera, model, ids
    )
    in_front = depths > camera.znear
    ys, xs = np.mgrid[0:h, 0:w]
    pix = np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=-1)  # (P, 2)

    diff = pix[None, :, :] - means2d[:, None, :]
    d2 = (diff**2).sum(-1)  # (G, P)
    sigma2 = np.maximum(radius, 0.5)[:, None] ** 2
    weight = np.where(
        in_front[:, None], opac[:, None] * np.exp(-0.5 * d2 / sigma2), 0.0
    )
    total = weight.sum(axis=0) + EPS  # (P,)
    rgb = (weight.T @ colors) / total[:, None]
    image = rgb.reshape(h, w, 3)
    ctx = {
        "ids": ids, "camera": camera, "weight": weight, "total": total,
        "colors": colors, "clamp": clamp, "opac": opac, "d2": d2,
        "sigma2": sigma2, "means2d": means2d, "depths": depths,
        "radius": radius, "offsets": offsets, "pix": pix,
        "in_front": in_front, "num_input": model.num_gaussians,
    }
    return PointRenderResult(image=image, ctx=ctx)


def point_render_backward(
    result: PointRenderResult, model: GaussianModel, dL_dimage: np.ndarray
) -> Dict[str, np.ndarray]:
    """Analytic backward of :func:`point_render` (FD-verified in tests)."""
    ctx = result.ctx
    ids = ctx["ids"]
    n = ctx["num_input"]
    grads = {
        "positions": np.zeros((n, 3)),
        "log_scales": np.zeros((n, 3)),
        "quaternions": np.zeros((n, 4)),
        "sh": np.zeros((n,) + model.sh.shape[1:]),
        "opacity_logits": np.zeros(n),
    }
    if ids.size == 0:
        return grads
    camera: Camera = ctx["camera"]
    g = dL_dimage.reshape(-1, 3)  # (P, 3)
    weight, total = ctx["weight"], ctx["total"]
    colors = ctx["colors"]

    # image_p = sum_g w_gp c_g / total_p
    d_colors = (weight / total[None, :]) @ g  # (G, 3)
    # dL/dw_gp = (c_g . g_p - rgb_p . g_p) / total_p
    rgb_dot_g = ((weight.T @ colors) / total[:, None] * g).sum(-1)  # (P,)
    cg = colors @ g.T  # (G, P)
    d_w = (cg - rgb_dot_g[None, :]) / total[None, :]

    # w = opac * exp(-0.5 d2 / sigma2)
    kernel = np.where(ctx["in_front"][:, None],
                      np.exp(-0.5 * ctx["d2"] / ctx["sigma2"]), 0.0)
    d_opac = (kernel * d_w).sum(axis=1)
    d_kernel = ctx["opac"][:, None] * d_w
    dw_dd2 = -0.5 / ctx["sigma2"] * kernel * d_kernel
    # d2 = |pix - mu|^2 -> d d2/d mu = -2 (pix - mu)
    diff = ctx["pix"][None, :, :] - ctx["means2d"][:, None, :]  # (G, P, 2)
    d_means2d = (-2.0 * dw_dd2[:, :, None] * diff).sum(axis=1)  # (G, 2)
    # d2 term also via sigma2: dw/dsigma2 = 0.5 d2/sigma2^2 * kernel * opac
    d_sigma2 = (0.5 * ctx["d2"] / ctx["sigma2"] ** 2 * kernel * d_kernel).sum(
        axis=1
    )

    # sigma = max(radius, 0.5); radius = fx * s_mean / depth
    radius = ctx["radius"]
    gate = radius > 0.5
    d_radius = 2.0 * np.maximum(radius, 0.5) * d_sigma2 * gate
    depths = np.maximum(ctx["depths"], EPS)
    mean_scale = radius * depths / camera.fx
    d_mean_scale = camera.fx / depths * d_radius
    d_depth_from_radius = -camera.fx * mean_scale / depths**2 * d_radius

    # positions: through means2d (projection) + depth + view direction (SH
    # degree 0 has no direction dependence, so only the first two).
    from repro.gaussians.projection import (
        camera_space_to_world_grad,
        project_means_backward,
    )

    _, _, t_cam = project_means(camera, model.positions[ids])
    d_t = project_means_backward(camera, t_cam, d_means2d)
    d_t[:, 2] += d_depth_from_radius
    d_pos = camera_space_to_world_grad(camera, d_t)

    # log-scales: mean of exp -> d mean_scale / d log_s_k = exp(log_s_k)/3
    scales = np.exp(model.log_scales[ids])
    d_log_scales = scales / 3.0 * d_mean_scale[:, None]

    d_sh, _ = sh_module.sh_backward(
        d_colors, model.sh[ids], ctx["offsets"] /
        np.maximum(np.linalg.norm(ctx["offsets"], axis=1, keepdims=True), EPS),
        0, ctx["clamp"],
    )
    d_logit = d_opac * ctx["opac"] * (1.0 - ctx["opac"])

    grads["positions"][ids] = d_pos
    grads["log_scales"][ids] = d_log_scales
    grads["sh"][ids] = d_sh
    grads["opacity_logits"][ids] = d_logit
    return grads
