"""Analytic backward pass of the tile rasterizer.

Applies the standard front-to-back compositing gradient on the grouped CSR
substrate of :mod:`repro.gaussians.rasterizer`:

``C_p = sum_g w_gp c_g + T_final,p * bg`` with ``w_gp = a_gp T_gp`` gives

- ``dL/dc_g      = sum_p w_gp g_p``
- ``dL/da_gp     = T_gp (c_g . g_p) - suffix_gp / (1 - a_gp)``

where ``suffix_gp`` is the blended contribution *behind* splat ``g`` (the
reverse-cumulative term the CUDA kernels accumulate back-to-front).  From
the alpha gradient everything chains analytically down to the 59 learnable
parameters: opacity logit, screen mean -> camera point -> world position,
conic -> 2D covariance -> world covariance -> log-scales and quaternion,
and colour -> SH coefficients and (through the view direction) position
again.

Execution: tiles are processed in the same padded slabs as the forward
pass, by the two-level kernel of :mod:`repro.kernels.numpy_backend`.  Per
slab it reads three cell tensors — ``weights = a T active``, the odds
``a / (1 - a)`` and the boolean ``gate`` (cap not reached), taken from the
forward pass's blend cache (``RasterSettings.cache_blend_state``) or
regenerated slab-wise — and forms, with ``cg_gp = c_g . g_p``::

    d_power_gp = gate * (w cg - (total_p - csum_gp) * odds)

(the alpha gradient above, already times ``alpha_raw``; ``csum`` is the
running sum of ``w cg`` over splats and ``total_p = csum[-1] + T_final,p
(g_p . bg)``).  Only its colour sums and tile-centred pixel moments leave
the slab; the chain to mean, conic and opacity gradients and one
``np.bincount`` segment sum over the CSR order array (:func:`_segment_sum`,
instead of ``np.add.at`` fetch-adds) run once per view.  In the float32
compute mode the blend state is float32 but all gradient accumulators stay
float64.

The chain from the screen-space gradients to the parameters
(:func:`_chain_to_parameters`) rebuilds no geometry: the rotation matrices,
activated scales, unit quaternions and unit view directions it needs were
built once by the forward pass's ``preprocess`` and ride on the
:class:`~repro.gaussians.rasterizer.ProjectedGaussians`
(:class:`~repro.gaussians.covariance.GaussianShape`, ``dirs``), and
``dL/dR -> dL/dq`` is a contraction with a constant coefficient matrix
(:func:`repro.gaussians.quaternion.backprop_rotation`), not with a
materialised ``(M, 4, 3, 3)`` Jacobian.  A projection that carries no
retained geometry has it rebuilt from the model, to the same gradients.

The pre-substrate per-tile backward pass is a test-only oracle in
``tests/reference/legacy_raster.py``; the parity suite pins the grouped
path against it for every parameter group.

Since the whole-view kernel ops, :func:`rasterize_backward` runs the
backward pass of the backend that made its context
(:meth:`~repro.gaussians.rasterizer.RenderContext.backward_pass`): the NumPy
reference runs the slab path described above and then
:func:`_chain_to_parameters` — which stays a public NumPy function with no
dispatch inside it — while ``native`` fuses the suffix-sum gradient and
the whole chain to the 59 parameters into one C call over the blocks its
forward pass laid the view out in: it walks the blend records the forward
kept when ``cache_blend_state`` is on and replays the forward to regenerate
them when it is off, to bit-identical gradients (``tests/kernels`` pins
every backend to the same 1e-10 bar).  A context without such blocks — one
NumPy made, or one whose projection was replaced — is chained by the
reference.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.gaussians import sh as sh_module
from repro.gaussians.covariance import (
    GaussianShape,
    invert_cov2d_backward,
    project_covariance_backward,
)
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import (
    camera_space_to_world_grad,
    project_means_backward,
)
from repro.gaussians.quaternion import backprop_unit, unit_and_norm
from repro.gaussians.rasterizer import (
    RenderContext,
    image_to_tile_major,  # noqa: F401  (re-exported: tests and benchmarks)
)


def _segment_sum(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum ``values`` (one per entry of ``rows``) into ``size`` segments.

    ``values`` may carry trailing dimensions; each flattened column is
    reduced with one ``np.bincount`` over offset indices — the NumPy
    equivalent of the CUDA kernels' segmented reductions, replacing the
    per-tile ``np.add.at`` scatters of the pre-substrate loop.
    """
    trailing = values.shape[rows.ndim :]
    flat_rows = np.ravel(rows)
    flat = values.reshape(flat_rows.size, -1).astype(np.float64, copy=False)
    d = flat.shape[1]
    if d == 1:
        out = np.bincount(flat_rows, weights=flat[:, 0], minlength=size)
    else:
        idx = flat_rows[:, None] * d + np.arange(d)[None, :]
        out = np.bincount(idx.ravel(), weights=flat.ravel(), minlength=size * d)
    return out[: size * d].reshape((size,) + trailing)


def rasterize_backward(
    ctx: RenderContext,
    model: GaussianModel,
    dL_dimage: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Gradient of the rendered image with respect to all model parameters.

    ``model`` must be the same object (or identical values) rendered
    forward; gradients are returned as full-size arrays matching
    ``model.parameters()`` with zeros for Gaussians that did not contribute.
    """
    # The context carries its maker's backward: ``native`` walks its blend
    # records (or replays the forward) and chains in C, from the blocks its
    # forward pass laid the view out in; the NumPy reference walks the
    # retained blend cache (or regenerates it slab-wise) and chains through
    # :func:`_chain_to_parameters`.
    return ctx.backward_pass()(ctx, model, dL_dimage)


def _chain_to_parameters(
    ctx: RenderContext,
    model: GaussianModel,
    d_colors: np.ndarray,
    d_opac: np.ndarray,
    d_means2d: np.ndarray,
    d_conics: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Chain the screen-space gradients down to the learnable parameters
    (shared by the grouped compositing pass and the per-tile oracle).

    Reads the geometry the forward pass retained on the projection
    (rotations, scales, unit quaternions, view directions); only a
    projection that carries none has it rebuilt from ``model``."""
    proj = ctx.proj
    camera = ctx.camera
    ids = proj.ids
    d_cov2d = invert_cov2d_backward(d_conics, proj.conics)
    d_cov_world, d_t_cov = project_covariance_backward(
        d_cov2d, proj.cov_cam, proj.t_cam, camera.rotation, camera.fx, camera.fy
    )
    shapes = proj.shapes
    if shapes is None:
        shapes = GaussianShape.of(model.log_scales[ids], model.quaternions[ids])
    d_log_scales_sub, d_quats_sub = shapes.covariance_backward(d_cov_world)
    d_t_mean = project_means_backward(camera, proj.t_cam, d_means2d)
    d_pos_sub = camera_space_to_world_grad(camera, d_t_mean + d_t_cov)

    dirs, dir_norms = proj.dirs, proj.dir_norms
    if dirs is None:
        dirs, dir_norms = unit_and_norm(proj.offsets)
    d_sh_sub, d_dir = sh_module.sh_backward(
        d_colors, model.sh[ids], dirs, proj.sh_degree_used, proj.clamp_mask
    )
    d_pos_sub = d_pos_sub + backprop_unit(d_dir, dirs, dir_norms)

    d_logit_sub = d_opac * proj.opacities * (1.0 - proj.opacities)

    grads = {
        "positions": np.zeros((ctx.num_input, 3)),
        "log_scales": np.zeros((ctx.num_input, 3)),
        "quaternions": np.zeros((ctx.num_input, 4)),
        "sh": np.zeros((ctx.num_input,) + model.sh.shape[1:]),
        "opacity_logits": np.zeros(ctx.num_input),
    }
    grads["positions"][ids] = d_pos_sub
    grads["log_scales"][ids] = d_log_scales_sub
    grads["quaternions"][ids] = d_quats_sub
    grads["sh"][ids] = d_sh_sub
    grads["opacity_logits"][ids] = d_logit_sub
    return grads
