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

Execution (PR 4): tiles are processed in the same padded ``(T, G, P)``
slabs as the forward pass — the per-tile blending state is either taken
from the forward pass's blend cache (``RasterSettings.cache_blend_state``)
or recomputed group-wise — the per-pixel reductions are grouped ``einsum``
contractions, and every scatter into per-Gaussian gradient rows is a
``np.bincount`` segment sum over the CSR order array instead of an
``np.add.at`` fetch-add.  In the float32 compute mode the blend state is
float32 but all gradient accumulators stay float64.

The pre-substrate per-tile loop survives as
:func:`rasterize_backward_legacy`; the parity suite pins the grouped path
against it for every parameter group.

Since the kernel-backend layer, the compositing gradient dispatches
through :mod:`repro.kernels`: the NumPy reference backend runs the
grouped path described above, while JIT backends fuse the recompute +
suffix-sum gradient into compiled per-tile loops (``tests/kernels``
pins every backend to the same 1e-10 bar).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.gaussians import sh as sh_module
from repro.gaussians.covariance import (
    build_covariance_backward,
    invert_cov2d_backward,
    project_covariance_backward,
)
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import (
    camera_space_to_world_grad,
    project_means_backward,
)
from repro.gaussians.rasterizer import (
    RenderContext,
    _AugArrays,
    _tile_origins,
    image_to_tile_major,
    tile_alpha_weights,
)


def _segment_sum(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum ``values`` (one per entry of ``rows``) into ``size`` segments.

    ``values`` may carry trailing dimensions; each flattened column is
    reduced with one ``np.bincount`` over offset indices — the NumPy
    equivalent of the CUDA kernels' segmented reductions, replacing the
    per-tile ``np.add.at`` scatters of the legacy path.
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
    proj = ctx.proj
    settings = ctx.settings
    bins = ctx.bins
    if bins is None:
        # Context produced by the legacy forward pass: no CSR bins to group
        # over, so take the legacy per-tile route.
        return rasterize_backward_legacy(ctx, model, dL_dimage)
    m = proj.ids.size

    # Gradient accumulators are float64 regardless of the compute dtype;
    # row m is the pad slot, dropped after the segment sums.
    d_colors = np.zeros((m + 1, 3))
    d_opac = np.zeros(m + 1)
    d_means2d = np.zeros((m + 1, 2))
    d_conics = np.zeros((m + 1, 2, 2))

    bg = np.asarray(settings.background, dtype=np.float64)
    dtype = settings.np_dtype

    if m and bins.num_tiles:
        aug = _AugArrays.from_proj(proj, dtype)
        g_tiles = image_to_tile_major(
            np.asarray(dL_dimage, dtype=np.float64), bins
        )
        # Same backend resolution as the forward pass: the NumPy reference
        # walks the retained blend cache (or regenerates it slab-wise),
        # fused JIT backends recompute blending in-kernel and ignore it.
        from repro.kernels import (
            compile_with_fallback,
            raster_spec,
            resolve_backend,
        )

        fn, _ = compile_with_fallback(
            resolve_backend(settings.kernel_backend),
            raster_spec("raster_backward_slab", dtype),
        )
        fn(
            bins, aug, settings, g_tiles, bg,
            d_colors, d_opac, d_means2d, d_conics,
            blend_cache=ctx.blend_cache,
        )

    return _chain_to_parameters(
        ctx, model, d_colors[:m], d_opac[:m], d_means2d[:m], d_conics[:m]
    )


def _accumulate_group(
    state: dict,
    bins,
    aug: _AugArrays,
    g_tiles: np.ndarray,
    bg: np.ndarray,
    settings,
    d_colors: np.ndarray,
    d_opac: np.ndarray,
    d_means2d: np.ndarray,
    d_conics: np.ndarray,
) -> None:
    """Fold one slab's compositing gradient into the padded accumulators."""
    size = d_opac.size
    tix = state["tix"]
    rows = state["rows"]  # (T, G)
    gauss_weight = state["gauss_weight"]  # (T, G, P)
    alpha_eff = state["alpha_eff"]
    t_before = state["t_before"]
    active = state["active"]

    g = g_tiles[bins.tile_ids[tix]]  # (T, P, 3) float64
    weights = alpha_eff * t_before
    weights *= active

    # Colour gradient: dL/dc_g = sum_p w_gp g_p, batched BLAS
    # (T, G, P) @ (T, P, 3) -> (T, G, 3).
    d_colors += _segment_sum(rows, np.matmul(weights, g), size)

    # Alpha gradient via emission + transmittance paths.
    colors = aug.colors[rows]  # (T, G, 3)
    cg = np.matmul(colors, g.transpose(0, 2, 1))  # (T, G, P): c_g . g_p
    contrib = weights * cg
    t_final = t_before[:, -1, :] * (1.0 - alpha_eff[:, -1, :])  # (T, P)
    bg_term = t_final * (g @ bg)
    csum = np.cumsum(contrib, axis=1)
    suffix = (csum[:, -1:, :] - csum) + bg_term[:, None, :]
    one_minus = np.maximum(1.0 - alpha_eff, 1.0 - settings.max_alpha)
    d_alpha_eff = t_before * cg
    d_alpha_eff *= active
    suffix /= one_minus
    d_alpha_eff -= suffix

    # Gate through the threshold (alpha_eff == 0 there) and the 0.99 cap.
    alpha_raw = aug.opac[rows][:, :, None] * gauss_weight
    gate = (alpha_raw >= settings.alpha_threshold) & (
        alpha_raw < settings.max_alpha
    )
    d_alpha_raw = d_alpha_eff
    d_alpha_raw *= gate

    # alpha_raw = opacity * exp(power)
    d_opac += _segment_sum(
        rows, np.einsum("tgp,tgp->tg", gauss_weight, d_alpha_raw), size
    )
    d_power = d_alpha_raw
    d_power *= alpha_raw  # (T, G, P)

    # power = -0.5 d^T conic d,  d = pix - mean.  The mean/conic gradients
    # only need the weighted pixel moments sum_p d_power * d^k, and
    # d = pix - mean separates, so a (T, G, P) @ (P, 6) matmul against the
    # tile-centred monomials [1, x, y, x^2, xy, y^2] (the same block for
    # every tile, built once per ``bins``) replaces the per-cell conic-d
    # and outer-product chains of the legacy path (centring on the tile
    # keeps the expansion's magnitudes at the tile scale, far from
    # cancellation).
    moments = np.matmul(d_power, bins.centred_monomials)  # (T, G, 6)
    half = bins.tile_size / 2.0
    x0, y0 = _tile_origins(bins, tix)
    cx = (x0 + half).astype(settings.np_dtype)  # (T,) tile centres
    cy = (y0 + half).astype(settings.np_dtype)
    s00, sx, sy, sxx, sxy, syy = np.moveaxis(moments, -1, 0)
    mx = aug.means_x[rows] - cx[:, None]  # (T, G), tile-centred means
    my = aug.means_y[rows] - cy[:, None]
    s10 = sx - mx * s00  # sum_p d_power * dx, etc.
    s01 = sy - my * s00
    s20 = sxx - 2.0 * mx * sx + mx * mx * s00
    s11 = sxy - mx * sy - my * sx + mx * my * s00
    s02 = syy - 2.0 * my * sy + my * my * s00

    a = aug.conic_a[rows]
    b = aug.conic_b[rows]
    c = aug.conic_c[rows]
    d_mean = np.stack([a * s10 + b * s01, b * s10 + c * s01], axis=-1)
    d_means2d += _segment_sum(rows, d_mean, size)
    d_conic = np.empty(rows.shape + (2, 2))
    d_conic[..., 0, 0] = -0.5 * s20
    d_conic[..., 0, 1] = -0.5 * s11
    d_conic[..., 1, 0] = -0.5 * s11
    d_conic[..., 1, 1] = -0.5 * s02
    d_conics += _segment_sum(rows, d_conic, size)


def rasterize_backward_legacy(
    ctx: RenderContext,
    model: GaussianModel,
    dL_dimage: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The pre-substrate per-tile backward pass (``np.add.at`` scatters),
    kept verbatim as the golden reference for the parity suite and the
    ``raster`` benchmark's legacy timings."""
    proj = ctx.proj
    settings = ctx.settings
    m = proj.ids.size

    d_colors = np.zeros((m, 3))
    d_opac = np.zeros(m)
    d_means2d = np.zeros((m, 2))
    d_conics = np.zeros((m, 2, 2))

    bg = np.asarray(settings.background, dtype=np.float64)

    for tile in ctx.tiles.values():
        order = tile.order
        pix, gauss_weight, alpha_eff, t_before, active = tile_alpha_weights(
            proj, tile, settings
        )
        g_img = dL_dimage[tile.y0 : tile.y1, tile.x0 : tile.x1].reshape(-1, 3)
        colors = proj.colors[order]  # (G, 3)
        weights = np.where(active, alpha_eff * t_before, 0.0)

        # Colour gradient: dL/dc_g = sum_p w_gp g_p
        np.add.at(d_colors, order, weights @ g_img)

        # Alpha gradient via emission + transmittance paths.
        cg = colors @ g_img.T  # (G, P): c_g . g_p
        contrib = weights * cg  # (G, P)
        t_final = t_before[-1] * (1.0 - alpha_eff[-1])
        bg_term = t_final * (g_img @ bg)  # (P,)
        csum = np.cumsum(contrib, axis=0)
        suffix = (csum[-1][None, :] - csum) + bg_term[None, :]
        one_minus = np.maximum(1.0 - alpha_eff, 1.0 - settings.max_alpha)
        d_alpha_eff = np.where(active, t_before * cg, 0.0) - suffix / one_minus

        # Gate through the threshold (alpha_eff == 0 there) and the 0.99 cap.
        opac = proj.opacities[order]
        alpha_raw = opac[:, None] * gauss_weight
        gate = (alpha_raw >= settings.alpha_threshold) & (
            alpha_raw < settings.max_alpha
        )
        d_alpha_raw = np.where(gate, d_alpha_eff, 0.0)

        # alpha_raw = opacity * exp(power)
        np.add.at(d_opac, order, np.sum(gauss_weight * d_alpha_raw, axis=1))
        d_power = alpha_raw * d_alpha_raw  # (G, P)

        # power = -0.5 d^T conic d,  d = pix - mean
        means = proj.means2d[order]
        conics = proj.conics[order]
        d_vec = pix[None, :, :] - means[:, None, :]  # (G, P, 2)
        conic_d = np.einsum("gij,gpj->gpi", conics, d_vec)  # (G, P, 2)
        np.add.at(
            d_means2d, order, np.einsum("gp,gpi->gi", d_power, conic_d)
        )
        outer = np.einsum("gpi,gpj->gpij", d_vec, d_vec)
        np.add.at(
            d_conics,
            order,
            -0.5 * np.einsum("gp,gpij->gij", d_power, outer),
        )

    return _chain_to_parameters(ctx, model, d_colors, d_opac, d_means2d, d_conics)


def _chain_to_parameters(
    ctx: RenderContext,
    model: GaussianModel,
    d_colors: np.ndarray,
    d_opac: np.ndarray,
    d_means2d: np.ndarray,
    d_conics: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Chain the screen-space gradients down to the learnable parameters
    (shared by the grouped and legacy compositing passes)."""
    proj = ctx.proj
    camera = ctx.camera
    ids = proj.ids
    d_cov2d = invert_cov2d_backward(d_conics, proj.conics)
    d_cov_world, d_t_cov = project_covariance_backward(
        d_cov2d, proj.cov_cam, proj.t_cam, camera.rotation, camera.fx, camera.fy
    )
    d_log_scales_sub, d_quats_sub = build_covariance_backward(
        d_cov_world, model.log_scales[ids], model.quaternions[ids]
    )
    d_t_mean = project_means_backward(camera, proj.t_cam, d_means2d)
    d_pos_sub = camera_space_to_world_grad(camera, d_t_mean + d_t_cov)

    norms = np.maximum(np.linalg.norm(proj.offsets, axis=1, keepdims=True), 1e-12)
    dirs = proj.offsets / norms
    d_sh_sub, d_dir = sh_module.sh_backward(
        d_colors, model.sh[ids], dirs, proj.sh_degree_used, proj.clamp_mask
    )
    d_pos_sub = d_pos_sub + sh_module.backprop_direction(d_dir, proj.offsets)

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
