"""The pre-substrate per-tile rasterizer: the golden reference of the
compositing kernels.

Test-only oracle, moved here verbatim from ``repro.gaussians.rasterizer``
and ``repro.gaussians.rasterizer_grad``: single-level binning
(:func:`_build_tiles_loop`, a Python triple loop into one
:class:`TileWork` per ``tile_size`` tile), one tile at a time blended by
:func:`tile_alpha_weights`, gradients scattered with ``np.add.at``.  The
grouped NumPy slabs and the C kernels of every backend must reproduce its
images and transmittance to 1e-12 and its gradients to 1e-10
(``tests/gaussians/test_raster_parity.py``, ``test_compute_bins.py``,
``test_slab_kernels.py``, ``tests/kernels/test_kernel_parity.py``,
``test_native_backend.py``).  It shares :func:`preprocess` and
:func:`_chain_to_parameters` with the shipped renderer, so what it pins is
binning and compositing.  Do not optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.gaussians import rasterizer
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import (
    ProjectedGaussians,
    RasterSettings,
    _tile_spans,
    preprocess,
)
from repro.gaussians.rasterizer_grad import _chain_to_parameters


@dataclass
class TileWork:
    """Depth-sorted splat list of one tile (legacy per-tile view)."""

    x0: int
    y0: int
    x1: int
    y1: int
    order: np.ndarray  # indices into ProjectedGaussians rows, near-to-far


@dataclass
class RenderContext(rasterizer.RenderContext):
    """A legacy render's activation state: no CSR ``bins``, the per-tile
    work lists instead."""

    #: ``{(tx, ty): TileWork}`` of a :func:`rasterize_forward_legacy`
    #: context (which has no ``bins``); read by
    #: :func:`rasterize_backward_legacy`.
    tiles: Optional[Dict[Tuple[int, int], TileWork]] = None


def _build_tiles_loop(
    camera: Camera, proj: ProjectedGaussians, settings: RasterSettings
) -> Dict[Tuple[int, int], TileWork]:
    """The pre-substrate Python triple-loop binning, kept verbatim as the
    golden reference for the parity tests."""
    ts = settings.tile_size
    x0, x1, y0, y1 = _tile_spans(camera, proj, ts)
    bins: Dict[Tuple[int, int], list] = {}
    for row in range(proj.ids.size):
        for ty in range(y0[row], y1[row] + 1):
            for tx in range(x0[row], x1[row] + 1):
                bins.setdefault((tx, ty), []).append(row)
    tiles: Dict[Tuple[int, int], TileWork] = {}
    for (tx, ty), rows in bins.items():
        rows_arr = np.asarray(rows, dtype=np.int64)
        order = rows_arr[np.argsort(proj.depths[rows_arr], kind="stable")]
        tiles[(tx, ty)] = TileWork(
            x0=tx * ts,
            y0=ty * ts,
            x1=min((tx + 1) * ts, camera.width),
            y1=min((ty + 1) * ts, camera.height),
            order=order,
        )
    return tiles


def tile_alpha_weights(
    proj: ProjectedGaussians,
    tile: TileWork,
    settings: RasterSettings,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Compute the blending state of one tile (legacy per-tile contract).

    Returns ``(pix, gauss_weight, alpha_eff, t_before, active)``:

    - ``pix``: ``(P, 2)`` pixel centres,
    - ``gauss_weight``: ``(G, P)`` the un-opacity-scaled Gaussian falloff,
    - ``alpha_eff``: ``(G, P)`` post-threshold, post-cap alphas,
    - ``t_before``: ``(G, P)`` transmittance before each splat,
    - ``active``: ``(G, P)`` contribution mask (threshold & termination).

    Shared verbatim by the legacy forward and backward passes — and pinned
    against the grouped substrate by the parity suite — this is what makes
    the analytic gradient exact for this renderer.
    """
    ys, xs = np.mgrid[tile.y0 : tile.y1, tile.x0 : tile.x1]
    pix = np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=-1)
    order = tile.order
    means = proj.means2d[order]
    conics = proj.conics[order]
    opac = proj.opacities[order]

    d = pix[None, :, :] - means[:, None, :]  # (G, P, 2)
    a = conics[:, 0, 0][:, None]
    b = conics[:, 0, 1][:, None]
    c = conics[:, 1, 1][:, None]
    power = -0.5 * (a * d[:, :, 0] ** 2 + 2 * b * d[:, :, 0] * d[:, :, 1] + c * d[:, :, 1] ** 2)
    power = np.minimum(power, 0.0)
    gauss_weight = np.exp(power)
    alpha_raw = opac[:, None] * gauss_weight
    alpha_cap = np.minimum(alpha_raw, settings.max_alpha)
    thresh_mask = alpha_raw >= settings.alpha_threshold
    alpha_eff = np.where(thresh_mask, alpha_cap, 0.0)

    one_minus = 1.0 - alpha_eff
    t_after = np.cumprod(one_minus, axis=0)
    t_before = np.empty_like(t_after)
    t_before[0] = 1.0
    t_before[1:] = t_after[:-1]
    active = thresh_mask & (t_before > settings.transmittance_min)
    return pix, gauss_weight, alpha_eff, t_before, active


def rasterize_forward_legacy(
    camera: Camera,
    model: GaussianModel,
    settings: Optional[RasterSettings] = None,
) -> "tuple[np.ndarray, np.ndarray, RenderContext]":
    """The pre-substrate per-tile forward pass, kept as golden reference.

    Same contract as :func:`rasterize_forward` (always float64); the parity
    suite asserts the substrate matches it to ~1e-10.
    """
    settings = settings or RasterSettings()
    proj = preprocess(camera, model, settings)
    tiles = _build_tiles_loop(camera, proj, settings)

    bg = np.asarray(settings.background, dtype=np.float64)
    image = np.empty((camera.height, camera.width, 3), dtype=np.float64)
    image[:] = bg
    transmittance = np.ones((camera.height, camera.width), dtype=np.float64)

    for tile in tiles.values():
        pix, _, alpha_eff, t_before, active = tile_alpha_weights(
            proj, tile, settings
        )
        weights = np.where(active, alpha_eff * t_before, 0.0)  # (G, P)
        colors = proj.colors[tile.order]  # (G, 3)
        tile_rgb = weights.T @ colors  # (P, 3)
        t_final = t_before[-1] * (1.0 - alpha_eff[-1])
        tile_rgb += t_final[:, None] * bg[None, :]
        h = tile.y1 - tile.y0
        w = tile.x1 - tile.x0
        image[tile.y0 : tile.y1, tile.x0 : tile.x1] = tile_rgb.reshape(h, w, 3)
        transmittance[tile.y0 : tile.y1, tile.x0 : tile.x1] = t_final.reshape(h, w)

    ctx = RenderContext(
        camera=camera,
        settings=settings,
        proj=proj,
        bins=None,
        num_input=model.num_gaussians,
        tiles=tiles,
    )
    return image, transmittance, ctx


def rasterize_backward_legacy(
    ctx: RenderContext,
    model: GaussianModel,
    dL_dimage: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The pre-substrate per-tile backward pass (``np.add.at`` scatters),
    kept verbatim as the golden reference for the parity suite."""
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
