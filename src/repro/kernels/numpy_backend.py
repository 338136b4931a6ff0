"""The NumPy reference kernel backend.

The always-available, priority-0 reference every other backend is pinned
against (and what a backend whose build failed hands its ops to): the
stores' data path, the
blocked ~14-pass :func:`repro.optim.kernels.fused_adam_update` behind
``adam_rows``, and the one NumPy implementation of grouped slab
compositing — a **two-level** kernel over the CSR
:class:`~repro.gaussians.rasterizer.TileBins`.

*Entry level*, once per view on the ``E`` flat ``(tile, splat)`` entries
(plus a pad slot ``E`` that padded slab rows point at).  The exponent
``-0.5 (a dx^2 + 2 b dx dy + c dy^2)`` separates over a tile's pixel lanes,
``power[y, x] = Bx[x] * dy[y] + A[x] + C[y]`` with ``A = -0.5 a dx^2``,
``C = -0.5 c dy^2``, ``Bx = -b dx``, so :func:`_lane_terms` builds one
``(E + 1, 2, 3, ts)`` block before the slab loop and ``power`` is a batched
``(ts, 3) @ (3, ts)`` product.  After the loop the backward pass turns the
per-entry colour sums and pixel moments into mean / conic / opacity /
colour gradients and folds them into the per-Gaussian rows with **one**
``(E, 10)`` segment sum (:func:`_fold_entries`).

*Cell level*, per slab of ``T`` tiles padded to ``G`` splats
(:func:`_blend_slab`), on splat-major ``(G, T, P)`` tensors: everything
after ``power`` runs in place, and the transmittance product is scanned
into a ``(G + 1)``-deep buffer whose last row is ``t_final``.  The backward
pass reads three cell tensors per slab — ``weights = alpha_eff * t_before *
active``, ``odds = alpha_eff / (1 - alpha_eff)`` and the boolean ``gate``
(cap not reached; 17 bytes a cell) — because, with ``contrib = weights *
cg`` and ``total = csum[-1] + bg_term``::

    d_power = gate * (contrib - (total - csum) * odds)

Under the cap ``alpha_eff`` is ``alpha_raw`` or (below the threshold) 0,
where ``weights`` and ``odds`` vanish too, so this is the per-tile
oracle's (``tests/reference/legacy_raster.py``)
``gate * alpha_raw * (active * t_before * cg - suffix / (1 - alpha_eff))``;
``d_opacity`` is the zeroth pixel moment of ``d_power`` over the opacity.
Forward-only renders (``cache_blend_state=False``) never form the odds or
the gate; a backward pass without a cache regenerates the same state slab
by slab, bit for bit.

The data-path ops are CLM's stores as they always were: ``assemble_rows``
places cache copies, pinned-row loads and carried gradients with
``np.searchsorted`` and gathers the critical rows, ``zero_rows`` assigns
zero rows, and ``adam_rows`` is :func:`repro.optim.kernels.adam_rows`.

``photometric_loss`` is :func:`~repro.gaussians.loss.l1_loss` plus
:func:`~repro.gaussians.loss.ssim_with_grad`, whose SSIM window is two
banded-matrix products a pass (four GEMM calls an image) over the target's
kept moments.  ``view_train`` is :func:`~repro.gaussians.render.train_view`:
the render and the loss, each dispatched on its own, and the backward pass
the render's context carries;
``train_step`` is :func:`~repro.core.stores.train_step`: the working set's
``assemble``, that view, and ``add_grads`` / ``retire``, which accumulate
through fancy-indexed ``+=`` in place.

``plan_batch`` is :func:`repro.planning.planner.plan_batch`: the TSP
search of :mod:`repro.planning.tsp_order` over a BLAS intersection
matrix (when the order is searched), then the planning modules' set
algebra, step by step.

``exact_cull`` is :func:`~repro.gaussians.frustum.ellipsoids_in_frustum`
on the named rows, and ``grid_cull`` is
:func:`repro.gaussians.spatial.grid_cull`: a grid built by ``lexsort``,
its cells classified by matrix products, then ``exact_cull`` on the
boundary cells' members, and refit with ``np.minimum.at`` /
``np.maximum.at``.  The
*whole-view* op sits on top: ``view_forward`` is ``rasterizer.preprocess``
-> ``build_tile_bins`` -> :func:`_raster_forward` -> image assembly (of
``model.gather(rows)`` when it is handed a working set; a workspace it
ignores, having no arenas), and
the backward pass of the context it makes is
:func:`view_backward`, :func:`_raster_backward` ->
``_chain_to_parameters`` — plain calls.  Every array is float64, as on
``native``; the row-indexed ops refuse what ``native`` refuses of their
rows (:func:`index_rows`), before anything is written.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional

import numpy as np

from repro.kernels.registry import (
    KERNEL_OPS,
    KernelBackend,
    REFERENCE_BACKEND,
    register_backend,
)
from repro.optim.kernels import adam_rows

#: Row length (tiles x pixels of a slab) from which :func:`_scan` steps row
#: by row instead of calling ``ufunc.accumulate``.  Measured crossover ~200
#: elements (a Python-level ufunc call costs ~0.5 us, ``accumulate`` ~3 ns
#: an element); results are bit-identical either way.
_ROW_SCAN_MIN = 256


@functools.lru_cache(maxsize=8)
def _centred_monomials(tile_size: int) -> np.ndarray:
    """``(P, 6)`` monomials ``[1, x, y, x^2, xy, y^2]`` of a tile's
    row-major pixel centres relative to the tile centre (the backward
    pass's moment basis, exact in float64).  A function
    of the tile size alone, so built once per process, read-only."""
    lane = np.arange(tile_size) + 0.5 - tile_size / 2.0
    x, y = np.tile(lane, tile_size), np.repeat(lane, tile_size)
    basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
    basis.setflags(write=False)
    return basis


def _entry_origins(bins) -> "tuple[np.ndarray, np.ndarray]":
    """Pixel corner ``(x0, y0)``, each ``(E,)``, of every CSR entry's tile."""
    counts = bins.counts()
    tx, ty = bins.tile_xy()
    return (
        np.repeat(tx * bins.tile_size, counts),
        np.repeat(ty * bins.tile_size, counts),
    )


def _per_entry(bins, arr: np.ndarray) -> np.ndarray:
    """An ``_AugArrays`` field gathered per CSR entry, its pad row last."""
    return arr[np.append(bins.order, arr.shape[0] - 1)]


def _lane_terms(bins, aug) -> np.ndarray:
    """``(E + 1, 2, 3, ts)`` lane factors of the separable exponent, one row
    per CSR entry: ``[:, 0] = [dy, 1, C]`` over a tile's rows and
    ``[:, 1] = [Bx, A, 1]`` over its columns, so ``power[y, x]`` is the
    rank-3 product ``sum_k [:, 0, k, y] * [:, 1, k, x]``.  The pad slot's
    variable lanes stay zero (``power`` 0, and the pad row's zero opacity
    makes its alpha exactly 0)."""
    e = bins.num_entries
    rows = bins.order
    x0, y0 = _entry_origins(bins)
    lane = np.arange(bins.tile_size) + 0.5
    dx = (x0[:, None] + lane) - aug.means_x[rows, None]
    dy = (y0[:, None] + lane) - aug.means_y[rows, None]
    # The scalings by -0.5 are exact and a pixel on the mean gets exactly
    # ``power == 0``, whatever order the three products are summed in.
    terms = np.zeros((e + 1, 2, 3, bins.tile_size))
    terms[:e, 0, 0] = dy
    terms[:, 0, 1] = 1.0
    terms[:e, 0, 2] = dy * dy * (-0.5 * aug.conic_c[rows, None])
    terms[:e, 1, 0] = dx * -aug.conic_b[rows, None]
    terms[:e, 1, 1] = dx * dx * (-0.5 * aug.conic_a[rows, None])
    terms[:, 1, 2] = 1.0
    return terms


def _blend_states(bins, aug, settings, for_backward: bool):
    """Yield the blend state of every slab of the view, in
    :func:`~repro.gaussians.rasterizer.iter_tile_groups` order."""
    from repro.gaussians.rasterizer import iter_tile_groups

    e = bins.num_entries
    terms = _lane_terms(bins, aug)
    opac = _per_entry(bins, aug.opac)
    for tix, g in iter_tile_groups(bins):
        # (G, T) flat CSR entry of every slab row; pads -> the pad slot E.
        offs = bins.offsets[tix]
        slot = np.arange(g)[:, None]
        idx = np.where(slot < bins.offsets[tix + 1] - offs, offs + slot, e)
        state = _blend_slab(terms[idx], opac[idx], settings, for_backward)
        state["tix"] = tix
        state["idx"] = idx
        yield state


def _scan(ufunc, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inclusive scan of ``src`` along axis 0 into ``out`` (may be ``src``).

    ``ufunc.accumulate`` walks one pixel column at a time; a row-by-row loop
    applies the same operations in the same order — bit-identical — and is
    faster once a row (tiles x pixels) is long enough to vectorise.
    """
    if src[0].size < _ROW_SCAN_MIN:
        return ufunc.accumulate(src, axis=0, out=out)
    out[0] = src[0]
    for k in range(1, src.shape[0]):
        ufunc(out[k - 1], src[k], out=out[k])
    return out


def _blend_slab(terms, opac, settings, for_backward: bool) -> dict:
    """Blend one slab from its ``(G, T, 2, 3, ts)`` lane terms.

    Cell tensors are splat-major ``(G, T, P)``: a scan step is one
    contiguous row.  Returns ``weights`` ``(G, T, P)`` and ``t_final``
    ``(T, P)``, plus — only when the backward pass will read them — the
    ``odds`` and the boolean ``gate``.
    """
    g, t, _, _, ts = terms.shape
    # One batched (ts, 3) @ (3, ts) product per (splat, tile) row.
    power = np.matmul(terms[:, :, 0].transpose(0, 1, 3, 2), terms[:, :, 1])
    alpha = power.reshape(g, t, ts * ts)
    np.minimum(alpha, 0.0, out=alpha)
    np.exp(alpha, out=alpha)
    alpha *= opac[:, :, None]  # alpha_raw
    thresh = alpha >= settings.alpha_threshold
    state = {}
    if for_backward:
        state["gate"] = alpha < settings.max_alpha
    np.minimum(alpha, settings.max_alpha, out=alpha)
    alpha *= thresh  # alpha_eff

    # trans[k] is the transmittance in front of splat k; row G is t_final.
    trans = np.empty((g + 1, t, ts * ts), dtype=alpha.dtype)
    trans[0] = 1.0
    one_minus = np.subtract(1.0, alpha, out=trans[1:])
    if for_backward:
        state["odds"] = alpha / one_minus
    _scan(np.multiply, one_minus, one_minus)
    t_before = trans[:-1]
    alpha *= t_before
    alpha *= t_before > settings.transmittance_min  # with thresh: active
    state["weights"] = alpha
    state["t_final"] = trans[-1].copy()  # not a view: frees ``trans``
    return state


def _raster_forward(bins, aug, settings, bg, canvas_rgb, canvas_t):
    """Grouped slab compositing into the tile-major canvases, in place.

    Returns the list of per-slab blend states when
    ``settings.cache_blend_state`` asks for retention, else ``None`` —
    exactly the blend-cache contract of
    :func:`repro.gaussians.rasterizer.rasterize_forward`.
    """
    retain = settings.cache_blend_state
    cache: Optional[List[dict]] = [] if retain else None
    colors = _per_entry(bins, aug.colors)
    for state in _blend_states(bins, aug, settings, for_backward=retain):
        t_final = state["t_final"]
        # Batched BLAS: (T, P, G) @ (T, G, 3) -> (T, P, 3).
        rgb = np.matmul(state["weights"].transpose(1, 2, 0), colors[state["idx"].T])
        t_ids = bins.tile_ids[state["tix"]]
        canvas_rgb[t_ids] = rgb + t_final[:, :, None] * bg
        canvas_t[t_ids] = t_final
        if retain:
            cache.append(state)
    return cache


def _raster_backward(
    bins, aug, settings, g_tiles, bg,
    d_colors, d_opac, d_means2d, d_conics,
    blend_cache=None,
):
    """Grouped compositing gradient, consuming the forward blend cache
    when one was retained and regenerating it slab-wise otherwise."""
    e = bins.num_entries
    colors = _per_entry(bins, aug.colors)
    # Per-entry colour sums (3) and tile-centred pixel moments of d_power
    # (6); every entry sits in exactly one slab, row E collects the pads.
    staged = np.empty((e + 1, 9))
    monomials = _centred_monomials(bins.tile_size)
    states = (
        blend_cache
        if blend_cache is not None
        else _blend_states(bins, aug, settings, for_backward=True)
    )
    for state in states:
        idx = state["idx"]
        weights = state["weights"]  # (G, T, P)
        g = g_tiles[bins.tile_ids[state["tix"]]]  # (T, P, 3)
        # dL/dc_g = sum_p w_gp g_p: (T, G, P) @ (T, P, 3) -> (T, G, 3).
        staged[idx.T, :3] = np.matmul(weights.transpose(1, 0, 2), g)
        d_power = np.empty(weights.shape)
        np.matmul(  # c_g . g_p
            colors[idx.T], g.transpose(0, 2, 1), out=d_power.transpose(1, 0, 2)
        )
        d_power *= weights  # contrib
        rest = _scan(np.add, d_power, np.empty_like(d_power))  # csum
        total = rest[-1] + state["t_final"] * (g @ bg)  # (T, P)
        np.subtract(total, rest, out=rest)
        rest *= state["odds"]
        d_power -= rest
        d_power *= state["gate"]
        # power = -0.5 d^T conic d with d = pix - mean separates, so the
        # mean/conic gradients need only the moments sum_p d_power * m_k
        # against the tile-centred monomials [1, x, y, x^2, xy, y^2].
        staged[idx, 3:] = np.matmul(d_power, monomials)
    _fold_entries(bins, aug, staged[:e], d_colors, d_opac, d_means2d, d_conics)


def _fold_entries(bins, aug, staged, d_colors, d_opac, d_means2d, d_conics):
    """Entry level of the backward pass: per-entry moments -> gradients of
    opacity, mean and conic, summed with the colour sums into the padded
    per-Gaussian accumulators by one ``(E, 10)`` segment sum."""
    from repro.gaussians.rasterizer_grad import _segment_sum

    rows = bins.order
    half = bins.tile_size / 2.0
    x0, y0 = _entry_origins(bins)
    # Tile-centred means (centring keeps the expansion at the tile scale).
    mx = aug.means_x[rows] - (x0 + half)
    my = aug.means_y[rows] - (y0 + half)
    s00, sx, sy, sxx, sxy, syy = staged[:, 3:].T
    s10 = sx - mx * s00  # sum_p d_power * dx, etc.
    s01 = sy - my * s00
    s20 = sxx - 2.0 * mx * sx + mx * mx * s00
    s11 = sxy - mx * sy - my * sx + mx * my * s00
    s02 = syy - 2.0 * my * sy + my * my * s00

    a, b, c, opac = (
        arr[rows] for arr in (aug.conic_a, aug.conic_b, aug.conic_c, aug.opac)
    )
    out = np.zeros((rows.size, 10))
    out[:, :3] = staged[:, :3]
    # d_power = alpha_raw * d_alpha_raw and alpha_raw = opacity * weight, so
    # dL/d_opacity = s00 / opacity (a zero-opacity splat keeps the 0).
    np.divide(s00, opac, out=out[:, 3], where=opac > 0)
    out[:, 4] = a * s10 + b * s01
    out[:, 5] = b * s10 + c * s01
    out[:, 6] = -0.5 * s20
    out[:, 7] = out[:, 8] = -0.5 * s11
    out[:, 9] = -0.5 * s02
    summed = _segment_sum(rows, out, d_opac.size)
    d_colors += summed[:, :3]
    d_opac += summed[:, 3]
    d_means2d += summed[:, 4:6]
    d_conics += summed[:, 6:].reshape(-1, 2, 2)


def index_rows(rows, n: Optional[int], op: str) -> np.ndarray:
    """``rows`` as the int64 vector the reference indexes by, refused as
    ``native`` refuses it, before anything is written: rows of another kind
    than integers, or (unless ``n`` is None) one outside ``[0, n)``, where
    NumPy would wrap a negative one, raise ``IndexError``; rows that are
    not a vector, ``ValueError``."""
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu" and rows.size:
        raise IndexError(f"{op}: {rows.dtype} rows, not integers")
    if rows.ndim != 1:
        raise ValueError(f"{op}: rows of shape {rows.shape}, not a vector")
    rows = rows.astype(np.int64, copy=False)
    if rows.size and n is not None and not 0 <= rows.min() <= rows.max() < n:
        raise IndexError(f"{op}: a row outside [0, {n})")
    return rows


def _exact_cull(planes, positions, log_scales, raw_quats, rows):
    """The members of ``rows`` inside ``planes``: the reference arbiter,
    :func:`~repro.gaussians.frustum.ellipsoids_in_frustum` — the function
    ``preprocess`` applies again on the render side — on those rows only."""
    from repro.gaussians.frustum import ellipsoids_in_frustum

    rows = index_rows(rows, len(positions), "exact_cull")
    inside = ellipsoids_in_frustum(
        planes, positions[rows], np.exp(log_scales[rows]), raw_quats[rows]
    )
    return rows[inside]


def _view_forward(camera, model, settings, rows=None, workspace=None):
    """One view end to end on the reference: ``preprocess``, the CSR bins,
    the slab kernels above, and the tile-major canvases cropped into image
    layout.  Returns ``(image, transmittance, ctx)``.  ``rows`` renders
    ``model.gather(rows)``; with a ``workspace`` (the served form) it
    returns ``(image, survivors)`` instead — the reference keeps no arenas,
    so it renders as it does without one."""
    from repro.gaussians import rasterizer

    if rows is not None:
        model = model.gather(index_rows(rows, model.num_gaussians, "view_forward"))
    proj = rasterizer.preprocess(camera, model, settings)
    bins = rasterizer.build_tile_bins(camera, proj, settings)

    bg = np.asarray(settings.background, dtype=np.float64)
    pixels = bins.tile_size**2
    num_tiles = bins.tiles_x * bins.tiles_y
    canvas_rgb = np.empty((num_tiles, pixels, 3))
    canvas_rgb[:] = bg
    canvas_t = np.ones((num_tiles, pixels))

    aug = rasterizer._AugArrays.from_proj(proj)
    cache = _raster_forward(bins, aug, settings, bg, canvas_rgb, canvas_t)

    image = rasterizer._tile_major_to_image(canvas_rgb, bins)
    transmittance = rasterizer._tile_major_to_image(canvas_t, bins)
    ctx = rasterizer.RenderContext(
        camera=camera,
        settings=settings,
        proj=proj,
        bins=bins,
        num_input=model.num_gaussians,
        blend_cache=cache,
        kernel_backend=REFERENCE_BACKEND,
    )
    if workspace is not None:
        return image, int(proj.ids.size)
    return image, transmittance, ctx


def view_backward(ctx, model, dL_dimage):
    """Parameter gradients of a CSR-binned render: the compositing gradient
    of the slab kernels, then the analytic chain.  The backward pass of
    every context this backend makes, and of any whose projection was
    replaced (:meth:`~repro.gaussians.rasterizer.RenderContext.backward_pass`)."""
    from repro.gaussians import rasterizer, rasterizer_grad

    proj, settings, bins = ctx.proj, ctx.settings, ctx.bins
    m = proj.ids.size

    # Row m of the gradient accumulators is the pad slot, dropped after the
    # segment sums.
    d_colors = np.zeros((m + 1, 3))
    d_opac = np.zeros(m + 1)
    d_means2d = np.zeros((m + 1, 2))
    d_conics = np.zeros((m + 1, 2, 2))

    bg = np.asarray(settings.background, dtype=np.float64)

    if m and bins.num_tiles:
        aug = rasterizer._AugArrays.from_proj(proj)
        g_tiles = rasterizer.image_to_tile_major(
            np.asarray(dL_dimage, dtype=np.float64), bins
        )
        _raster_backward(
            bins, aug, settings, g_tiles, bg,
            d_colors, d_opac, d_means2d, d_conics,
            blend_cache=ctx.blend_cache,
        )

    return rasterizer_grad._chain_to_parameters(
        ctx, model, d_colors[:m], d_opac[:m], d_means2d[:m], d_conics[:m]
    )


def _assemble_rows(ws, working_set, loads, cached, carried_grads):
    """A :class:`~repro.core.stores.GpuWorkingSet`'s next buffers: cache
    copies from its previous buffer, loads from the pinned rows, the
    critical rows, and zeroed gradients holding the carried rows.  Returns
    ``(sh, opacity, critical, grad_sh, grad_opacity)``."""
    working_set = index_rows(working_set, ws.cpu_store.num_rows, "assemble_rows")
    loads, cached = (index_rows(rows, None, "assemble_rows") for rows in (loads, cached))
    sets = [(loads, working_set), (cached, working_set)]
    if ws.indices is not None:
        sets.append((cached, ws.indices))
    if not all(np.isin(rows, within).all() for rows, within in sets):
        raise ValueError("assemble_rows: a row that is not a member of the set it indexes")
    m = working_set.size
    sh = np.zeros((m, ws.cpu_store.sh_basis, 3))
    opacity = np.zeros(m)
    if cached.size:
        src = np.searchsorted(ws.indices, cached)
        dst = np.searchsorted(working_set, cached)
        sh[dst] = ws.noncrit["sh"][src]
        opacity[dst] = ws.noncrit["opacity_logits"][src]
    if loads.size:
        fetched = ws.cpu_store.gather_params(loads)
        dst = np.searchsorted(working_set, loads)
        sh[dst] = fetched["sh"]
        opacity[dst] = fetched["opacity_logits"]
    grad_sh = np.zeros_like(sh)
    grad_opacity = np.zeros_like(opacity)
    if carried_grads is not None:
        carried, carried_sh, carried_opacity = carried_grads
        dst = np.searchsorted(working_set, carried)
        grad_sh[dst] = carried_sh
        grad_opacity[dst] = carried_opacity
    return sh, opacity, ws.gpu_store.gather(working_set), grad_sh, grad_opacity


def _zero_rows(buffer, rows):
    buffer[index_rows(rows, len(buffer), "zero_rows")] = 0.0


def _adam_rows(params, grads, m, v, steps, rows, *args, **kwargs):
    adam_rows(params, grads, m, v, steps, index_rows(rows, len(steps), "adam_rows"), *args, **kwargs)


def _photometric_loss(rendered, target, ssim_lambda, moments):
    """``(1 - l) * L1 + l * (1 - SSIM)`` and its image gradient: the SSIM
    of :func:`~repro.gaussians.loss.ssim_with_grad`, whose window is the
    banded-matrix product, over the target's ``moments`` (L1 alone, when
    ``ssim_lambda`` is 0, reads none of them)."""
    from repro.gaussians.loss import l1_loss, ssim_with_grad

    l1, l1_grad = l1_loss(rendered, target)
    if ssim_lambda == 0.0:
        return l1, l1_grad
    s_val, s_grad = ssim_with_grad(rendered, target, moments=moments)
    loss = (1.0 - ssim_lambda) * l1 + ssim_lambda * (1.0 - s_val)
    grad = (1.0 - ssim_lambda) * l1_grad - ssim_lambda * s_grad
    return loss, grad


@register_backend("numpy")
class NumpyKernelBackend(KernelBackend):
    """Always-available reference: vectorized NumPy, one memory pass/op."""

    priority = 0
    description = (
        "vectorized NumPy reference (always available; grouped slab "
        "compositing, a culling grid's query as cell masks and the exact "
        "test, the stores' gather / scatter data path, blocked "
        "fused Adam, the banded-GEMM SSIM loss, a training view as the "
        "render, the loss and its context's backward, a CLM microbatch as "
        "the data path around it, a "
        "batch's plan as the planning modules composed)"
    )

    def capabilities(self) -> "frozenset[str]":
        return frozenset(KERNEL_OPS)

    def version(self) -> Optional[str]:
        return np.__version__

    def _compile(self, op: str) -> Callable:
        if op == "view_train":
            from repro.gaussians.render import train_view

            return train_view
        if op == "plan_batch":
            from repro.planning.planner import plan_batch

            return plan_batch
        if op == "grid_cull":
            from repro.gaussians.spatial import grid_cull

            return grid_cull
        if op == "train_step":
            from repro.core.stores import train_step

            return train_step
        return {
            "exact_cull": _exact_cull,
            "view_forward": _view_forward,
            "assemble_rows": _assemble_rows,
            "zero_rows": _zero_rows,
            "adam_rows": _adam_rows,
            "photometric_loss": _photometric_loss,
        }[op]
