"""Optional numba JIT kernel backend — fused single-pass hot loops.

Where the NumPy reference streams each slab through ~15 whole-tensor
passes forward and ~8 backward, these kernels walk the CSR bins once per tile in
``prange`` (tiles write disjoint pixels/entries, so the parallel loop is
race-free) and keep the entire compositing recurrence in registers:

- ``raster_forward_slab``: per pixel, one front-to-back sweep over the
  tile's depth-sorted bin fuses falloff, thresholding, the transmittance
  recurrence and colour accumulation — like the paper's CUDA kernels.  No
  blend state is materialized (``retains_blend_state = False``).
- ``raster_backward_slab``: fused *recompute* of the blending state (the
  CUDA-style trade the memory model assumes) plus the suffix-sum alpha
  gradient, staged per CSR entry — entries are unique per (tile, splat),
  so tiles never contend — then folded into the per-Gaussian rows with the
  shared ``_segment_sum``.
- ``adam_fused_update``: the ~14 whole-array passes of the NumPy kernel
  collapsed into one row-parallel pass over the packed ``(N, width)``
  operands.  The scalar op order replicates the reference exactly
  (``fastmath=False`` → no FMA contraction, IEEE rounding per op), so the
  float64 path is *bit-identical* to NumPy, preserving the repo's
  cross-engine functional-equivalence guarantees.

The import is guarded: without numba the backend registers as unavailable
and every caller degrades to the reference.  Float32 blend state and
float32 gradient staging are declined via :meth:`supports` — numba's
dtype promotion differs from NumPy's value-based casting there — and fall
back per-op to NumPy.  Compilation is lazy (first use) and cached both
per-spec (:meth:`KernelBackend.compile`) and on disk (``cache=True``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.kernels.registry import (
    KERNEL_OPS,
    KernelBackend,
    KernelSpec,
    register_backend,
)
from repro.optim.kernels import fused_adam_update, tables_for

try:  # guarded optional dependency
    import numba as _NUMBA
    from numba import prange
except Exception:  # pragma: no cover - exercised via monkeypatch in tests
    _NUMBA = None
    prange = range


# ----------------------------------------------------------------------
# Kernel bodies (plain Python at module level, jitted lazily).  The
# arithmetic follows the reference implementations — the per-cell
# recurrence of the legacy ``rasterizer.tile_alpha_weights`` (which
# ``numpy_backend._blend_slab`` evaluates slab-wise) and, op for op,
# optim.kernels.fused_adam_update — so float64 results stay within the
# 1e-10 parity bar (bit-identical for Adam, reassociation-only differences
# for the BLAS-reduced raster sums).
# ----------------------------------------------------------------------


def _forward_kernel(
    offsets, order, tile_ids, tiles_x, ts,
    means_x, means_y, conic_a, conic_b, conic_c, opac, colors, bg,
    alpha_threshold, t_min, max_alpha,
    canvas_rgb, canvas_t,
):
    num_tiles = tile_ids.size
    pixels = ts * ts
    for i in prange(num_tiles):
        start = offsets[i]
        end = offsets[i + 1]
        t_id = tile_ids[i]
        x0 = (t_id % tiles_x) * ts
        y0 = (t_id // tiles_x) * ts
        for p in range(pixels):
            px = x0 + (p % ts) + 0.5
            py = y0 + (p // ts) + 0.5
            t = 1.0
            r0 = 0.0
            r1 = 0.0
            r2 = 0.0
            for e in range(start, end):
                row = order[e]
                dx = px - means_x[row]
                dy = py - means_y[row]
                tmp = dx * dy * conic_b[row]
                power = (
                    (dx * dx * conic_a[row] + tmp) + tmp
                ) + dy * dy * conic_c[row]
                power *= -0.5
                if power > 0.0:
                    power = 0.0
                w = np.exp(power)
                alpha_raw = opac[row] * w
                if alpha_raw >= alpha_threshold:
                    alpha_eff = (
                        alpha_raw if alpha_raw < max_alpha else max_alpha
                    )
                    if t > t_min:
                        wgt = alpha_eff * t
                        r0 += wgt * colors[row, 0]
                        r1 += wgt * colors[row, 1]
                        r2 += wgt * colors[row, 2]
                    t *= 1.0 - alpha_eff
            canvas_rgb[t_id, p, 0] = r0 + t * bg[0]
            canvas_rgb[t_id, p, 1] = r1 + t * bg[1]
            canvas_rgb[t_id, p, 2] = r2 + t * bg[2]
            canvas_t[t_id, p] = t


def _backward_kernel(
    offsets, order, tile_ids, tiles_x, ts,
    means_x, means_y, conic_a, conic_b, conic_c, opac, colors,
    g_tiles, bg,
    alpha_threshold, t_min, max_alpha,
    d_colors_e, d_opac_e, d_mean_e, d_conic_e,
):
    num_tiles = tile_ids.size
    pixels = ts * ts
    for i in prange(num_tiles):
        start = offsets[i]
        end = offsets[i + 1]
        n = end - start
        if n == 0:
            continue
        t_id = tile_ids[i]
        x0 = (t_id % tiles_x) * ts
        y0 = (t_id // tiles_x) * ts
        # Per-tile scratch for the recomputed blend state, reused across
        # the tile's pixels.
        w_e = np.empty(n)
        ar_e = np.empty(n)
        a_e = np.empty(n)
        tb_e = np.empty(n)
        cg_e = np.empty(n)
        contrib = np.empty(n)
        for p in range(pixels):
            px = x0 + (p % ts) + 0.5
            py = y0 + (p // ts) + 0.5
            gp0 = g_tiles[t_id, p, 0]
            gp1 = g_tiles[t_id, p, 1]
            gp2 = g_tiles[t_id, p, 2]
            # Pass 1: recompute the forward blend state of this pixel and
            # the total blended contribution (the cumsum's last element).
            t = 1.0
            total = 0.0
            for k in range(n):
                row = order[start + k]
                dx = px - means_x[row]
                dy = py - means_y[row]
                tmp = dx * dy * conic_b[row]
                power = (
                    (dx * dx * conic_a[row] + tmp) + tmp
                ) + dy * dy * conic_c[row]
                power *= -0.5
                if power > 0.0:
                    power = 0.0
                w = np.exp(power)
                alpha_raw = opac[row] * w
                alpha_eff = 0.0
                if alpha_raw >= alpha_threshold:
                    alpha_eff = (
                        alpha_raw if alpha_raw < max_alpha else max_alpha
                    )
                w_e[k] = w
                ar_e[k] = alpha_raw
                a_e[k] = alpha_eff
                tb_e[k] = t
                cg = (
                    colors[row, 0] * gp0
                    + colors[row, 1] * gp1
                    + colors[row, 2] * gp2
                )
                cg_e[k] = cg
                c_k = 0.0
                if alpha_raw >= alpha_threshold and t > t_min:
                    c_k = (alpha_eff * t) * cg
                contrib[k] = c_k
                total += c_k
                t *= 1.0 - alpha_eff
            t_final = t
            bg_term = t_final * (gp0 * bg[0] + gp1 * bg[1] + gp2 * bg[2])
            # Pass 2: suffix-sum alpha gradient, staged per CSR entry.
            csum = 0.0
            cap = 1.0 - max_alpha
            for k in range(n):
                e = start + k
                row = order[e]
                alpha_eff = a_e[k]
                alpha_raw = ar_e[k]
                tb = tb_e[k]
                csum += contrib[k]
                suffix = (total - csum) + bg_term
                one_minus = 1.0 - alpha_eff
                if one_minus < cap:
                    one_minus = cap
                d_ae = -(suffix / one_minus)
                if alpha_raw >= alpha_threshold and tb > t_min:
                    d_ae += tb * cg_e[k]
                    wgt = alpha_eff * tb
                    d_colors_e[e, 0] += wgt * gp0
                    d_colors_e[e, 1] += wgt * gp1
                    d_colors_e[e, 2] += wgt * gp2
                if alpha_raw >= alpha_threshold and alpha_raw < max_alpha:
                    d_opac_e[e] += w_e[k] * d_ae
                    dp = d_ae * alpha_raw
                    dx = px - means_x[row]
                    dy = py - means_y[row]
                    d_mean_e[e, 0] += dp * (
                        conic_a[row] * dx + conic_b[row] * dy
                    )
                    d_mean_e[e, 1] += dp * (
                        conic_b[row] * dx + conic_c[row] * dy
                    )
                    d_conic_e[e, 0] += -0.5 * dp * dx * dx
                    d_conic_e[e, 1] += -0.5 * dp * dx * dy
                    d_conic_e[e, 2] += -0.5 * dp * dy * dy


def _adam_kernel(params, grads, m, v, bc1, rsqrt_bc2, lr, beta1, beta2, eps):
    n, width = params.shape
    omb1 = 1.0 - beta1
    omb2 = 1.0 - beta2
    for i in prange(n):
        b1i = bc1[i]
        rsi = rsqrt_bc2[i]
        for j in range(width):
            g = grads[i, j]
            mi = m[i, j] * beta1 + omb1 * g
            vi = v[i, j] * beta2 + (g * g) * omb2
            m[i, j] = mi
            v[i, j] = vi
            denom = np.sqrt(vi) * rsi + eps
            params[i, j] -= ((mi / denom) * lr[j]) / b1i


_JITTED = None


def _jitted():
    """Compile the kernel bodies once per process (then per numba
    signature on first call; ``cache=True`` persists across processes)."""
    global _JITTED
    if _JITTED is None:
        jit = _NUMBA.njit(parallel=True, cache=True, fastmath=False)
        _JITTED = {
            "forward": jit(_forward_kernel),
            "backward": jit(_backward_kernel),
            "adam": jit(_adam_kernel),
        }
    return _JITTED


# ----------------------------------------------------------------------
# Op wrappers (the compiled callables handed out by the backend)
# ----------------------------------------------------------------------


def _raster_forward(bins, aug, settings, bg, canvas_rgb, canvas_t):
    if bins.num_tiles == 0:
        return None
    _jitted()["forward"](
        bins.offsets, bins.order, bins.tile_ids,
        bins.tiles_x, bins.tile_size,
        aug.means_x, aug.means_y,
        aug.conic_a, aug.conic_b, aug.conic_c,
        aug.opac, aug.colors,
        np.asarray(bg, dtype=np.float64),
        float(settings.alpha_threshold),
        float(settings.transmittance_min),
        float(settings.max_alpha),
        canvas_rgb, canvas_t,
    )
    return None  # no blend state retained (recomputed backward)


def _raster_backward(
    bins, aug, settings, g_tiles, bg,
    d_colors, d_opac, d_means2d, d_conics,
    blend_cache=None,
):
    from repro.gaussians.rasterizer_grad import _segment_sum

    if bins.num_tiles == 0:
        return
    entries = bins.num_entries
    d_colors_e = np.zeros((entries, 3))
    d_opac_e = np.zeros(entries)
    d_mean_e = np.zeros((entries, 2))
    d_conic_e = np.zeros((entries, 3))
    _jitted()["backward"](
        bins.offsets, bins.order, bins.tile_ids,
        bins.tiles_x, bins.tile_size,
        aug.means_x, aug.means_y,
        aug.conic_a, aug.conic_b, aug.conic_c,
        aug.opac, aug.colors,
        g_tiles, np.asarray(bg, dtype=np.float64),
        float(settings.alpha_threshold),
        float(settings.transmittance_min),
        float(settings.max_alpha),
        d_colors_e, d_opac_e, d_mean_e, d_conic_e,
    )
    size = d_opac.size
    rows = bins.order
    d_colors += _segment_sum(rows, d_colors_e, size)
    d_opac += _segment_sum(rows, d_opac_e, size)
    d_means2d += _segment_sum(rows, d_mean_e, size)
    dc = np.empty((entries, 2, 2))
    dc[:, 0, 0] = d_conic_e[:, 0]
    dc[:, 0, 1] = d_conic_e[:, 1]
    dc[:, 1, 0] = d_conic_e[:, 1]
    dc[:, 1, 1] = d_conic_e[:, 2]
    d_conics += _segment_sum(rows, dc, size)


def _adam_fused(params, grads, m, v, t, lr, beta1, beta2, eps):
    if np.ndim(t) == 0:
        # Dense (scalar-step) callers: the row-parallel kernel wants the
        # per-row correction vectors; scalar steps stay on the reference.
        fused_adam_update(params, grads, m, v, t, lr, beta1, beta2, eps)
        return
    if params.shape[0] == 0:
        return
    bc1, rsqrt_bc2 = tables_for(beta1, beta2).lookup(
        np.asarray(t, dtype=np.int64)
    )
    lr_vec = np.ascontiguousarray(
        np.broadcast_to(
            np.asarray(lr, dtype=np.float64), (params.shape[1],)
        )
    )
    _jitted()["adam"](
        params, grads, m, v, bc1, rsqrt_bc2, lr_vec,
        float(beta1), float(beta2), float(eps),
    )


@register_backend("numba")
class NumbaKernelBackend(KernelBackend):
    """Optional JIT backend: fused prange loops, float64 only."""

    priority = 10
    description = (
        "numba JIT (optional): fused single-pass tile compositing + "
        "row-parallel Adam; float64 ops only, per-op NumPy fallback"
    )
    retains_blend_state = False

    def available(self) -> bool:
        return _NUMBA is not None

    def version(self) -> Optional[str]:
        return getattr(_NUMBA, "__version__", None) if _NUMBA else None

    def capabilities(self) -> "frozenset[str]":
        return frozenset(KERNEL_OPS)

    def supports(self, spec: KernelSpec) -> bool:
        if spec.op not in self.capabilities():
            return False
        # The JIT kernels are float64-exact replicas of the reference op
        # order; float32 operands would hit numba's standard promotion
        # (not NumPy's value-based casting) and drift past the parity
        # bar, so those calls stay on the reference backend.
        if any(d.dtype != "float64" for d in spec.operands):
            return False
        if spec.op == "adam_fused_update":
            return all(d.rank == 2 for d in spec.operands)
        return True

    def _compile(self, spec: KernelSpec) -> Callable:
        _jitted()  # warm the process-level dispatcher cache
        if spec.op == "raster_forward_slab":
            return _raster_forward
        if spec.op == "raster_backward_slab":
            return _raster_backward
        return _adam_fused
