"""``native``'s row walk against the per-cell walk it replaced.

``walk_tile`` in ``native_kernels.c`` takes ``exp`` once at the first cell
of a footprint row past the cut and advances it by two multiplies a cell,
re-anchoring every 8 cells; a value within 1e-12 of the threshold is
recomputed with libm.  The oracle here is the per-cell walk in pure Python:
the same footprint, the same ``power`` arithmetic and ``math.exp`` — the
libm ``exp`` the C calls — on every cell.  Which cells pass decides
everything discrete, so survivors, bins and the blend records' pixels and
ends are ``array_equal`` to the oracle's; each record's exp value is within
1e-13 relative.  A splat that does not recur — no threshold, a conic
``view_project`` hands on singular, a NaN opacity — takes ``exp`` per cell,
so its image, transmittance and records are the oracle's bits.
Every render here is a model through ``native``'s view ops, and the oracle
walks the projection and bins that render made.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import MODEL_CASES, generated_model, image_camera

from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.kernels import ENV_VAR, backend_status

BUILDS = {row["name"]: row for row in backend_status()}["native"]["available"]
pytestmark = [
    pytest.mark.skipif(not BUILDS, reason="no working C compiler"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]

TAU = RasterSettings().alpha_threshold
MARGIN = 1e-6  # native_kernels.c FOOTPRINT_MARGIN
REANCHOR, NEAR_THRESHOLD = 8, 1e-12  # native_kernels.c walk_tile()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def _log(x):
    return math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan)


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _unit(e):
    return 1.0 if e > 1.0 else e


def footprint(mx, my, a, b, c, opac, tau):
    """``footprint()``: unclipped pixel bounds of ``{alpha_raw >= tau}`` and
    the cut, IEEE division and ``sqrt`` of a negative included."""
    if not tau > 0.0:
        return -math.inf, math.inf, -math.inf, math.inf, -math.inf
    level = 2.0 * _log(opac / tau)
    level += MARGIN * (1.0 + level)
    with np.errstate(all="ignore"):
        det = np.float64(a) * c - np.float64(b) * b
        half_x = np.sqrt(level * np.float64(c) / det)
        half_y = np.sqrt(level * np.float64(a) / det)
    half_x += MARGIN * (1.0 + half_x)
    half_y += MARGIN * (1.0 + half_y)
    return (
        np.ceil(mx - 0.5 - half_x), np.floor(mx - 0.5 + half_x),
        np.ceil(my - 0.5 - half_y), np.floor(my - 0.5 + half_y), -0.5 * level,
    )


def clip(lo, hi, first, last):
    """``(int64_t)fmax(first, lo)``, ``(int64_t)fmin(last, hi)``."""
    return (int(lo) if lo > first else first), (int(hi) if hi < last else last)


def oracle_walk(bins, proj, opts):
    """The per-cell walk over ``bins``: image and transmittance (H, W), and
    the records ``(w, pixel, end)`` — exp value and tile-local pixel of every
    cell that passes, entry k's cells at ``[end[k], end[k + 1])``."""
    mx, my = proj.means2d.T.tolist()
    a, b, c = (proj.conics[:, i, j].tolist() for i, j in ((0, 0), (0, 1), (1, 1)))
    opac, colors = proj.opacities.tolist(), proj.colors.tolist()
    tau, bg = opts.alpha_threshold, list(opts.background)
    feet = [footprint(*row, tau) for row in zip(mx, my, a, b, c, opac)]
    ts, width, height = bins.tile_size, bins.width, bins.height
    image = np.tile(np.asarray(bg, dtype=np.float64), (height, width, 1))
    trans = np.ones((height, width))
    w, pixel, end = [], [], [0]
    for i, t_id in enumerate(bins.tile_ids.tolist()):
        x0, y0 = (t_id % bins.tiles_x) * ts, (t_id // bins.tiles_x) * ts
        x1, y1 = min(x0 + ts, width) - 1, min(y0 + ts, height) - 1
        T, rgb = [1.0] * (ts * ts), [[0.0] * 3 for _ in range(ts * ts)]
        for row in bins.order[bins.offsets[i] : bins.offsets[i + 1]].tolist():
            lo_x, hi_x, lo_y, hi_y, cut = feet[row]
            xl, xh = clip(lo_x, hi_x, x0, x1)
            yl, yh = clip(lo_y, hi_y, y0, y1)
            for y in range(yl, yh + 1):
                dy = (y + 0.5) - my[row]
                cyy, bdy = c[row] * dy * dy, b[row] * dy
                for x in range(xl, xh + 1):
                    dx = (x + 0.5) - mx[row]
                    power = -0.5 * (a[row] * dx * dx + cyy) - bdy * dx
                    power = 0.0 if power > 0.0 else power
                    if power < cut:
                        continue
                    ex = _exp(power)
                    alpha = opac[row] * ex
                    if not alpha >= tau:
                        continue
                    alpha = min(alpha, opts.max_alpha)
                    p = (y - y0) * ts + (x - x0)
                    t = T[p]
                    w.append(ex)
                    pixel.append(p)
                    if t > opts.transmittance_min:
                        for ch in range(3):
                            rgb[p][ch] += alpha * t * colors[row][ch]
                    T[p] = t * (1.0 - alpha)
            end.append(len(w))
        for y in range(y0, y1 + 1):
            for x in range(x0, x1 + 1):
                p = (y - y0) * ts + (x - x0)
                image[y, x] = [rgb[p][ch] + T[p] * bg[ch] for ch in range(3)]
                trans[y, x] = T[p]
    return image, trans, (np.array(w), np.array(pixel, np.int32), np.array(end))


def one_splat(seed=0, log_scale=-0.5, opacity=0.6):
    """A one-Gaussian model at the origin, seen by ``image_camera``."""
    model = GaussianModel.random(1, extent=0.1, sh_degree=0, seed=seed)
    model.positions[:] = 0.0
    model.log_scales[:] = log_scale
    model.opacity_logits[:] = inverse_sigmoid(np.array([opacity]))
    return model


def native_render(cam, model, opts):
    """Image, transmittance and context of a ``native`` render."""
    img, trans, ctx = rasterize_forward(cam, model, replace(opts, kernel_backend="native"))
    assert ctx.kernel_backend == "native"
    return img, trans, ctx


# ---------------------------------------------------------------------------
# Generated models: the discrete outputs are the oracle's
# ---------------------------------------------------------------------------
@given(
    case=st.fixed_dictionaries(MODEL_CASES),
    tau=st.sampled_from([TAU, 0.0]),
    tile_size=st.sampled_from([8, 12, 20, 44]),
)
@settings(max_examples=40, deadline=None)
def test_generated_models_pass_the_oracles_cells(case, tau, tile_size):
    """A third of ``generated_model``'s rows sit within an ulp-scale band of
    the threshold; a 44-pixel compute tile has rows past the re-anchor."""
    cam, model = generated_model(**case)
    opts = RasterSettings(
        alpha_threshold=tau, tile_size=tile_size, background=(0.3, 0.6, 0.9),
        cache_blend_state=True,
    )
    ctx = rasterize_forward(cam, model, replace(opts, kernel_backend="native"))[2]
    ref = rasterize_forward(cam, model, replace(opts, kernel_backend="numpy"))[2]
    assert ctx.kernel_backend == "native" and ref.kernel_backend == "numpy"
    assert np.array_equal(ctx.proj.ids, ref.proj.ids)
    for name in ("tile_ids", "offsets", "order"):
        assert np.array_equal(getattr(ctx.bins, name), getattr(ref.bins, name)), name

    o_w, o_pixel, o_end = oracle_walk(ctx.bins, ctx.proj, opts)[2]
    rec_f, pixel, end = ctx.blocks[4:]
    cells = end[-1]
    assert np.array_equal(end, o_end) and np.array_equal(pixel[:cells], o_pixel)
    w = rec_f[ctx.bins.num_tiles * ctx.bins.tile_size**2 :][:cells]
    np.testing.assert_allclose(w, o_w, rtol=1e-13, atol=0)


def test_rows_longer_than_the_re_anchor_stay_at_libms_precision():
    """One splat across a 44-pixel compute tile: rows of ~40 cells past the
    cut.  Re-anchored every 8 cells the values stay within a few ulps of
    libm's; run on unanchored they drift ~k^2 ulps, past 1e-14 here."""
    cam = image_camera(44, 30)
    opts = RasterSettings(tile_size=44, cache_blend_state=True)
    ctx = native_render(cam, one_splat(opacity=0.9), opts)[2]
    o_w, o_pixel, o_end = oracle_walk(ctx.bins, ctx.proj, opts)[2]
    rec_f, pixel, end = ctx.blocks[4:]
    assert np.array_equal(end, o_end) and np.array_equal(pixel[: end[-1]], o_pixel)
    assert end[-1] > 800  # most of the 44 x 30 tile
    w = rec_f[44 * 44 :][: end[-1]]
    np.testing.assert_allclose(w, o_w, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# Splats that do not recur walk per-cell exp: the oracle's bits
# ---------------------------------------------------------------------------
def singular_splat(cam):
    """A one-splat model whose conic, as ``view_project`` hands it to the
    walk, has a recomputed determinant of exactly 0.  One log-scale of 16-30
    and two of -30 to -20 make a 2D covariance of rank one to rounding:
    its own ``det > 0`` passes, but ``c / det``, ``-b / det``, ``a / det``
    recompute to ``ca * cc == cb * cb`` for a few orientations in ten
    thousand, which the search finds (none it has tried recomputes below 0)."""
    for seed in range(50_000):
        rng = np.random.default_rng(seed)
        model = one_splat()
        model.log_scales[0] = [rng.uniform(16.0, 30.0), *rng.uniform(-30.0, -20.0, 2)]
        model.quaternions[0] = rng.normal(size=4)
        proj = native_render(cam, model, RasterSettings())[2].proj
        if proj.ids.size:
            a, b, c = proj.conics[0, 0, 0], proj.conics[0, 0, 1], proj.conics[0, 1, 1]
            if a * c - b * b == 0.0:
                return model
    pytest.fail("no singular conic found")


def nan_opacity_splat(cam):
    """A NaN opacity: ``view_project`` keeps the row, and its footprint's
    level, extents and cut are NaN — unclipped, never cut, no cell passes."""
    model = one_splat()
    model.opacity_logits[0] = np.nan
    return model


@pytest.mark.parametrize(
    "make, tau",
    [(singular_splat, TAU), (nan_opacity_splat, TAU), (lambda cam: one_splat(), 0.0)],
    ids=["singular", "nan", "zero-threshold"],
)
def test_splats_that_do_not_recur_are_the_oracles_bits(make, tau):
    """A footprint with no finite extent covers the whole tile, and a splat
    that does not recur — no finite cut over a positive-definite conic —
    takes ``exp`` per cell: image, transmittance and every blend record are
    the oracle's bits, and the backward replaying the forward
    (``cache_blend_state=False``) is the one walking the records."""
    cam = image_camera(44, 30)
    model = make(cam)
    opts = RasterSettings(
        alpha_threshold=tau, tile_size=44, background=(0.3, 0.6, 0.9),
        cache_blend_state=True,
    )
    img, trans, ctx = native_render(cam, model, opts)
    assert ctx.bins.tile_size == 44 and ctx.bins.order.size == 1  # walked
    o_img, o_trans, (o_w, o_pixel, o_end) = oracle_walk(ctx.bins, ctx.proj, opts)
    assert np.array_equal(img, o_img) and np.array_equal(trans, o_trans)
    rec_f, pixel, end = ctx.blocks[4:]
    assert np.array_equal(end, o_end) and np.array_equal(pixel[: end[-1]], o_pixel)
    assert np.array_equal(rec_f[44 * 44 :][: end[-1]], o_w)
    if make is nan_opacity_splat:
        assert o_w.size == 0 and np.all(trans == 1.0)
    elif tau == 0.0:
        assert o_w.size == 44 * 30  # every cell of the image
    else:
        assert o_w.size > 1000  # a ridge across the image
    g_img = np.random.default_rng(0).normal(size=img.shape)
    replay = native_render(cam, model, replace(opts, cache_blend_state=False))[2]
    got = rasterize_backward(ctx, model, g_img)
    want = rasterize_backward(replay, model, g_img)
    for name in got:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


# ---------------------------------------------------------------------------
# Near the threshold libm decides
# ---------------------------------------------------------------------------
def row_values(splat, tau, y, xs, recheck=True):
    """``walk_tile``'s exp value of every cell of row ``y`` past the cut."""
    mx, my, a, b, c, opac = splat
    cut = footprint(*splat, tau)[4]
    recur = math.isfinite(cut) and a > 0.0 and a * c - b * b > 0.0
    ratio = _exp(-a)
    dy = (y + 0.5) - my
    cyy, bdy = c * dy * dy, b * dy
    values, left, e, d = {}, 0, 0.0, 0.0
    for x in xs:
        dx = (x + 0.5) - mx
        power = -0.5 * (a * dx * dx + cyy) - bdy * dx
        if power < cut:
            left = 0
            continue
        if left > 0:
            e, d, left = e * d, d * ratio, left - 1
            w = _unit(e)
            if recheck and abs(opac * w - tau) <= NEAR_THRESHOLD * tau:
                w = _unit(_exp(power))
        else:
            e = _exp(power)
            w = _unit(e)
            if recur:
                d, left = _exp(-(a * (dx + 0.5) + bdy)), REANCHOR - 1
        values[x] = w
    return values


def straddling_threshold(libm_passes):
    """A one-splat render, a threshold and a cell the recurrence reaches
    (not an anchor) at which libm's ``exp`` passes and the recurrence's
    fails, or the other way round: ``(cam, model, tau, (x, y))``."""
    cam = image_camera(20, 20)
    for seed in range(50):
        model = one_splat(seed, log_scale=-1.0)
        proj = native_render(cam, model, RasterSettings(tile_size=20))[2].proj
        splat = (
            *proj.means2d[0], proj.conics[0, 0, 0], proj.conics[0, 0, 1],
            proj.conics[0, 1, 1], float(proj.opacities[0]),
        )
        mx, my, a, b, c, opac = splat
        for y in range(20):
            rec = row_values(splat, TAU, y, range(20), recheck=False)
            for x in sorted(rec):
                if x - 1 not in rec:
                    continue
                dy, dx = (y + 0.5) - my, (x + 0.5) - mx
                ex = _exp(-0.5 * (a * dx * dx + c * dy * dy) - b * dy * dx)
                # The faintest threshold libm fails, or the highest it passes.
                tau = opac * ex
                if not libm_passes:
                    tau = np.nextafter(tau, 1.0)
                again = row_values((*splat[:5], opac), tau, y, range(20), recheck=False)
                if x in again and x - 1 in again and (
                    opac * again[x] >= tau
                ) != libm_passes:
                    assert row_values(splat, tau, y, range(20))[x] == ex
                    return cam, model, float(tau), (x, y)
    pytest.fail("no straddling cell found")


@pytest.mark.parametrize("libm_passes", [True, False], ids=["libm-passes", "libm-fails"])
def test_a_cell_at_the_threshold_gets_libms_verdict(libm_passes):
    cam, model, tau, (x, y) = straddling_threshold(libm_passes)
    opts = RasterSettings(tile_size=20, alpha_threshold=tau)
    _, trans, ctx = native_render(cam, model, opts)
    _, o_trans, _ = oracle_walk(ctx.bins, ctx.proj, opts)
    assert (trans[y, x] < 1.0) == (o_trans[y, x] < 1.0) == libm_passes
    assert np.array_equal(trans < 1.0, o_trans < 1.0)
