"""``native``'s row walk against the per-cell walk it replaced.

``walk_tile`` in ``native_kernels.c`` takes ``exp`` once at the first cell
of a footprint row past the cut and advances it by two multiplies a cell,
re-anchoring every 8 cells; a value within 1e-12 of the threshold is
recomputed with libm.  The oracle here is the per-cell walk in pure Python:
the same footprint, the same ``power`` arithmetic and ``math.exp`` — the
libm ``exp`` the C calls — on every cell.  Which cells pass decides
everything discrete, so survivors, bins and the blend records' pixels and
ends are ``array_equal`` to the oracle's; each record's exp value is within
1e-13 relative.  A splat that does not recur — no threshold, a conic that
is not positive definite — takes ``exp`` per cell, so its image and
transmittance are the oracle's bits.
"""

import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import MODEL_CASES, generated_model, image_camera, make_proj

from repro.gaussians import rasterizer
from repro.gaussians.model import GaussianModel, inverse_sigmoid
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
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
    model = GaussianModel.random(1, extent=0.1, sh_degree=0, seed=0)
    model.positions[:] = 0.0
    model.log_scales[:] = -0.5
    model.opacity_logits[:] = inverse_sigmoid(np.array([0.9]))
    opts = RasterSettings(tile_size=44, cache_blend_state=True)
    ctx = rasterize_forward(cam, model, replace(opts, kernel_backend="native"))[2]
    o_w, o_pixel, o_end = oracle_walk(ctx.bins, ctx.proj, opts)[2]
    rec_f, pixel, end = ctx.blocks[4:]
    assert np.array_equal(end, o_end) and np.array_equal(pixel[: end[-1]], o_pixel)
    assert end[-1] > 800  # most of the 44 x 30 tile
    w = rec_f[44 * 44 :][: end[-1]]
    np.testing.assert_allclose(w, o_w, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# Splats that do not recur walk per-cell exp: the oracle's bits
# ---------------------------------------------------------------------------
def native_raster(cam, proj, opts):
    """Image, transmittance and bins of the raster kernels on a hand-made
    projection (``preprocess`` stubbed: the view ops decline the stub)."""
    stub = mock.Mock(num_gaussians=proj.ids.size)
    with contextlib.ExitStack() as stack, np.errstate(all="ignore"):
        stack.enter_context(mock.patch.object(rasterizer, "preprocess", lambda *a: proj))
        img, trans, ctx = rasterize_forward(
            cam, stub, replace(opts, kernel_backend="native")
        )
    assert ctx.kernel_backend == "native"
    return img, trans, ctx.bins


@pytest.mark.parametrize(
    "conic, tau",
    [
        ([[2e-3, 2e-3], [2e-3, 2e-3]], TAU),  # det == 0
        ([[1e-3, 4e-3], [4e-3, 1e-3]], TAU),  # det < 0: along a row exp grows
        ([[np.nan, 0.0], [0.0, 1e-2]], TAU),
        ([[0.2, 0.05], [0.05, 0.1]], 0.0),  # no threshold, no cut
    ],
    ids=["singular", "indefinite", "nan", "zero-threshold"],
)
def test_splats_that_do_not_recur_are_the_oracles_bits(conic, tau):
    cam = image_camera(44, 30)
    proj = make_proj([[21.3, 14.2]], 40.0 * np.eye(2), [0.6])
    proj.conics[0] = conic
    opts = RasterSettings(alpha_threshold=tau, tile_size=44, background=(0.3, 0.6, 0.9))
    img, trans, bins = native_raster(cam, proj, opts)
    assert bins.tile_size == 44
    o_img, o_trans, (o_w, _, _) = oracle_walk(bins, proj, opts)
    assert np.array_equal(img, o_img, equal_nan=True)
    assert np.array_equal(trans, o_trans, equal_nan=True)
    if not np.isnan(conic).any():
        assert o_w.size > 100  # a ridge across the image


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


def straddling_splat(libm_passes):
    """A splat and a cell the recurrence reaches (not an anchor) whose
    opacity puts libm's ``exp`` on one side of the threshold and the
    recurrence's on the other: ``(splat, (x, y))``."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        mx, my = rng.uniform(6.0, 14.0, size=2)
        var_x, var_y = rng.uniform(4.0, 12.0, size=2)
        cov_xy = rng.uniform(-2.0, 2.0)
        det = var_x * var_y - cov_xy * cov_xy
        a, b, c = var_y / det, -cov_xy / det, var_x / det
        y = int(my) + int(rng.integers(-3, 4))
        x = int(mx) + int(rng.integers(2, 6))  # right of the mean: a row's tail
        dy, dx = (y + 0.5) - my, (x + 0.5) - mx
        ex = _exp(-0.5 * (a * dx * dx + c * dy * dy) - b * dy * dx)
        # The faintest opacity libm passes at (x, y), or the one below it.
        opac = TAU / ex
        while opac * ex >= TAU:
            opac = np.nextafter(opac, 0.0)
        while not opac * ex >= TAU:
            opac = np.nextafter(opac, 1.0)
        if not libm_passes:
            opac = np.nextafter(opac, 0.0)
        splat = (mx, my, a, b, c, float(opac))
        rec = row_values(splat, TAU, y, range(20), recheck=False)
        if x in rec and x - 1 in rec and (opac * rec[x] >= TAU) != libm_passes:
            assert row_values(splat, TAU, y, range(20))[x] == ex
            return splat, (x, y)
    pytest.fail("no straddling cell found")


@pytest.mark.parametrize("libm_passes", [True, False], ids=["libm-passes", "libm-fails"])
def test_a_cell_at_the_threshold_gets_libms_verdict(libm_passes):
    splat, (x, y) = straddling_splat(libm_passes)
    mx, my, a, b, c, opac = splat
    cam = image_camera(20, 20)
    proj = make_proj([[mx, my]], np.eye(2), [opac])
    proj.conics[0] = [[a, b], [b, c]]
    opts = RasterSettings(tile_size=20)
    _, trans, bins = native_raster(cam, proj, opts)
    _, o_trans, _ = oracle_walk(bins, proj, opts)
    assert (trans[y, x] < 1.0) == (o_trans[y, x] < 1.0) == libm_passes
    assert np.array_equal(trans < 1.0, o_trans < 1.0)
