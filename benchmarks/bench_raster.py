"""Rasterization substrate benchmark: vectorized CSR path vs the legacy
per-tile Python loop.

Not a paper figure — this is the perf trajectory of the render/loss hot
path every engine spends its batches in (the stage that dominates the
functional Figure 11-13 wall times).  Three configurations are timed on a
large-scene-shaped workload (many small splats, shallow tile bins):

- ``legacy_*``: the pre-PR4 per-tile loop at its default settings
  (tile_size 16, float64) — binning via the Python triple loop.
- ``vectorized_*``: the grouped CSR substrate at the *same* settings
  (the parity twin the golden tests pin; it composites on 8x8 compute
  tiles inside the 16-pixel spans).
- ``tuned_*``: the substrate with 8-pixel spans (``tile_size=8``: a
  *different binning* — splats reach fewer pixels — kept as a variant for
  the px/s trajectory, not part of the headline); ``tuned_f32_*`` adds
  the float32 compute mode (float64 gradient accumulation).

``combined_speedup.speedup`` is legacy vs vectorized at the same default
settings, forward+backward — the one ratio that compares like with like,
and the headline the CI bench-smoke gate asserts on;
``speedup_tile8``/``speedup_f32`` record the cross-setting ratios.  The
per-variant pixel
throughputs ride the standard ``compare_results`` regression gate.
"""

import time

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.bench import register_benchmark
from repro.gaussians.camera import look_at_camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import (
    RasterSettings,
    _build_tiles_loop,
    build_tile_bins,
    preprocess,
    rasterize_forward,
    rasterize_forward_legacy,
)
from repro.gaussians.rasterizer_grad import (
    rasterize_backward,
    rasterize_backward_legacy,
)


def _scene(tier_name: str):
    """A shallow-bin scene: many small splats over a real tile grid, the
    regime the paper's large scenes (and the CSR substrate) target."""
    if tier_name == "full":
        num, width, height = 6_000, 576, 432
    else:
        num, width, height = 4_000, 512, 384
    model = GaussianModel.random(num, extent=1.8, sh_degree=1, seed=0)
    # Uniform small splats (~2-3 px radius) instead of random blob sizes.
    model.log_scales[:] = -5.2
    cam = look_at_camera(
        eye=(0.0, -2.8, 0.7), target=(0.0, 0.0, 0.0),
        width=width, height=height, view_id=0,
    )
    return model, cam


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@register_benchmark("raster", tags=("micro", "kernels"))
def compute(ctx, repeats: int = 5):
    """Forward/backward px/s and binning time, substrate vs legacy loop."""
    model, cam = _scene(ctx.tier.name)
    pixels = cam.width * cam.height
    g_img = np.random.default_rng(0).normal(size=(cam.height, cam.width, 3))

    default = RasterSettings()
    variants = {
        "legacy": (True, default),
        "vectorized": (False, default),
        "tuned": (False, RasterSettings(tile_size=8)),
        "tuned_f32": (False, RasterSettings(tile_size=8, dtype="float32")),
    }

    # Binning in isolation: Python triple loop vs the flat CSR build.
    proj = preprocess(cam, model, default)
    bin_legacy_s = _best(lambda: _build_tiles_loop(cam, proj, default), repeats)
    bin_csr_s = _best(lambda: build_tile_bins(cam, proj, default), repeats)

    rows = []
    totals = {}
    for name, (legacy, settings) in variants.items():
        forward = rasterize_forward_legacy if legacy else rasterize_forward
        backward = rasterize_backward_legacy if legacy else rasterize_backward
        _, _, render_ctx = forward(cam, model, settings)
        fwd_s = _best(lambda: forward(cam, model, settings), repeats)
        bwd_s = _best(lambda: backward(render_ctx, model, g_img), repeats)
        totals[name] = fwd_s + bwd_s
        rows.append([name, fwd_s * 1e3, bwd_s * 1e3,
                     pixels / fwd_s, pixels / bwd_s])
        ctx.record(
            variant=f"{name}_forward",
            images_per_second=pixels / fwd_s,
            wall_time_s=fwd_s,
            forward_px_per_s=pixels / fwd_s,
        )
        ctx.record(
            variant=f"{name}_backward",
            images_per_second=pixels / bwd_s,
            wall_time_s=bwd_s,
            backward_px_per_s=pixels / bwd_s,
        )

    speedup = totals["legacy"] / totals["vectorized"]
    ctx.record(
        variant="binning",
        wall_time_s=bin_csr_s,
        legacy_wall_time_s=bin_legacy_s,
        speedup=bin_legacy_s / bin_csr_s,
    )
    ctx.record(
        variant="combined_speedup",
        speedup=speedup,
        speedup_tile8=totals["legacy"] / totals["tuned"],
        speedup_f32=totals["legacy"] / totals["tuned_f32"],
    )
    rows.append(["binning (csr)", bin_csr_s * 1e3, None, None, None])
    rows.append(["binning (loop)", bin_legacy_s * 1e3, None, None, None])
    ctx.emit(
        f"Raster substrate — best-of-{repeats}, combined speedup "
        f"{speedup:.1f}x (legacy vs substrate, same default settings)",
        format_table(
            ["variant", "fwd ms", "bwd ms", "fwd px/s", "bwd px/s"],
            rows, floatfmt="{:.1f}",
        ),
    )
    ctx.log_raw("raster", {"rows": rows, "combined_speedup": speedup})
    return {"rows": rows, "combined_speedup": speedup}


@pytest.fixture(scope="module")
def raster_results(bench_ctx):
    return compute(bench_ctx)


def test_raster_substrate_speedup(raster_results):
    """The substrate must beat the legacy per-tile loop by a wide margin.

    The committed quick-tier BENCH_results.json carries the measured 6.6x;
    this assertion keeps noise headroom for arbitrary test machines (the
    CI bench-smoke gate independently asserts >=3x on the fresh run).
    """
    assert raster_results["combined_speedup"] >= 4.0


def test_raster_binning_faster_than_loop(raster_results):
    by_name = {r[0]: r for r in raster_results["rows"]}
    assert by_name["binning (csr)"][1] < by_name["binning (loop)"][1]
