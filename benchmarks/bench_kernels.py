"""``kernels`` benchmark — per-backend raster and Adam throughput.

Times the kernel backend layer (:mod:`repro.kernels`) directly: one full
raster step (``preprocess``, binning, forward, loss gradient, backward and
the parameter chain) in pixels/s and the fused packed-row Adam update in
rows/s, for every *available* registered backend.  Each thunk runs once
untimed first so the ``native`` backend's first-use build never pollutes
the measurements, then the median of N wall times converts to throughput
(:func:`repro.bench.median_time`; the spread rides in ``extra``).
``native`` runs the whole step in C (frustum test, projection, binning,
compositing, the loss, the gradient chain) and the Adam step too
(``adam_rows``: one call, the rows updated in place).

A second record per backend, ``exact_cull``, times the frustum arbiter the
cull and the render share: the two-level :func:`cull_batch` of an 8-view
batch over ``bench_e2e``'s ``sparse`` scene (what a training batch pays)
and the exact test alone on every row of it (the arbiter's rows/s).

Variants are ``raster+adam.<backend>`` and ``exact_cull.<backend>``.  The
raster records carry the step's ``images_per_second``, so ``repro bench
compare`` fails on a px/s drop against the committed run.  Two declared
gates: :func:`repro.bench.repeats_agree` reports a disturbed run as
unresolved, then ``native`` is held to its whole-step and frustum-test
floors over the NumPy reference; on hosts without a C compiler the
benchmark reports the reference backend alone and the floors do not apply
(CI's ``test`` job asserts separately that ``auto`` resolves to ``native``).
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.bench import median_time, register_benchmark, repeats_agree
from repro.kernels import backend_status
from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import cull_batch, exact_cull, frustum_planes
from repro.gaussians.loss import photometric_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render, render_backward
from repro.scenes.datasets import build_scene


def native_clears_its_floors(records):
    """With a C compiler, ``native`` beats the NumPy reference.  The step
    is a render, the loss and a backward pass, all three in C; its floor is
    what compiling the compositing alone gave (1.50x), so the gate says the
    whole-view ops still pay.  On the median-of-5 estimator the
    ratio read 1.67-2.98x over 21 recorded runs while the loss was NumPy on
    both sides (median 1.9x, the lower half within 0.23x of it), which left
    the floor a tenth under the worst of them; with the loss in C it read
    3.62-4.50x over five whole-tier runs.  The frustum arbiter must beat the NumPy one on the
    exact test (8.5-26x measured) and not slow the two-level batch cull
    (1.25-2.5x): those floors are the claims themselves, not calibrations.
    """
    if "raster+adam.native" not in records:
        return
    ref = records["raster+adam.numpy"]["extra"]
    native = records["raster+adam.native"]["extra"]
    raster_x = native["raster_px_per_s"] / ref["raster_px_per_s"]
    assert raster_x >= 1.5, f"whole-render speedup {raster_x:.2f}x < 1.5x"
    ref = records["exact_cull.numpy"]["extra"]
    native = records["exact_cull.native"]["extra"]
    exact_x = native["exact_rows_per_s"] / ref["exact_rows_per_s"]
    batch_x = ref["cull_batch_wall_s"] / native["cull_batch_wall_s"]
    assert exact_x >= 2.0, f"exact_cull speedup {exact_x:.2f}x < 2x"
    assert batch_x >= 1.0, f"cull_batch speedup {batch_x:.2f}x < 1x"


@register_benchmark(
    "kernels", tags=("micro", "kernels"),
    variants=("raster+adam.numpy", "exact_cull.numpy"),
    gates=(repeats_agree, native_clears_its_floors),
)
def compute(ctx, repeats: int = 5):
    """Raster px/s and fused-Adam rows/s for every available backend."""
    full = ctx.tier.name == "full"
    n_gauss = 4000 if full else 1200
    width, height = (192, 128) if full else (128, 96)
    adam_rows = 200_000 if full else 50_000

    model = GaussianModel.random(n_gauss, extent=0.9, sh_degree=1, seed=0)
    cam = look_at_camera(eye=(0, -2.5, 0.8), target=(0, 0, 0),
                         width=width, height=height, view_id=0)
    target = np.random.default_rng(0).uniform(0, 1, (height, width, 3))
    rng = np.random.default_rng(2)
    params = rng.standard_normal((adam_rows, 10))
    grads = rng.standard_normal((adam_rows, 10))
    all_rows = np.arange(adam_rows)

    city = build_scene("bigcity", scale=2e-4, num_views=8, seed=0)
    critical = (
        city.model.positions, city.model.log_scales, city.model.quaternions
    )
    every_row = np.arange(city.model.num_gaussians)
    planes = frustum_planes(city.cameras[0])

    rows = []
    cull_rows = []
    for status in backend_status():
        if not status["available"]:
            continue
        backend = status["name"]
        settings = RasterSettings(kernel_backend=backend)

        def raster_step():
            result = render(cam, model, settings)
            _, g_img = photometric_loss(result.image, target, kernel_backend=backend)
            render_backward(result, model, g_img)

        # The warm-up call is where a first-use build happens, untimed.
        raster_s, raster_spread, _ = median_time(raster_step, repeats)
        px_per_s = width * height / raster_s

        adam = PackedSparseAdam(
            {"positions": (3,), "log_scales": (3,), "quaternions": (4,)},
            adam_rows, config=AdamConfig(), kernel_backend=backend,
        )

        def adam_step():
            adam.step_packed(params, grads, all_rows)

        adam_s, adam_spread, _ = median_time(adam_step, repeats)
        rows_per_s = adam_rows / adam_s

        rows.append([backend, raster_s * 1e3, px_per_s / 1e6,
                     adam_s * 1e3, rows_per_s / 1e6])
        ctx.record(
            variant=f"raster+adam.{backend}",
            kernel_backend=backend,
            wall_time_s=raster_s + adam_s,
            images_per_second=1.0 / raster_s,
            raster_px_per_s=px_per_s,
            adam_rows_per_s=rows_per_s,
            raster_wall_s=raster_s,
            raster_spread=raster_spread,
            adam_wall_s=adam_s,
            adam_spread=adam_spread,
            image_px=width * height,
            adam_rows=adam_rows,
        )

        def batch_cull():
            return cull_batch(city.cameras, *critical, kernel_backend=backend)

        def single_level():
            return exact_cull(planes, *critical, every_row, backend)

        batch_s, batch_spread, kept_sets = median_time(batch_cull, repeats)
        kept = sum(s.size for s in kept_sets)
        exact_s, exact_spread, _ = median_time(single_level, repeats)
        cull_rows.append([backend, batch_s * 1e3, exact_s * 1e3,
                          every_row.size / exact_s / 1e6])
        ctx.record(
            variant=f"exact_cull.{backend}",
            kernel_backend=backend,
            wall_time_s=batch_s,
            cull_batch_wall_s=batch_s,
            cull_batch_spread=batch_spread,
            exact_rows_per_s=every_row.size / exact_s,
            exact_wall_s=exact_s,
            exact_spread=exact_spread,
            num_gaussians=int(every_row.size),
            views=len(city.cameras),
            kept_rows=int(kept),
        )
    ctx.emit(
        "Frustum arbiter — 8-view cull_batch and the exact test on "
        f"{every_row.size} rows (median of {repeats})",
        format_table(
            ["backend", "cull_batch ms", "exact ms", "Mrows/s"],
            cull_rows, floatfmt="{:.2f}",
        ),
    )
    ctx.emit(
        "Kernel backends — raster step and fused Adam throughput "
        f"(median of {repeats})",
        format_table(
            ["backend", "raster ms", "Mpx/s", "adam ms", "Mrows/s"],
            rows, floatfmt="{:.2f}",
        ),
    )
    ctx.log_raw("kernels", {"rows": rows, "cull_rows": cull_rows})
    return rows
