"""``kernels`` benchmark — per-backend raster and Adam throughput.

Times the kernel backend layer (:mod:`repro.kernels`) directly: one full
raster step (``preprocess``, binning, forward, loss gradient, backward and
the parameter chain) in pixels/s and the fused packed-row Adam update in
rows/s, for every *available* registered backend.  Each thunk runs once
untimed first so the ``native`` backend's first-use build never pollutes
the measurements, then best-of-N wall times convert to throughput.
``native`` runs the whole view in C (projection, binning, compositing, the
gradient chain — everything in the step but the frustum mask and the loss)
and no Adam, so its Adam column is the NumPy reference reached through the
per-op fallback.

The CI ``kernel-backend-gate`` job runs this at the quick tier and asserts
the ``native`` backend's whole-step speedup over the NumPy reference from
the emitted records — ``extra.raster_px_per_s`` keyed by
``kernel_backend``.  On hosts without a C compiler the benchmark simply
reports the reference backend and the gate does not apply.
"""

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.bench import register_benchmark
from repro.kernels import backend_status
from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam
from repro.gaussians.camera import look_at_camera
from repro.gaussians.loss import photometric_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render, render_backward


def _best_of(thunk, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - t0)
    return best


@register_benchmark("kernels", tags=("micro", "kernels"))
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

    rows = []
    for status in backend_status():
        if not status["available"]:
            continue
        backend = status["name"]
        settings = RasterSettings(kernel_backend=backend)

        def raster_step():
            result = render(cam, model, settings)
            _, g_img = photometric_loss(result.image, target)
            render_backward(result, model, g_img)

        raster_step()  # warm-up (a first-use build happens here, untimed)
        raster_s = _best_of(raster_step, repeats)
        px_per_s = width * height / raster_s

        adam = PackedSparseAdam(
            {"positions": (3,), "log_scales": (3,), "quaternions": (4,)},
            adam_rows, config=AdamConfig(), kernel_backend=backend,
        )

        def adam_step():
            adam.step_packed(params, grads, all_rows)

        adam_step()  # warm-up
        adam_s = _best_of(adam_step, repeats)
        rows_per_s = adam_rows / adam_s

        rows.append([backend, raster_s * 1e3, px_per_s / 1e6,
                     adam_s * 1e3, rows_per_s / 1e6])
        ctx.record(
            variant="raster+adam",
            kernel_backend=backend,
            wall_time_s=raster_s + adam_s,
            raster_px_per_s=px_per_s,
            adam_rows_per_s=rows_per_s,
            raster_wall_s=raster_s,
            adam_wall_s=adam_s,
            image_px=width * height,
            adam_rows=adam_rows,
        )
    ctx.emit(
        "Kernel backends — raster step and fused Adam throughput "
        f"(best of {repeats})",
        format_table(
            ["backend", "raster ms", "Mpx/s", "adam ms", "Mrows/s"],
            rows, floatfmt="{:.2f}",
        ),
    )
    ctx.log_raw("kernels", {"rows": rows})
    return rows
