"""Substrate micro-benchmarks: wall-clock cost of the hot kernels.

Not a paper table — these time the actual reproduction substrate (render
forward/backward, frustum culling, transfer planning, TSP) so regressions
in the hot paths are visible.  The render and fused-Adam variants run
through the :mod:`repro.kernels` backend registry — one variant per
*available* backend, each stamped with its ``kernel_backend`` — so a
host with a C compiler reports the compiled kernels alongside the NumPy
reference instead of silently timing whichever backend ``auto`` picked.
The pytest entry points use pytest-benchmark's real timing loop; the
registered ``compute`` takes the best of a few repetitions so ``repro
bench run`` records comparable wall times without pytest.
"""

import time

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.bench import register_benchmark
from repro.kernels import backend_status
from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam
from repro.planning.caching import build_transfer_plan
from repro.planning.tsp_order import tsp_order
from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.loss import photometric_loss
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render, render_backward


def _setup():
    model = GaussianModel.random(300, extent=0.8, sh_degree=1, seed=0)
    cam = look_at_camera(eye=(0, -2.5, 0.8), target=(0, 0, 0),
                         width=96, height=64, view_id=0)
    target = np.random.default_rng(0).uniform(0, 1, (64, 96, 3))
    return model, cam, target


@pytest.fixture(scope="module")
def render_setup():
    return _setup()


def _available_backend_names():
    return [s["name"] for s in backend_status() if s["available"]]


def _backend_ops(backend: str):
    """(name, thunk) pairs for the backend-dispatched kernels."""
    model, cam, target = _setup()
    settings = RasterSettings(kernel_backend=backend)
    result = render(cam, model, settings)
    _, g_img = photometric_loss(result.image, target)
    rows = 20_000
    rng = np.random.default_rng(2)
    params = rng.standard_normal((rows, 10))
    grads = rng.standard_normal((rows, 10))
    adam = PackedSparseAdam(
        {"positions": (3,), "log_scales": (3,), "quaternions": (4,)},
        rows, config=AdamConfig(), kernel_backend=backend,
    )
    all_rows = np.arange(rows)
    return (
        ("render_forward", lambda: render(cam, model, settings)),
        ("render_backward", lambda: render_backward(result, model, g_img)),
        ("adam_fused",
         lambda: adam.step_packed(params, grads, all_rows)),
    )


def _shared_ops():
    """(name, thunk) pairs for the backend-independent hot paths."""
    big = GaussianModel.random(50_000, extent=3.0, sh_degree=1, seed=1)
    _, cam, _ = _setup()
    rng = np.random.default_rng(0)
    plan_sets = [np.unique(rng.integers(0, 200_000, 20_000))
                 for _ in range(16)]
    tsp_sets = [np.unique(rng.integers(0, 100_000, 3000))
                for _ in range(64)]
    return (
        ("frustum_culling",
         lambda: cull_gaussians(cam, big.positions, big.log_scales,
                                big.quaternions)),
        ("transfer_plan", lambda: build_transfer_plan(plan_sets)),
        ("tsp_batch64", lambda: tsp_order(tsp_sets, time_limit_s=1e-3,
                                          seed=0)),
    )


def _best_of(thunk, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - t0)
    return best


@register_benchmark("substrate_kernels", tags=("micro", "kernels"))
def compute(ctx, repeats: int = 3):
    """Best-of-N wall times of the substrate's hot kernels, per backend."""
    rows = []
    for backend in _available_backend_names():
        for name, thunk in _backend_ops(backend):
            thunk()  # warm-up: a first-use build happens here, untimed
            best = _best_of(thunk, repeats)
            rows.append([f"{name}[{backend}]", best * 1e3])
            ctx.record(variant=name, kernel_backend=backend,
                       wall_time_s=best)
    for name, thunk in _shared_ops():
        best = _best_of(thunk, repeats)
        rows.append([name, best * 1e3])
        ctx.record(variant=name, wall_time_s=best)
    ctx.emit(
        "Substrate kernels — best-of-{} wall time".format(repeats),
        format_table(["kernel", "best ms"], rows, floatfmt="{:.2f}"),
    )
    ctx.log_raw("substrate_kernels", {"rows": rows})
    return rows


def test_bench_render_forward(benchmark, render_setup):
    model, cam, _ = render_setup
    result = benchmark(lambda: render(cam, model))
    assert result.image.shape == (64, 96, 3)


def test_bench_render_backward(benchmark, render_setup):
    model, cam, target = render_setup
    result = render(cam, model)
    _, g_img = photometric_loss(result.image, target)

    grads = benchmark(lambda: render_backward(result, model, g_img))
    assert grads["positions"].shape == model.positions.shape


def test_bench_frustum_culling(benchmark, render_setup):
    model, cam, _ = render_setup
    big = GaussianModel.random(50_000, extent=3.0, sh_degree=1, seed=1)
    out = benchmark(
        lambda: cull_gaussians(cam, big.positions, big.log_scales,
                               big.quaternions)
    )
    assert out.size > 0


def test_bench_transfer_plan(benchmark):
    rng = np.random.default_rng(0)
    sets = [np.unique(rng.integers(0, 200_000, 20_000)) for _ in range(16)]
    steps = benchmark(lambda: build_transfer_plan(sets))
    assert len(steps) == 16


def test_bench_tsp_batch64(benchmark):
    rng = np.random.default_rng(0)
    sets = [np.unique(rng.integers(0, 100_000, 3000)) for _ in range(64)]
    order = benchmark(lambda: tsp_order(sets, time_limit_s=1e-3, seed=0))
    assert sorted(order) == list(range(64))
