"""Figure 11, measured: ``clm`` against ``naive`` offloading across model
sizes, on the functional training path.

``bench_fig11_throughput_vs_naive.py`` reproduces the paper's Figure 11
from the hardware simulator.  This benchmark measures the same axis: real
``train_batch`` calls of ``clm``, ``naive`` and ``enhanced``, interleaved
batch by batch, on ``bench_e2e``'s ``sparse`` recipe (the BigCity regime:
a view sees under 1% of the model) with only the model size replaced.
The recipe is read from ``bench_e2e.workloads``, never modified.

Per model size N (20 000, 100 000 and 400 000 in the quick tier; 800 000
added in the full tier, which peaks near 2.5 GB of RAM) it records:

- batch ms per engine, steady: the first epoch runs untimed (every view is
  culled once, as a real run's first epoch does), then warm-up + median of
  ``repeats`` interleaved rounds (:func:`repro.bench.median_time`), with
  the spread;
- ``clm`` over ``naive``, the paper's Figure 11 ratio;
- each engine's cull / forward / backward / Adam / rest ms per batch, from
  its :class:`~repro.engines.base.PerfCounters` (median over the rounds),
  and the cull's share of the batch;
- the first batch's ms per engine and the scene build seconds;
- one ``clm`` ``evaluate`` over 16 views after the timed rounds, in ms
  (each view's in-frustum rows from the maintained grid, rendered
  forward-only);
- the simulator's Figure 11 prediction for the same scene at the same N
  (:func:`repro.core.timed.run_timed` on ``TrainInputs.sim_scene``) and the
  measured-to-predicted ratio of the ``clm`` over ``naive`` speedup.

The declared gates are the figure's claims: ``clm`` over ``naive`` rises
with N and passes 1.5 at 400 000; the cull is at most 0.15 of a ``clm``
batch at 400 000 (a batch's views are one query of a culling grid that
skips whole cells, kept across batches and refit to the ~0.1 N rows the
sparse Adam step moves, not rebuilt); the quick tier fits in 30 s.
"""

import os
import sys
import time
from dataclasses import replace

import numpy as np

from repro.analysis.reporting import format_table
from repro.bench import median_spread, median_time, register_benchmark, repeats_agree
from repro.core.config import EngineConfig, TimingConfig
from repro.core.culling_index import CullingIndex
from repro.core.timed import run_timed
from repro.engines import create_engine

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from bench_e2e.workloads import (  # noqa: E402  (the ruler's recipe)
    batch_schedule,
    build_train_inputs,
    get_workload,
)

ENGINES = ("clm", "naive", "enhanced")
QUICK_SIZES = (20_000, 100_000, 400_000)
FULL_SIZES = QUICK_SIZES + (800_000,)
#: ``bigcity`` sizes are fractions of the paper's 100 M Gaussians.
PAPER_GAUSSIANS = 100e6
STAGES = ("cull", "forward", "backward", "adam")
QUICK_BUDGET_S = 30.0


def clm_over_naive_rises_with_n(records):
    """Figure 11's shape: the ratio rises with model size, past 1.5x at
    400 000 Gaussians."""
    by_n = sorted(
        (r["extra"]["num_gaussians"], r["extra"]["clm_over_naive"])
        for r in records.values()
        if "clm_over_naive" in r["extra"]  # not the run's own record
    )
    ratios = [ratio for _, ratio in by_n]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), (
        "clm/naive does not rise with N: "
        + ", ".join(f"{n}: {ratio:.2f}x" for n, ratio in by_n)
    )
    at_400k = records["n400000"]["extra"]["clm_over_naive"]
    assert at_400k > 1.5, f"clm/naive at 400 000 is {at_400k:.2f}x <= 1.5x"


def cull_share_clears_the_bar_at_400k(records):
    share = records["n400000"]["extra"]["cull_share_clm"]
    assert share <= 0.15, f"cull share of a clm batch at 400 000 {share:.2f} > 0.15"


def quick_tier_fits_its_budget(records):
    for variant, record in records.items():
        if record["tier"] == "quick":
            wall = record["wall_time_s"]
            assert wall <= QUICK_BUDGET_S, (
                f"{variant}: the quick tier took {wall:.1f} s > {QUICK_BUDGET_S:.0f} s"
            )


def _stage_seconds(perf):
    return {
        "wall": perf.wall_time_s,
        **{stage: getattr(perf, f"{stage}_s") for stage in STAGES},
    }


def _measure_size(ctx, spec, n, repeats):
    """Build the recipe at ``n`` Gaussians, train the three engines
    interleaved and simulate the same scene; one record's payload."""
    spec = replace(spec, size=n / PAPER_GAUSSIANS)
    start = time.perf_counter()
    inputs = build_train_inputs(spec, seed=ctx.seed)
    build_s = time.perf_counter() - start
    scene = inputs.scene
    targets = {cam.view_id: img for cam, img in zip(scene.cameras, scene.images)}
    epoch = len(scene.cameras) // spec.batch_size
    schedule = iter(batch_schedule(spec, ctx.seed, epoch + 1 + repeats))
    engines = {
        name: create_engine(
            name, inputs.initial_model, scene.cameras,
            EngineConfig(batch_size=spec.batch_size),
        )
        for name in ENGINES
    }
    samples = {name: [] for name in ENGINES}

    def train_round():
        view_ids = next(schedule)
        for name, engine in engines.items():
            before = _stage_seconds(engine.perf)
            engine.train_batch(view_ids, targets)
            after = _stage_seconds(engine.perf)
            samples[name].append({k: after[k] - before[k] for k in after})

    for _ in range(epoch):
        train_round()
    first = {name: runs[0]["wall"] for name, runs in samples.items()}
    for runs in samples.values():
        runs.clear()
    median_time(train_round, repeats)

    out = {"num_gaussians": int(inputs.num_gaussians), "build_s": build_s}
    for name, runs in samples.items():
        runs = runs[1:]  # median_time's untimed warm-up round
        batch_s, spread = median_spread([r["wall"] for r in runs])
        out[f"batch_ms_{name}"] = batch_s * 1e3
        out[f"batch_{name}_spread"] = spread
        out[f"first_batch_ms_{name}"] = first[name] * 1e3
        staged = 0.0
        for stage in STAGES:
            stage_s = float(np.median([r[stage] for r in runs]))
            out[f"{stage}_ms_{name}"] = stage_s * 1e3
            staged += stage_s
        out[f"rest_ms_{name}"] = (batch_s - staged) * 1e3
        out[f"cull_share_{name}"] = out[f"cull_ms_{name}"] / out[f"batch_ms_{name}"]
    out["clm_over_naive"] = out["batch_ms_naive"] / out["batch_ms_clm"]
    start = time.perf_counter()
    engines["clm"].evaluate([cam.view_id for cam in scene.cameras[:16]], targets)
    out["evaluate_ms_clm"] = (time.perf_counter() - start) * 1e3
    for engine in engines.values():
        close = getattr(engine, "close", None)
        if close is not None:
            close()

    index = CullingIndex.build(inputs.sim_scene.model, inputs.sim_scene.cameras)
    timing = TimingConfig(
        paper_num_gaussians=float(inputs.num_gaussians),
        num_batches=4,
        batch_size=spec.batch_size,
        seed=ctx.seed,
    )
    sim = {
        system: run_timed(system, inputs.sim_scene, index, timing)
        for system in ("clm", "naive")
    }
    out["sim_images_per_s_clm"] = sim["clm"].images_per_second
    out["sim_images_per_s_naive"] = sim["naive"].images_per_second
    out["sim_clm_over_naive"] = (
        sim["clm"].images_per_second / sim["naive"].images_per_second
    )
    out["measured_over_predicted"] = out["clm_over_naive"] / out["sim_clm_over_naive"]
    return out


@register_benchmark(
    "fig11_measured", figure="Figure 11 (measured)", tags=("throughput",),
    variants=tuple(f"n{n}" for n in QUICK_SIZES),
    gates=(
        repeats_agree,
        clm_over_naive_rises_with_n,
        cull_share_clears_the_bar_at_400k,
        quick_tier_fits_its_budget,
    ),
)
def compute(ctx, repeats: int = 5):
    """Measured clm vs naive/enhanced batch time across model sizes."""
    spec = get_workload("sparse").train
    sizes = FULL_SIZES if ctx.tier.name == "full" else QUICK_SIZES
    rows = []
    for n in sizes:
        out = _measure_size(ctx, spec, n, repeats)
        ctx.record(scene="bigcity", variant=f"n{n}", **out)
        rows.append([
            n, out["batch_ms_clm"], out["batch_ms_naive"],
            out["batch_ms_enhanced"], out["clm_over_naive"],
            out["cull_ms_clm"], out["cull_share_clm"],
            out["first_batch_ms_clm"], out["evaluate_ms_clm"], out["build_s"],
            out["sim_clm_over_naive"], out["measured_over_predicted"],
        ])
    ctx.emit(
        f"Figure 11, measured — sparse recipe, batch of {spec.batch_size}, "
        f"median of {repeats} interleaved rounds",
        format_table(
            ["N", "clm ms", "naive ms", "enhanced ms", "clm/naive",
             "clm cull ms", "cull share", "first clm ms", "clm eval16 ms", "build s",
             "sim clm/naive", "measured/sim"],
            rows, floatfmt="{:.2f}",
        ),
    )
    ctx.log_raw("fig11_measured", {"rows": rows})
    return rows


def test_fig11_measured(benchmark, bench_ctx):
    bench_ctx.drain_records()
    benchmark.pedantic(compute, args=(bench_ctx,), rounds=1, iterations=1)
    records = {p["variant"]: p for p in bench_ctx.drain_records()}
    clm_over_naive_rises_with_n(records)
    cull_share_clears_the_bar_at_400k(records)
