"""The benchmark's declared surface: workloads, metrics, bounds.

`BENCHMARK.json` at the repo root is the copy the driver reads; this
module is the copy the code and the README table are generated from, and
`tests/test_schema.py` pins the two together.  `moves` is the prediction
written down before measuring: which end-to-end metric a layer metric
should move, and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Seconds one driver run measures (`BENCHMARK.json` `run_seconds`); work
#: counts in `workloads.Sizes` scale linearly from this reference.
RUN_SECONDS = 30

TRAIN_VARIANTS: Tuple[str, ...] = (
    "clm",
    "clm_overlap",
    "clm_graph",
    "naive",
    "enhanced",
)
SERVE_PHASES: Tuple[str, ...] = ("sat", "lo", "hi")

WORKLOADS: Dict[str, str] = {
    "dense": (
        "train_dense + serve_tour: every view sees most of the model and "
        "requests repeat, so raster kernels dominate and the plan cache hits"
    ),
    "sparse": (
        "train_sparse + serve_scatter: views see <1% of a city-scale model and "
        "requests never repeat, so culling, planning and transfers dominate"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Regression bound as a share of the parent's median (end-to-end
    #: metrics only; per-layer metrics carry no bound).
    bound: Optional[float] = None
    #: What the number is, in one line (README table).
    what: str = ""
    #: Per-layer only: the end-to-end metric(s) it should move, and where.
    moves: str = ""

    def entry(self) -> dict:
        """The `BENCHMARK.json` form (exact key set of the contract)."""
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


def _ips(variant: str) -> Metric:
    return Metric(
        f"images_per_s.{variant}",
        "images/s",
        "higher",
        0.25,
        f"B / median(calibrated batch wall) of the `{variant}` variant",
    )


END_TO_END: List[Metric] = [
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median of 5 cold set-ups: scene synthesis + every session's "
        "construction + first `clm` batch + first served request",
    ),
    *[_ips(v) for v in TRAIN_VARIANTS],
    Metric(
        "transfer_bytes_per_image.clm", "bytes/image", "lower", 0.10,
        "`PerfCounters.transfer_bytes / images` over the measured `clm` "
        "batches (a count: repeats exactly for one seed)",
    ),
    Metric(
        "gpu_peak_bytes.clm", "bytes", "lower", 0.05,
        "`MemoryPool.peak` of a 3-batch `clm` pass under "
        "`gpu_capacity_bytes=1e12` (a count)",
    ),
    Metric(
        "psnr_db.clm", "dB", "higher", 0.10,
        "`sess.evaluate()` of `clm` after the measured schedule "
        "(bit-stable for one seed)",
    ),
    Metric(
        "serve_capacity_rps", "req/s", "higher", 0.25,
        "`sat` phase: served / calibrated virtual-clock span with every "
        "arrival at t=0, summed over the phase's segments",
    ),
    Metric("serve_mean_ms.lo", "ms", "lower", 0.25,
           "mean calibrated latency from scheduled arrival, open loop at the "
           "low rate (= queue + plan + render means)"),
    Metric("serve_mean_ms.hi", "ms", "lower", 0.25,
           "mean calibrated latency at the high rate"),
]

_IPS_ALL = "every images_per_s.*"
_IPS_CLM = "images_per_s.clm*"

PER_LAYER: List[Metric] = [
    Metric("calibration.slowdown", "ratio", "lower",
           what="median reference-kernel wall / its nominal time during the "
           "traced pass: what the machine was doing",
           moves="every raw per-layer time scales with it; end-to-end "
           "timings are already divided by it"),
    # -- scenes ---------------------------------------------------------
    Metric("scenes.build_s", "s", "lower", what="training-scene synthesis",
           moves="setup_s on both"),
    Metric("scenes.num_gaussians", "count", "lower",
           what="training model size N", moves="describes the input"),
    Metric("scenes.frustum_share_mean", "share", "lower",
           what="mean |S_i| / N over the training cameras",
           moves="describes the input (dense ~0.9, sparse <0.01)"),
    # -- engines --------------------------------------------------------
    *[
        Metric(f"engines.batch_ms.{v}", "ms", "lower",
               what=f"traced median batch wall of `{v}`",
               moves=f"images_per_s.{v} on both")
        for v in ("clm", "clm_graph", "naive", "enhanced")
    ],
    Metric("engines.residual_share", "share", "lower",
           what="`clm` root span minus the union of its child spans, over "
           "the root (ROADMAP target <= 0.05)",
           moves=f"{_IPS_CLM}; time no layer metric explains"),
    Metric("engines.trace_overhead_share", "share", "lower",
           what="traced / untraced median `clm` batch, minus 1",
           moves="none (trust in the per-layer numbers)"),
    # -- gaussians ------------------------------------------------------
    Metric("gaussians.cull_ms_per_batch", "ms", "lower",
           what="`EngineBase.cull_views` self time per `clm` batch",
           moves=f"{_IPS_ALL} on sparse; no change on dense"),
    Metric("gaussians.cull_share", "share", "lower",
           what="cull self time / `clm` batch wall", moves="as cull_ms"),
    Metric("gaussians.cull_rows_per_s", "rows/s", "higher",
           what="N x views culled per second of cull time",
           moves="as cull_ms"),
    Metric("gaussians.forward_ms_per_image", "ms", "lower",
           what="raster forward per image (`clm`)",
           moves=f"{_IPS_ALL} on dense (<=15% effect on sparse); "
           "serve_capacity_rps and serve_mean_ms.* on dense"),
    Metric("gaussians.forward_share", "share", "lower",
           what="forward self time / `clm` batch wall",
           moves="ceiling of a forward speed-up"),
    Metric("gaussians.backward_ms_per_image", "ms", "lower",
           what="raster backward per image (`clm`)",
           moves=f"{_IPS_ALL} on dense; not the serve_* metrics"),
    Metric("gaussians.backward_share", "share", "lower",
           what="backward self time / `clm` batch wall",
           moves="ceiling of a backward speed-up"),
    Metric("gaussians.rendered_per_image", "count", "lower",
           what="mean Gaussians composited per training image",
           moves="forward/backward ms on both"),
    # -- planning -------------------------------------------------------
    Metric("planning.plan_ms_per_batch", "ms", "lower",
           what="`BatchPlanner.plan` self time per `clm` batch",
           moves=f"{_IPS_CLM} on both, bounded by plan_share"),
    Metric("planning.plan_share", "share", "lower",
           what="plan self time / `clm` batch wall",
           moves="ceiling of a planner speed-up"),
    Metric("planning.order_ms_per_batch", "ms", "lower",
           what="planner's own ordering (TSP) time per batch",
           moves="planning.plan_ms_per_batch"),
    Metric("planning.cache_hit_rate", "share", "higher",
           what="training plan-cache hits / plan requests",
           moves="planning.plan_ms_per_batch"),
    Metric("planning.plans_built", "count", "lower",
           what="plans built over the traced `clm` batches",
           moves="planning.plan_ms_per_batch"),
    Metric("planning.loads_per_image", "rows/image", "lower",
           what="planned pinned-store loads per image (`plan.total_loads`)",
           moves="transfer_bytes_per_image.clm, hardware.sim_images_per_s.clm "
           "on sparse"),
    Metric("planning.cached_share", "share", "higher",
           what="total_cached / (total_loads + total_cached), exact",
           moves="transfer_bytes_per_image.clm on both"),
    # -- core -----------------------------------------------------------
    Metric("core.assemble_ms_per_batch", "ms", "lower",
           what="`GpuWorkingSet.assemble` per `clm` batch",
           moves=f"{_IPS_CLM} on both, bounded by core.stores_share"),
    Metric("core.add_grads_ms_per_batch", "ms", "lower",
           what="`GpuWorkingSet.add_grads` per batch", moves="as assemble"),
    Metric("core.retire_ms_per_batch", "ms", "lower",
           what="`GpuWorkingSet.retire` per batch", moves="as assemble"),
    Metric("core.zero_grads_ms_per_batch", "ms", "lower",
           what="both stores' `zero_grads` per batch", moves="as assemble"),
    Metric("core.stores_share", "share", "lower",
           what="(assemble+add_grads+retire+zero_grads) / batch wall",
           moves="ceiling of an offload-path speed-up"),
    Metric("core.loaded_rows_per_image", "rows/image", "lower",
           what="rows the working set actually loaded per image",
           moves="transfer_bytes_per_image.clm"),
    Metric("core.stored_rows_per_image", "rows/image", "lower",
           what="rows offloaded to the pinned gradient buffer per image",
           moves="transfer_bytes_per_image.clm"),
    Metric("core.pool_peak_bytes.naive", "bytes", "lower",
           what="`MemoryPool.peak`, 3 `naive` batches",
           moves="vs gpu_peak_bytes.clm: the memory-barrier ratio"),
    Metric("core.pool_peak_bytes.enhanced", "bytes", "lower",
           what="`MemoryPool.peak`, 3 `enhanced` batches",
           moves="vs gpu_peak_bytes.clm"),
    Metric("core.pool_on_batch_ms", "ms", "lower",
           what="median untraced `clm` batch with the GPU pool enforced, "
           "interleaved with the traced batches",
           moves="vs engines.batch_ms.clm: the cost of pool accounting"),
    Metric("core.checkpoint_save_ms", "ms", "lower",
           what="`sess.checkpoint(path)` wall", moves="none end to end"),
    Metric("core.checkpoint_bytes", "bytes", "lower",
           what="size of that checkpoint file", moves="none end to end"),
    # -- optim ----------------------------------------------------------
    Metric("optim.adam_noncritical_ms_per_batch", "ms", "lower",
           what="packed CPU Adam chunks per `clm` batch",
           moves=f"{_IPS_CLM} on both, bounded by optim.adam_share"),
    Metric("optim.adam_critical_ms_per_batch", "ms", "lower",
           what="packed critical-attribute Adam per batch",
           moves="as noncritical"),
    Metric("optim.adam_rows_per_s", "rows/s", "higher",
           what="rows updated per second of packed-Adam time",
           moves="as noncritical"),
    Metric("optim.adam_share", "share", "lower",
           what="Adam self time / `clm` batch wall",
           moves="ceiling of an optimizer speed-up"),
    # -- runtime --------------------------------------------------------
    Metric("runtime.submit_ms_per_batch.clm_overlap", "ms", "lower",
           what="`OverlapExecutor.submit` time on the training thread",
           moves="images_per_s.clm_overlap vs .clm"),
    Metric("runtime.barrier_wait_ms_per_batch.clm_overlap", "ms", "lower",
           what="`OverlapExecutor.barrier` time per batch",
           moves="down => images_per_s.clm_overlap up; naive/enhanced fixed"),
    Metric("runtime.hidden_ms_per_batch.clm_overlap", "ms", "higher",
           what="`BatchResult.overlap_hidden_s` per batch",
           moves="up => images_per_s.clm_overlap up relative to .clm"),
    Metric("runtime.hidden_ms_per_batch.clm_graph", "ms", "higher",
           what="same, task-graph executor",
           moves="up => images_per_s.clm_graph up relative to .clm"),
    Metric("runtime.graph_run_ms_per_batch.clm_graph", "ms", "lower",
           what="`GraphExecutor.run` wall per batch",
           moves="images_per_s.clm_graph"),
    # -- autotune -------------------------------------------------------
    Metric("autotune.images_per_s", "images/s", "higher",
           what="8 traced batches with `autotune=True, use_task_graph=True`",
           moves="compare with images_per_s.clm_graph"),
    Metric("autotune.choose_ms_per_batch", "ms", "lower",
           what="`AutoTuner.choose` per batch", moves="autotune.images_per_s"),
    Metric("autotune.observe_ms_per_batch", "ms", "lower",
           what="`AutoTuner.observe` per batch", moves="autotune.images_per_s"),
    Metric("autotune.mean_rel_error", "share", "lower",
           what="mean predicted-vs-measured makespan error",
           moves="quality of the tuner's choices"),
    # -- sharding -------------------------------------------------------
    Metric("sharding.batch_ms.k2", "ms", "lower",
           what="traced median `clm_sharded` batch, 2 simulated devices "
           "(host time on shared cores; scaling is not reported)",
           moves="none end to end yet"),
    Metric("sharding.halo_bytes_per_image", "bytes/image", "lower",
           what="modeled PCIe halo bytes per image", moves="none end to end"),
    Metric("sharding.stolen_per_batch", "count", "lower",
           what="microbatches migrated by work stealing per batch",
           moves="sharding.sim_makespan_ms_per_batch"),
    Metric("sharding.sim_makespan_ms_per_batch", "ms", "lower",
           what="simulated 2-device makespan per batch (exact)",
           moves="none end to end"),
    # -- hardware (simulated time is exact, host time is noisy) ---------
    *[
        Metric(f"hardware.sim_images_per_s.{v}", "images/s", "higher",
               what=f"`run_timed('{v}')` simulated throughput, 4 batches "
               "(exact)",
               moves="tracks planning.loads_per_image on sparse")
        for v in ("clm", "naive", "enhanced")
    ],
    Metric("hardware.sim_speedup_vs_naive", "ratio", "higher",
           what="sim clm / sim naive (exact)",
           moves="the paper's Fig. 11 ratio"),
    Metric("hardware.sim_host_ms_per_batch", "ms", "lower",
           what="host wall of the simulator per simulated batch (noisy)",
           moves="autotune.choose_ms_per_batch"),
    # -- serving --------------------------------------------------------
    *[
        Metric(f"serving.p50_ms.{p}", "ms", "lower",
               what=f"median latency, `{p}` phase (raw wall).  Per-layer "
               "because it sits on the cliff between the rings' service-time "
               "modes (spread 0.15-0.3)",
               moves=f"serve_mean_ms.{p}")
        for p in ("lo", "hi")
    ],
    *[
        Metric(f"serving.p95_ms.{p}", "ms", "lower",
               what=f"p95 latency, `{p}` phase (>=10 samples beyond it; raw "
               "wall).  Per-layer because its run-to-run spread (0.2-0.4) "
               "exceeds any usable bound",
               moves=f"rises with serving.queue_ms_p50.{p} before capacity "
               "stops rising")
        for p in ("lo", "hi")
    ],
    *[
        Metric(f"serving.queue_ms_p50.{p}", "ms", "lower",
               what=f"median `queue_s`, `{p}` phase",
               moves=f"serving.p95_ms.{p} rises with it before capacity stops")
        for p in ("lo", "hi")
    ],
    *[
        Metric(f"serving.plan_ms_mean.{p}", "ms", "lower",
               what=f"mean `plan_s`, `{p}` phase",
               moves=f"serve_mean_ms.{p} on sparse")
        for p in ("lo", "hi")
    ],
    *[
        Metric(f"serving.render_ms_mean.{p}", "ms", "lower",
               what=f"mean `render_s`, `{p}` phase",
               moves=f"serve_mean_ms.{p}, serve_capacity_rps on dense")
        for p in ("lo", "hi")
    ],
    Metric("serving.plan_share", "share", "lower",
           what="plan_s / (plan_s + render_s), `lo` phase",
           moves="ceiling of a serving-planner speed-up"),
    *[
        Metric(f"serving.coalesce_rate.{p}", "share", "higher",
               what=f"requests answered without their own render, `{p}`",
               moves="serve_capacity_rps on dense")
        for p in ("sat", "hi")
    ],
    *[
        Metric(f"serving.plan_cache_hit_rate.{p}", "share", "higher",
               what=f"serving plan-cache hit rate, `{p}`",
               moves="serve_capacity_rps, serve_mean_ms.* on sparse")
        for p in ("sat", "lo")
    ],
    *[
        Metric(f"serving.batch_size_mean.{p}", "count", "higher",
               what=f"requests per executed batch, `{p}`",
               moves="serve_capacity_rps on dense")
        for p in ("sat", "hi")
    ],
    Metric("serving.composited_mean", "count", "lower",
           what="mean working set composited per served request (`lo`)",
           moves="serving.render_ms_mean.*"),
    Metric("serving.slo_miss_share.hi", "share", "lower",
           what="requests over `slo_s=0.25` (or not served) at the high rate",
           moves="follows serving.p95_ms.hi"),
    Metric("serving.cull_ms_mean", "ms", "lower",
           what="`CullingGrid.query` share of plan_s per request (traced lo)",
           moves="serve_mean_ms.*, serve_capacity_rps on sparse"),
    Metric("serving.lod_ms_mean", "ms", "lower",
           what="`LodSelector.apply` share of plan_s per request",
           moves="as serving.cull_ms_mean"),
    Metric("serving.planner_ms_mean", "ms", "lower",
           what="`BatchPlanner.plan` share of plan_s per request",
           moves="as serving.cull_ms_mean; no change on dense (cache hits)"),
    Metric("serving.loop_residual_share", "share", "lower",
           what="`serve()` wall not inside `ServingBatcher.execute`",
           moves="serve_capacity_rps"),
]


def declared(trace: bool) -> List[Metric]:
    """The metrics a run prints: per-layer when traced, else end-to-end."""
    return PER_LAYER if trace else END_TO_END


def benchmark_json() -> dict:
    """The exact content of `BENCHMARK.json`."""
    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [m.entry() for m in END_TO_END],
        "per_layer": [m.entry() for m in PER_LAYER],
    }
