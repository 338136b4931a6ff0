"""The traced pass: per-layer metrics from spans and public counters.

Runs separately from the end-to-end measurement (`--trace 1`).  Every
traced batch is one root span opened by the driver around the public
`train_batch` call; the class-level proxies of `spans.installed` are in
place only for the duration of that call, so the untraced `clm` batches
interleaved with them (for `engines.trace_overhead_share`) run the
program exactly as shipped.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from bench_e2e import spans as sp
from bench_e2e.calibrate import Reference
from bench_e2e.checks import Check
from bench_e2e.serving import make_serving_session
from bench_e2e.training import close_session, make_session, pool_peak_bytes
from bench_e2e.workloads import (
    ServeInputs,
    ServeSpec,
    Sizes,
    TrainInputs,
    TrainSpec,
    batch_schedule,
    request_stream,
    sub_seed,
)

#: Tracer spans must agree with the program's own `PerfCounters` this
#: closely (relative), or within `DRIFT_FLOOR_S` per recorded call: the
#: program's timers bracket a little more code than the proxies do (the
#: executor's bookkeeping, `_apply_noncritical_adam`), a fixed cost per
#: call that a relative bar cannot absorb on sub-millisecond stages.
DRIFT_TOLERANCE = 0.05
DRIFT_FLOOR_S = 1.5e-4

TRACED_VARIANTS = ("clm", "clm_overlap", "clm_graph", "naive", "enhanced")


@dataclass
class PerfBefore:
    forward_s: float
    backward_s: float
    adam_s: float
    hidden_s: float
    loaded: int
    stored: int
    cached: int
    planner: Dict[str, float]

    @classmethod
    def of(cls, sess) -> "PerfBefore":
        p = sess.perf
        return cls(
            p.forward_s, p.backward_s, p.adam_s, p.overlap_hidden_s,
            p.loaded_gaussians, p.stored_gaussians, p.cached_gaussians,
            dict(sess.planner.stats()),
        )


@dataclass
class TracedVariant:
    name: str
    session: object
    before: PerfBefore = None
    roots: List[sp.Span] = field(default_factory=list)
    items: set = field(default_factory=set)
    losses: List[float] = field(default_factory=list)

    def walls(self) -> List[float]:
        return [r.duration for r in self.roots]

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.walls())


class TrainingTracer:
    """Drives traced sessions and turns their spans into metrics."""

    def __init__(self, recorder: sp.Recorder, spec: TrainSpec, inputs: TrainInputs):
        self.recorder = recorder
        self.spec = spec
        self.inputs = inputs
        self.renderers = sp.traced_renderers(recorder)
        self._next_item = 0

    def open(self, variant: str) -> TracedVariant:
        sess = make_session(
            variant, self.spec, self.inputs, renderers=self.renderers
        )
        for attr, label in (
            ("adam_noncritical", "noncritical"),
            ("adam_critical", "critical"),
        ):
            optimizer = getattr(sess.engine, attr, None)
            if optimizer is not None:
                self.recorder.aliases[id(optimizer)] = label
        return TracedVariant(variant, sess)

    def traced_batch(self, tv: TracedVariant, view_ids: List[int]) -> None:
        if tv.before is None:
            tv.before = PerfBefore.of(tv.session)
        recorder = self.recorder
        recorder.item = self._next_item
        tv.items.add(self._next_item)
        self._next_item += 1
        with sp.installed(recorder):
            with recorder.span(f"engines.batch.{tv.name}") as root:
                result = tv.session.train_batch(view_ids)
        recorder.item = -1
        root.rows = len(view_ids)
        tv.roots.append(root)
        tv.losses.append(float(result.loss))

    def spans_of(self, tv: TracedVariant) -> List[sp.Span]:
        """Every non-root span of the variant's batches, worker threads
        included."""
        return [
            s for s in self.recorder.spans
            if s.item in tv.items and not s.name.startswith("engines.batch.")
        ]


def _per(total_s: float, count: int) -> float:
    return 1e3 * total_s / max(1, count)


def clm_stage_metrics(
    tracer: TrainingTracer, tv: TracedVariant, untraced_walls: List[float]
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """The stage table of the default variant, plus its three largest
    unattributed gaps as `(name, share of batch wall)`."""
    spans = tracer.spans_of(tv)
    selfs = sp.self_time_by_name(spans)
    totals = sp.total_by_name(spans)
    rows = sp.rows_by_name(spans)
    batches = len(tv.roots)
    images = batches * tracer.spec.batch_size
    wall = sum(tv.walls())
    perf = tv.session.perf
    before = tv.before
    planner = tv.session.planner.stats()

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0)

    store_names = (
        "core.assemble", "core.add_grads", "core.retire", "core.zero_grads"
    )
    adam_names = ("optim.adam_noncritical", "optim.adam_critical")
    adam_total = sum(totals.get(n, 0.0) for n in adam_names)
    loaded = perf.loaded_gaussians - before.loaded
    cached = perf.cached_gaussians - before.cached
    plan_requests = planner["requests"] - before.planner["requests"]

    m: Dict[str, float] = {
        "engines.batch_ms.clm": tv.median_ms(),
        "engines.residual_share": sum(sp.self_time(r) for r in tv.roots) / wall,
        "engines.trace_overhead_share": (
            statistics.median(tv.walls()) / statistics.median(untraced_walls)
            - 1.0
        ),
        "gaussians.cull_ms_per_batch": _per(self_s("gaussians.cull"), batches),
        "gaussians.cull_share": self_s("gaussians.cull") / wall,
        "gaussians.cull_rows_per_s": rows.get("gaussians.cull", 0.0)
        / max(totals.get("gaussians.cull", 0.0), 1e-12),
        "gaussians.forward_ms_per_image": _per(self_s("gaussians.forward"), images),
        "gaussians.forward_share": self_s("gaussians.forward") / wall,
        "gaussians.backward_ms_per_image": _per(self_s("gaussians.backward"), images),
        "gaussians.backward_share": self_s("gaussians.backward") / wall,
        "gaussians.rendered_per_image": rows.get("gaussians.forward", 0.0) / images,
        "planning.plan_ms_per_batch": _per(self_s("planning.plan"), batches),
        "planning.plan_share": self_s("planning.plan") / wall,
        "planning.order_ms_per_batch": _per(
            planner["order_time_s"] - before.planner["order_time_s"], batches
        ),
        "planning.cache_hit_rate": (
            planner["cache_hits"] - before.planner["cache_hits"]
        ) / max(1.0, plan_requests),
        "planning.plans_built": planner["plans_built"]
        - before.planner["plans_built"],
        "planning.loads_per_image": rows.get("planning.plan", 0.0) / images,
        "planning.cached_share": cached / max(1, loaded + cached),
        "core.assemble_ms_per_batch": _per(self_s("core.assemble"), batches),
        "core.add_grads_ms_per_batch": _per(self_s("core.add_grads"), batches),
        "core.retire_ms_per_batch": _per(self_s("core.retire"), batches),
        "core.zero_grads_ms_per_batch": _per(self_s("core.zero_grads"), batches),
        "core.stores_share": sum(self_s(n) for n in store_names) / wall,
        "core.loaded_rows_per_image": loaded / images,
        "core.stored_rows_per_image": (perf.stored_gaussians - before.stored)
        / images,
        "optim.adam_noncritical_ms_per_batch": _per(
            self_s("optim.adam_noncritical"), batches
        ),
        "optim.adam_critical_ms_per_batch": _per(
            self_s("optim.adam_critical"), batches
        ),
        "optim.adam_rows_per_s": sum(rows.get(n, 0.0) for n in adam_names)
        / max(adam_total, 1e-12),
        "optim.adam_share": sum(self_s(n) for n in adam_names) / wall,
    }
    gaps: Dict[str, float] = {}
    for root in tv.roots:
        for name, seconds in sp.named_gaps(root).items():
            gaps[name] = gaps.get(name, 0.0) + seconds
    top = sorted(gaps.items(), key=lambda kv: kv[1], reverse=True)[:3]
    return m, [(name, seconds / wall) for name, seconds in top]


def drift_checks(tracer: TrainingTracer, tv: TracedVariant) -> List[Check]:
    """Summed tracer spans vs the program's own `PerfCounters`."""
    spans = tracer.spans_of(tv)
    perf = tv.session.perf
    stages = {
        "forward": ("gaussians.forward", perf.forward_s - tv.before.forward_s),
        "backward": ("gaussians.backward", perf.backward_s - tv.before.backward_s),
        "adam": ("optim.adam_", perf.adam_s - tv.before.adam_s),
    }
    out = []
    for stage, (prefix, counted) in stages.items():
        calls = [s for s in spans if s.name.startswith(prefix)]
        traced = sum(s.duration for s in calls)
        drift = abs(traced - counted)
        ok = drift <= max(DRIFT_TOLERANCE * counted, DRIFT_FLOOR_S * len(calls))
        out.append(
            Check(
                f"trace.{tv.name}.{stage}_matches_perf_counters",
                ok,
                f"spans {traced * 1e3:.2f} ms vs counters {counted * 1e3:.2f} ms",
                variant=tv.name,
            )
        )
    return out


@dataclass
class TrainingTrace:
    metrics: Dict[str, float]
    checks: List[Check]
    top_gaps: List[Tuple[str, float]]
    attempted: int
    failed: int


def trace_training(
    spec: TrainSpec,
    inputs: TrainInputs,
    sizes: Sizes,
    seed: int,
    recorder: sp.Recorder,
    reference: Reference,
    scratch_dir: str,
) -> TrainingTrace:
    tracer = TrainingTracer(recorder, spec, inputs)
    warm, count = sizes.warmup_batches, sizes.traced_batches
    schedule = batch_schedule(spec, seed, warm + max(count, sizes.autotune_batches))
    # Two untraced `clm` sessions ride along batch by batch: the program
    # as shipped (for the tracing overhead) and with the GPU pool enforced
    # (for the cost of pool accounting).
    plain = make_session("clm", spec, inputs)
    pooled = make_session("clm", spec, inputs, pool=True)
    variants = {v: tracer.open(v) for v in TRACED_VARIANTS}
    sessions = [plain, pooled] + [tv.session for tv in variants.values()]
    metrics: Dict[str, float] = {}
    checks: List[Check] = []
    try:
        for k in range(warm):
            for sess in sessions:
                sess.train_batch(schedule[k])
        untraced_walls: List[float] = []
        pooled_walls: List[float] = []
        for k in range(warm, warm + count):
            reference.sample()
            for sess, walls in ((plain, untraced_walls), (pooled, pooled_walls)):
                start = time.perf_counter()
                sess.train_batch(schedule[k])
                walls.append(time.perf_counter() - start)
            for tv in variants.values():
                tracer.traced_batch(tv, schedule[k])

        clm = variants["clm"]
        stage, top_gaps = clm_stage_metrics(tracer, clm, untraced_walls)
        metrics.update(stage)
        metrics["core.pool_on_batch_ms"] = 1e3 * statistics.median(pooled_walls)
        for name in ("clm_graph", "naive", "enhanced"):
            metrics[f"engines.batch_ms.{name}"] = variants[name].median_ms()
        for tv in variants.values():
            checks.extend(drift_checks(tracer, tv))
            checks.append(
                Check(
                    f"trace.{tv.name}.losses_finite",
                    bool(np.all(np.isfinite(tv.losses))),
                    variant=tv.name,
                )
            )
        metrics.update(_runtime_metrics(tracer, variants, count))
        metrics.update(_checkpoint_metrics(clm.session, scratch_dir, spec.name))
    finally:
        for sess in sessions:
            close_session(sess)

    metrics.update(_trace_autotune(tracer, schedule[warm:], sizes.autotune_batches))
    metrics.update(_trace_sharding(tracer, schedule, warm, sizes.sharded_batches))
    for name in ("naive", "enhanced"):
        metrics[f"core.pool_peak_bytes.{name}"] = pool_peak_bytes(
            name, spec, inputs, schedule[: sizes.pool_batches]
        )
    metrics.update(_simulate_hardware(spec, inputs, sizes.sim_batches, seed))

    attempted = (
        count * len(variants) + sizes.autotune_batches + sizes.sharded_batches
    )
    failed = sum(
        len(tv.roots) for tv in variants.values()
        if any(not c.ok and c.variant == tv.name for c in checks)
    )
    return TrainingTrace(metrics, checks, top_gaps, attempted, failed)


def _runtime_metrics(
    tracer: TrainingTracer, variants: Dict[str, TracedVariant], count: int
) -> Dict[str, float]:
    overlap = sp.total_by_name(tracer.spans_of(variants["clm_overlap"]))
    graph = sp.total_by_name(tracer.spans_of(variants["clm_graph"]))
    out = {
        "runtime.submit_ms_per_batch.clm_overlap": _per(
            overlap.get("runtime.submit", 0.0), count
        ),
        "runtime.barrier_wait_ms_per_batch.clm_overlap": _per(
            overlap.get("runtime.barrier", 0.0), count
        ),
        "runtime.graph_run_ms_per_batch.clm_graph": _per(
            graph.get("runtime.graph_run", 0.0), count
        ),
    }
    for name in ("clm_overlap", "clm_graph"):
        tv = variants[name]
        out[f"runtime.hidden_ms_per_batch.{name}"] = _per(
            tv.session.perf.overlap_hidden_s - tv.before.hidden_s, count
        )
    return out


def _checkpoint_metrics(sess, scratch_dir: str, stem: str) -> Dict[str, float]:
    os.makedirs(scratch_dir, exist_ok=True)
    path = os.path.join(scratch_dir, f"{stem}-checkpoint.npz")
    start = time.perf_counter()
    sess.checkpoint(path)
    save_s = time.perf_counter() - start
    size = float(os.path.getsize(path))
    os.remove(path)
    return {
        "core.checkpoint_save_ms": 1e3 * save_s,
        "core.checkpoint_bytes": size,
    }


def _trace_autotune(
    tracer: TrainingTracer, batches: List[List[int]], count: int
) -> Dict[str, float]:
    """Traced from its first batch: exploration is part of the cost."""
    tuned = tracer.open("autotune")
    try:
        for view_ids in batches[:count]:
            tracer.traced_batch(tuned, view_ids)
        totals = sp.total_by_name(tracer.spans_of(tuned))
        return {
            "autotune.images_per_s": tracer.spec.batch_size
            / statistics.median(tuned.walls()),
            "autotune.choose_ms_per_batch": _per(
                totals.get("autotune.choose", 0.0), count
            ),
            "autotune.observe_ms_per_batch": _per(
                totals.get("autotune.observe", 0.0), count
            ),
            "autotune.mean_rel_error": float(
                tuned.session.perf.autotune_mean_rel_error
            ),
        }
    finally:
        close_session(tuned.session)


def _trace_sharding(
    tracer: TrainingTracer, schedule: List[List[int]], warm: int, count: int
) -> Dict[str, float]:
    """2 simulated devices; host time on shared cores, so no scaling."""
    sharded = tracer.open("clm_sharded")
    try:
        sharded.session.train_batch(schedule[0])
        for view_ids in schedule[warm : warm + count]:
            tracer.traced_batch(sharded, view_ids)
        perf = sharded.session.perf
        return {
            "sharding.batch_ms.k2": sharded.median_ms(),
            "sharding.halo_bytes_per_image": perf.halo_bytes / perf.images,
            "sharding.stolen_per_batch": perf.stolen_microbatches / perf.batches,
            "sharding.sim_makespan_ms_per_batch": _per(
                perf.sim_makespan_s, perf.batches
            ),
        }
    finally:
        close_session(sharded.session)


def _simulate_hardware(
    spec: TrainSpec, inputs: TrainInputs, sim_batches: int, seed: int
) -> Dict[str, float]:
    """`scenes.*` and `hardware.*`: the discrete-event simulator on the
    same scene's index sets (simulated time is exact, host time noisy)."""
    from repro.core import CullingIndex, TimingConfig
    from repro.core.timed import run_timed

    systems = ("clm", "naive", "enhanced")
    index = CullingIndex.build(inputs.sim_scene.model, inputs.sim_scene.cameras)
    timing = TimingConfig(
        num_batches=sim_batches,
        batch_size=spec.batch_size,
        seed=sub_seed(seed, spec.name + ".sim"),
    )
    start = time.perf_counter()
    sim = {s: run_timed(s, inputs.sim_scene, index, timing) for s in systems}
    host_s = time.perf_counter() - start
    out = {
        "scenes.num_gaussians": float(inputs.num_gaussians),
        "scenes.frustum_share_mean": float(np.mean(index.sparsities())),
        "hardware.sim_speedup_vs_naive": sim["clm"].images_per_second
        / sim["naive"].images_per_second,
        "hardware.sim_host_ms_per_batch": _per(host_s, len(systems) * sim_batches),
    }
    for system, result in sim.items():
        out[f"hardware.sim_images_per_s.{system}"] = result.images_per_second
    return out


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
def trace_serving(
    spec: ServeSpec,
    inputs: ServeInputs,
    sizes: Sizes,
    seed: int,
    recorder: sp.Recorder,
) -> Dict[str, float]:
    """The traced `lo` pass: the split of `plan_s` into grid cull, LOD
    and planner, each charged to every request of its batch (as `plan_s`
    itself is), and the share of `serve()` outside `execute`."""
    from repro.gaussians.rasterizer import RasterSettings
    from repro.gaussians.render import render
    from repro.serving import forward_only_settings

    settings = forward_only_settings(RasterSettings())
    render_fn = recorder.wrap(
        "gaussians.forward",
        lambda camera, model_like: render(camera, model_like, settings),
    )
    count = sizes.traced_requests
    # The session binds `grid.query` at construction, so the proxy has to
    # be in place then; it stays inert while the recorder is disabled.
    with sp.installed(recorder):
        sess = make_serving_session(
            inputs, queue_capacity=max(count, sizes.warmup_requests),
            render_fn=render_fn,
        )
    sess.serve(
        request_stream(
            spec, inputs.cameras, "warmup.traced", sizes.warmup_requests, seed
        )
    )
    stream = request_stream(spec, inputs.cameras, "traced", count, seed)
    with sp.installed(recorder):
        with recorder.span("serving.serve", rows=count) as root:
            sess.serve(stream)

    split = {"serving.cull": 0.0, "serving.lod": 0.0, "planning.plan": 0.0}
    served = 0.0
    for execute in root.children:
        if execute.name != "serving.execute":
            continue
        served += execute.rows
        inside = sp.self_time_by_name(sp.descendants(execute))
        for name in split:
            split[name] += inside.get(name, 0.0) * execute.rows
    served = max(served, 1.0)
    return {
        "serving.cull_ms_mean": 1e3 * split["serving.cull"] / served,
        "serving.lod_ms_mean": 1e3 * split["serving.lod"] / served,
        "serving.planner_ms_mean": 1e3 * split["planning.plan"] / served,
        "serving.loop_residual_share": sp.self_time(root) / root.duration,
    }
