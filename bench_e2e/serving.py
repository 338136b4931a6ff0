"""The serving part of a workload, untraced.

Three phases, each on its own warmed-up `ServingSession`, with counters
read as deltas:

- `sat` — every arrival at t~0, `queue_capacity = n`: nothing sheds, and
  served / virtual-clock span is the service capacity;
- `lo`, `hi` — open loop at two fixed rates on the session's virtual
  clock.  Latency counts from the *scheduled* arrival, so a stall is
  charged to every request it delays.

Independent users make this an open loop; the generator cannot run late
because arrivals are timestamps on the virtual clock, not sleeps.

Each phase is served as short *segments* (independent seeded streams of
`Sizes.segment_requests`, each starting from an empty queue), interleaved
with the other phases' segments so the box's seconds-long interference
bursts land on a minority of every phase.  A reference-kernel sample
brackets every segment; end-to-end latencies and capacities are reported
in calibrated time (`calibrate`), pooled over a phase's segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from bench_e2e.calibrate import Reference, slowdown
from bench_e2e.catalog import SERVE_PHASES
from bench_e2e.stats import percentile, tail_percentile
from bench_e2e.workloads import ServeInputs, ServeSpec, Sizes, request_stream


def make_serving_session(inputs: ServeInputs, queue_capacity: int, render_fn=None):
    """The workload's `ServingSession`: LOD on, `max_batch=4`, plan cache
    of 64.  The queue holds a whole segment, so no request is shed."""
    from repro.serving import ServingConfig, ServingSession

    config = ServingConfig(
        max_batch=4, plan_cache_size=64, queue_capacity=queue_capacity
    )
    return ServingSession(inputs.model, config, render_fn=render_fn)


@dataclass
class Segment:
    offered: int
    report: object  # repro.serving.ServingReport
    #: Planner / batcher counter deltas over this stream.
    plan_requests: int
    plan_hits: int
    batches: int
    renders: int
    #: Machine slowdown while the segment was served.
    slowdown: float = 1.0

    @property
    def done(self) -> list:
        return self.report.completed

    def latencies_ms(self) -> np.ndarray:
        return self.report.latencies_s() * 1e3


@dataclass
class PhaseResult:
    name: str
    segments: List[Segment] = field(default_factory=list)

    def _sum(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.segments)

    @property
    def offered(self) -> int:
        return self._sum("offered")

    @property
    def done(self) -> list:
        return [r for s in self.segments for r in s.done]

    @property
    def not_served(self) -> int:
        return self.offered - len(self.done)

    @property
    def capacity_rps(self) -> float:
        """Served requests per calibrated second of virtual-clock span,
        over all segments (segments differ in cost by which camera ring
        they visit, so their spans are summed, not their rates averaged)."""
        span_s = sum(s.report.sim_time_s / s.slowdown for s in self.segments)
        return len(self.done) / span_s

    @property
    def tail_q(self) -> float:
        return tail_percentile(len(self.done))

    def latencies_ms(self, calibrated: bool) -> np.ndarray:
        return np.concatenate(
            [
                s.latencies_ms() / (s.slowdown if calibrated else 1.0)
                for s in self.segments
            ]
        )

    @property
    def plan_cache_hit_rate(self) -> float:
        return self._sum("plan_hits") / max(1, self._sum("plan_requests"))

    @property
    def coalesce_rate(self) -> float:
        return 1.0 - self._sum("renders") / max(1, len(self.done))

    @property
    def batch_size_mean(self) -> float:
        return len(self.done) / max(1, self._sum("batches"))


def serve_segment(sess, stream: list) -> Segment:
    plan0 = sess.planner.stats()
    batches0 = sess.batcher.counters.batches
    renders0 = sess.batcher.counters.renders
    report = sess.serve(stream)
    plan1 = sess.planner.stats()
    return Segment(
        offered=len(stream),
        report=report,
        plan_requests=int(plan1["requests"] - plan0["requests"]),
        plan_hits=int(plan1["cache_hits"] - plan0["cache_hits"]),
        batches=sess.batcher.counters.batches - batches0,
        renders=sess.batcher.counters.renders - renders0,
    )


def run_serving(
    spec: ServeSpec,
    inputs: ServeInputs,
    sizes: Sizes,
    seed: int,
    reference: Reference,
) -> Dict[str, PhaseResult]:
    offered = {
        "sat": sizes.sat_requests,
        "lo": sizes.phase_requests,
        "hi": sizes.phase_requests,
    }
    per_segment = sizes.segment_requests
    sessions = {}
    for phase in SERVE_PHASES:
        sess = make_serving_session(
            inputs, queue_capacity=max(per_segment, sizes.warmup_requests)
        )
        sess.serve(
            request_stream(
                spec, inputs.cameras, f"warmup.{phase}",
                sizes.warmup_requests, seed,
            )
        )
        sessions[phase] = sess
    # Every phase's segments spread evenly over the whole serving part.
    parts = {phase: offered[phase] // per_segment for phase in SERVE_PHASES}
    order = sorted(
        (index / parts[phase], phase, index)
        for phase in SERVE_PHASES
        for index in range(parts[phase])
    )
    phases = {phase: PhaseResult(phase) for phase in SERVE_PHASES}
    before = reference.sample()
    for _position, phase, index in order:
        stream = request_stream(
            spec, inputs.cameras, phase, per_segment, seed,
            part=(index, parts[phase]),
        )
        segment = serve_segment(sessions[phase], stream)
        after = reference.sample()
        segment.slowdown = slowdown(before, after)
        before = after
        phases[phase].segments.append(segment)
    return phases


def end_to_end_metrics(phases: Dict[str, PhaseResult]) -> Dict[str, float]:
    out = {"serve_capacity_rps": phases["sat"].capacity_rps}
    for name in ("lo", "hi"):
        out[f"serve_mean_ms.{name}"] = float(
            np.mean(phases[name].latencies_ms(calibrated=True))
        )
    return out


def _mean_ms(records: List, attr: str) -> float:
    return 1e3 * float(np.mean([getattr(r, attr) for r in records]))


def layer_metrics(phases: Dict[str, PhaseResult]) -> Dict[str, float]:
    """The `serving.*` metrics read from untraced `RequestRecord`s."""
    out: Dict[str, float] = {}
    for name in ("lo", "hi"):
        done = phases[name].done
        latencies = phases[name].latencies_ms(calibrated=False)
        out[f"serving.p50_ms.{name}"] = percentile(latencies, 50.0)
        # Named p95 because 200+ requests per phase leave >= 10 samples
        # beyond it; a smoke run falls back to what its sample supports.
        out[f"serving.p95_ms.{name}"] = percentile(
            latencies, min(95.0, phases[name].tail_q)
        )
        out[f"serving.queue_ms_p50.{name}"] = percentile(
            [r.queue_s * 1e3 for r in done], 50.0
        )
        out[f"serving.plan_ms_mean.{name}"] = _mean_ms(done, "plan_s")
        out[f"serving.render_ms_mean.{name}"] = _mean_ms(done, "render_s")
    plan = out["serving.plan_ms_mean.lo"]
    out["serving.plan_share"] = plan / (plan + out["serving.render_ms_mean.lo"])
    for name in ("sat", "hi"):
        out[f"serving.coalesce_rate.{name}"] = phases[name].coalesce_rate
        out[f"serving.batch_size_mean.{name}"] = phases[name].batch_size_mean
    for name in ("sat", "lo"):
        out[f"serving.plan_cache_hit_rate.{name}"] = phases[
            name
        ].plan_cache_hit_rate
    out["serving.composited_mean"] = float(
        np.mean([r.working_set for r in phases["lo"].done])
    )
    hi = phases["hi"]
    late = sum(r.slo_violated for r in hi.done)
    out["serving.slo_miss_share.hi"] = (late + hi.not_served) / hi.offered
    return out
