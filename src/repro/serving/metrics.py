"""Serving metrics: per-request latency records and the SLO report.

Every request that enters a :class:`repro.serving.session.ServingSession`
ends as exactly one :class:`RequestRecord` — served, shed at admission,
or expired at dispatch — so the report's denominators are airtight: SLO
accounting covers the whole offered load, not just the requests the
server chose to finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: Terminal states of a request.
STATUS_DONE = "done"
STATUS_SHED = "shed"
STATUS_EXPIRED = "expired"
#: Render faults exhausted their retries, or the view's circuit breaker
#: fast-failed the request (see :mod:`repro.serving.resilience`).
STATUS_FAILED = "failed"


@dataclass
class RequestRecord:
    """The full latency breakdown of one request.

    ``queue_s`` is time between arrival and batch dispatch, ``plan_s`` the
    batch's shared cull+plan cost (attributed whole to every member — it
    delays them all), ``render_s`` the request's own render step.  For
    shed/expired requests the timing fields are 0 and ``done_s`` is the
    drop time.
    """

    request_id: int
    view_id: int
    status: str
    arrival_s: float
    slo_s: float
    done_s: float = math.nan
    queue_s: float = 0.0
    plan_s: float = 0.0
    render_s: float = 0.0
    batch_id: int = -1
    lod_level: int = 0
    working_set: int = 0
    num_rendered: int = 0
    #: Failed render attempts retried before this outcome (done or failed).
    retries: int = 0
    #: Served under overload degradation (coarser-than-distance LOD).
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (NaN unless served)."""
        if self.status != STATUS_DONE:
            return math.nan
        return self.done_s - self.arrival_s

    @property
    def slo_violated(self) -> bool:
        """Shed and expired requests count as violations by definition."""
        if self.status != STATUS_DONE:
            return True
        return self.latency_s > self.slo_s


@dataclass
class ServingReport:
    """Aggregate serving metrics over one request stream.

    ``sim_time_s`` is the virtual-clock span from the first arrival to the
    last completion (the horizon throughput is measured over);
    ``wall_time_s`` the real time the serving loop took.
    """

    records: List[RequestRecord]
    planner_stats: Dict[str, float]
    queue_stats: Dict[str, float]
    sim_time_s: float
    wall_time_s: float
    lod_subset_sizes: Dict[int, int] = field(default_factory=dict)
    #: Fault-handling counters from :mod:`repro.serving.resilience`
    #: (injected faults, breaker trips/fast-fails, degraded batches).
    resilience_stats: Dict[str, float] = field(default_factory=dict)

    # -- request populations --------------------------------------------

    @property
    def completed(self) -> List[RequestRecord]:
        return [r for r in self.records if r.status == STATUS_DONE]

    @property
    def shed_count(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_SHED)

    @property
    def expired_count(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_EXPIRED)

    @property
    def failed_count(self) -> int:
        """Requests lost to render faults (retries exhausted or breaker
        fast-fail) — SLO violations like any other non-served request."""
        return sum(1 for r in self.records if r.status == STATUS_FAILED)

    @property
    def total_retries(self) -> int:
        """Failed render attempts absorbed by retry across the run."""
        return sum(r.retries for r in self.records)

    @property
    def breaker_trips(self) -> int:
        return int(self.resilience_stats.get("breaker_trips", 0))

    @property
    def degraded_fraction(self) -> float:
        """Fraction of *served* requests rendered in degraded mode."""
        done = self.completed
        if not done:
            return 0.0
        return sum(r.degraded for r in done) / len(done)

    # -- latency percentiles --------------------------------------------
    def latencies_s(self) -> np.ndarray:
        return np.asarray([r.latency_s for r in self.completed])

    def latency_percentile_ms(self, q: float) -> float:
        """The ``q``-th latency percentile over served requests, in ms."""
        lat = self.latencies_s()
        if lat.size == 0:
            return math.nan
        return float(np.quantile(lat, q / 100.0) * 1e3)

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile_ms(50.0)

    @property
    def p95_ms(self) -> float:
        return self.latency_percentile_ms(95.0)

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile_ms(99.0)

    # -- rates -----------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        """Served requests per simulated second."""
        if self.sim_time_s <= 0.0:
            return 0.0
        return len(self.completed) / self.sim_time_s

    @property
    def slo_violation_rate(self) -> float:
        """Violations (late + shed + expired) over the whole offered load."""
        if not self.records:
            return 0.0
        return sum(r.slo_violated for r in self.records) / len(self.records)

    @property
    def plan_cache_hit_rate(self) -> float:
        return float(self.planner_stats.get("hit_rate", 0.0))

    @property
    def mean_composited(self) -> float:
        """Mean per-request working-set size actually composited."""
        done = self.completed
        if not done:
            return 0.0
        return float(np.mean([r.working_set for r in done]))

    def lod_level_counts(self) -> Dict[int, int]:
        """Served requests per LOD level."""
        counts: Dict[int, int] = {}
        for r in self.completed:
            counts[r.lod_level] = counts.get(r.lod_level, 0) + 1
        return dict(sorted(counts.items()))

    # -- presentation ----------------------------------------------------
    def summary_rows(self) -> List[list]:
        """``[metric, value]`` rows for ``format_table`` (CLI / examples)."""
        rows = [
            ["requests served", float(len(self.completed))],
            ["requests shed", float(self.shed_count)],
            ["requests expired", float(self.expired_count)],
            ["p50 latency ms", self.p50_ms],
            ["p95 latency ms", self.p95_ms],
            ["p99 latency ms", self.p99_ms],
            ["throughput req/s", self.throughput_rps],
            ["SLO violation rate %", 100.0 * self.slo_violation_rate],
            ["plan-cache hit rate %", 100.0 * self.plan_cache_hit_rate],
            ["mean composited Gaussians", self.mean_composited],
        ]
        if self.failed_count or self.total_retries or self.resilience_stats:
            rows.extend(
                [
                    ["requests failed", float(self.failed_count)],
                    ["render retries", float(self.total_retries)],
                    ["breaker trips", float(self.breaker_trips)],
                    ["degraded served %", 100.0 * self.degraded_fraction],
                ]
            )
        return rows
