"""`ServingBatcher` — coalesce in-flight requests into one forward-only
:class:`repro.planning.BatchPlan` and execute it.

The §4.2.3 insight transfers from training microbatches to serving
requests verbatim: nearby cameras share in-frustum Gaussian sets, so (a)
requests for the *same* view collapse into a single render, (b) the
remaining distinct views are ordered by the planner's TSP so consecutive
working sets overlap maximally, and (c) the whole plan is memoized in the
fingerprint-keyed :class:`repro.planning.PlanCache` — a recurring batch
composition (viewers dwelling on a guided tour, a hot viewpoint) skips
culling-set algebra and ordering entirely.

Execution is forward-only: each step renders its working set through one
callable, ``render_rows(camera, rows)``, that the session fixes when it is
built (:class:`~repro.serving.session.ServingSession`) — the binding every
forward-only render goes through (:func:`repro.gaussians.render.bind_forward`,
an engine's ``evaluate`` and ``render_view`` too): blend-state retention
off, no gradient buffers (see :mod:`repro.core.memory_model`).  With the
library's renderer it is the ``view_forward`` kernel op reading the served
model through the rows, into the session's workspace arenas; with a custom
``fn(camera, model_like) -> RenderResult`` it is that function over
``model.gather(rows)``.  Either returns a
:class:`~repro.gaussians.render.ServedImage` (``.image``, the caller's own,
and ``.num_rendered``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.planning.planner import BatchPlanner
from repro.serving.lod import LodSelector
from repro.serving.metrics import STATUS_DONE, STATUS_FAILED, RequestRecord
from repro.serving.requests import RenderRequest
from repro.serving.resilience import (
    CircuitBreaker,
    RenderFaultInjector,
    ResilienceConfig,
)

#: A custom forward render: ``fn(camera, model_like) -> RenderResult``.
ForwardRenderFn = Callable[[Camera, object], object]
#: How a batcher renders a step: ``fn(camera, rows)`` over the working set's
#: rows of the served model, to a ``ServedImage``.
RowsRenderFn = Callable[[Camera, np.ndarray], object]


@dataclass
class BatcherCounters:
    """Cumulative coalescing statistics across a serving run."""

    batches: int = 0
    requests: int = 0
    renders: int = 0  # distinct views actually rendered
    lod_level_renders: Dict[int, int] = field(default_factory=dict)

    @property
    def coalesce_rate(self) -> float:
        """Fraction of requests answered without their own render."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.renders / self.requests


class ServingBatcher:
    """Plan and execute one coalesced serving batch at a time."""

    def __init__(
        self,
        model,
        planner: BatchPlanner,
        render_rows: RowsRenderFn,
        cull_fn: Callable[[Camera], np.ndarray],
        lod: Optional[LodSelector] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[RenderFaultInjector] = None,
    ) -> None:
        self.model = model
        self.planner = planner
        self.render_rows = render_rows
        self.cull_fn = cull_fn
        self.lod = lod
        self.resilience = resilience or ResilienceConfig()
        self.fault_injector = fault_injector
        self.breaker = CircuitBreaker(
            self.resilience.breaker_threshold,
            self.resilience.breaker_cooldown_s,
        )
        self.counters = BatcherCounters()

    # ------------------------------------------------------------------
    def plan_requests(
        self, requests: Sequence[RenderRequest], lod_bump: int = 0
    ):
        """Coalesce ``requests`` by view and plan the distinct views.

        Returns ``(plan, groups, levels)`` where ``groups`` maps view id
        to its request list and ``levels`` maps view id to its LOD level.
        Groups are keyed and planned in sorted view order, so the plan
        fingerprint depends only on batch *membership*, not arrival
        interleaving — identical compositions hit the cache.  A positive
        ``lod_bump`` (overload degradation) coarsens every view by that
        many levels, clamped to the coarsest available.
        """
        groups: Dict[int, List[RenderRequest]] = {}
        for request in sorted(requests, key=lambda r: r.view_id):
            groups.setdefault(request.view_id, []).append(request)
        view_ids = list(groups)
        cameras = [groups[v][0].camera for v in view_ids]
        levels: Dict[int, int] = {}
        sets: List[np.ndarray] = []
        for view_id, camera in zip(view_ids, cameras):
            level = self.lod.level_for(camera) if self.lod else 0
            if lod_bump and self.lod is not None:
                level = min(level + lod_bump, self.lod.num_levels - 1)
            levels[view_id] = level
            in_frustum = self.cull_fn(camera)
            if self.lod is not None:
                in_frustum = self.lod.apply(level, in_frustum)
            sets.append(in_frustum)
        plan = self.planner.plan(
            sets,
            view_ids,
            cameras=cameras,
            num_gaussians=self.model.num_gaussians,
        )
        return plan, groups, levels

    def execute(
        self,
        requests: Sequence[RenderRequest],
        start_s: float,
        batch_id: int,
        lod_bump: int = 0,
    ) -> Tuple[List[RequestRecord], float]:
        """Serve one batch; returns ``(records, completion_clock)``.

        The virtual clock advances by the *measured* plan and render
        seconds; each request completes when its view's render step does,
        so later-ordered steps accumulate more latency — which is why the
        planner's request ordering shows up in the tail percentiles.

        Fault handling per step (see :mod:`repro.serving.resilience`):
        an open circuit breaker fast-fails the view's requests without a
        render; injected transient faults are retried with exponential
        backoff charged to the clock; exhausted retries fail the group
        and feed the breaker.
        """
        t0 = time.perf_counter()
        plan, groups, levels = self.plan_requests(requests, lod_bump)
        plan_s = time.perf_counter() - t0
        clock = start_s + plan_s

        def fail_group(group, level, retries, why_clock):
            for request in group:
                records.append(
                    RequestRecord(
                        request_id=request.request_id,
                        view_id=request.view_id,
                        status=STATUS_FAILED,
                        arrival_s=request.arrival_s,
                        slo_s=request.slo_s,
                        done_s=why_clock,
                        queue_s=start_s - request.arrival_s,
                        plan_s=plan_s,
                        batch_id=batch_id,
                        lod_level=level,
                        retries=retries,
                        degraded=bool(lod_bump),
                    )
                )

        records: List[RequestRecord] = []
        for step in plan.steps:
            group = groups[step.view_id]
            level = levels[step.view_id]
            if not self.breaker.allow(step.view_id, clock):
                fail_group(group, level, 0, clock)
                continue
            attempts = 1 + self.resilience.retry_max
            result = None
            render_s = 0.0
            retries = 0
            for attempt in range(attempts):
                if self.fault_injector is not None and (
                    self.fault_injector.attempt_fails(step.view_id, attempt)
                ):
                    # Failed attempt: charge its backoff to the clock and
                    # (maybe) go around again.
                    clock += self.resilience.retry_backoff_s * 2**attempt
                    retries = attempt + 1
                    continue
                t1 = time.perf_counter()
                result = self.render_rows(group[0].camera, step.working_set)
                render_s = time.perf_counter() - t1
                clock += render_s
                retries = attempt
                break
            if result is None:  # retries exhausted
                self.breaker.record_failure(step.view_id, clock)
                fail_group(group, level, retries, clock)
                continue
            self.breaker.record_success(step.view_id)
            self.counters.renders += 1
            self.counters.lod_level_renders[level] = (
                self.counters.lod_level_renders.get(level, 0) + 1
            )
            for request in group:
                records.append(
                    RequestRecord(
                        request_id=request.request_id,
                        view_id=request.view_id,
                        status=STATUS_DONE,
                        arrival_s=request.arrival_s,
                        slo_s=request.slo_s,
                        done_s=clock,
                        queue_s=start_s - request.arrival_s,
                        plan_s=plan_s,
                        render_s=render_s,
                        batch_id=batch_id,
                        lod_level=level,
                        working_set=int(step.working_set.size),
                        num_rendered=result.num_rendered,
                        retries=retries,
                        degraded=bool(lod_bump),
                    )
                )
        self.counters.batches += 1
        self.counters.requests += len(requests)
        return records, clock

    # ------------------------------------------------------------------
    def render_one(self, request: RenderRequest):
        """Single-request render through the identical cull/LOD/plan path
        (the parity-test entry point; also handy for warmup)."""
        plan, groups, _levels = self.plan_requests([request])
        step = plan.steps[0]
        return self.render_rows(groups[step.view_id][0].camera, step.working_set)
