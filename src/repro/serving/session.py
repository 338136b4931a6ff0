"""`ServingSession` — the render-serving facade (ROADMAP item 3).

One session owns the served model, a grid-accelerated culler, an optional
:class:`~repro.serving.lod.LodSelector`, a :class:`repro.planning.BatchPlanner`
with its fingerprint-keyed plan cache, the admission-controlled
:class:`~repro.serving.queueing.RequestQueue`, and the
:class:`~repro.serving.batcher.ServingBatcher`.  ``serve(requests)`` runs
a whole arrival stream through the loop and returns a
:class:`~repro.serving.metrics.ServingReport`::

    from repro import serving

    sess = serving.ServingSession.from_engine(engine)
    stream = serving.trajectory_stream(cameras, 200, rate_rps=400, seed=0)
    report = sess.serve(stream)
    print(report.p99_ms, report.plan_cache_hit_rate)

One render path: the batcher renders every step through one
``render_rows(camera, rows)`` fixed when the session is built.  With the
library's renderer (a standalone session, or :meth:`ServingSession.from_engine`
over an engine that renders with it) that is the ``view_forward`` kernel op
over the session's :class:`~repro.kernels.workspace.Workspace`: the served
model is read through the working set's rows — no gathered copy — into
grow-only arenas, valid until the next render, and the image handed back is
a copy (a :class:`~repro.serving.batcher.ServedImage`).  A custom
``render_fn(camera, model_like)`` is wrapped once as ``render_fn(camera,
model.gather(rows))``.

Time model: arrivals live on a *virtual* clock (the stream's seeded
arrival process); service advances that clock by the **measured** wall
seconds of each plan/render call.  Request latency is therefore real
compute time plus queueing delay, deterministic in structure (batch
compositions, cache hits, LOD levels) with measured durations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import List, Optional, Sequence

import numpy as np

from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render
from repro.gaussians.spatial import CullingGrid
from repro.kernels import compile_with_fallback, resolve_backend
from repro.kernels.workspace import Workspace
from repro.planning.planner import BatchPlanner
from repro.serving.batcher import (
    ForwardRenderFn,
    RowsRenderFn,
    ServedImage,
    ServingBatcher,
)
from repro.serving.lod import LodConfig, LodSelector
from repro.serving.metrics import (
    STATUS_EXPIRED,
    STATUS_SHED,
    RequestRecord,
    ServingReport,
)
from repro.serving.queueing import RequestQueue
from repro.serving.requests import RenderRequest
from repro.serving.resilience import (
    DegradationController,
    RenderFaultInjector,
    ResilienceConfig,
)


@dataclass
class ServingConfig:
    """Knobs of the serving loop.

    ``ordering`` is the request-batch ordering strategy (Table 4 applied
    to requests; ``tsp`` maximizes consecutive working-set overlap);
    ``plan_cache_size`` bounds the serving plan cache — serving hammers it
    far harder than training (every batch is forward-only and recurring),
    so the default is generous compared to the trainer's 8.  ``lod=None``
    disables level-of-detail culling; ``drop_expired`` drops requests
    whose deadline already passed at dispatch time.  ``resilience``
    configures retry/breaker/degraded-mode fault handling (see
    :mod:`repro.serving.resilience`); ``fault_injector`` plugs in a
    seeded transient-render-fault source for chaos runs.
    """

    max_batch: int = 4
    queue_capacity: int = 32
    ordering: str = "tsp"
    plan_cache_size: int = 64
    drop_expired: bool = False
    lod: Optional[LodConfig] = LodConfig()
    seed: int = 0
    resilience: Optional[ResilienceConfig] = None
    fault_injector: Optional[RenderFaultInjector] = None


def forward_only_settings(settings: RasterSettings) -> RasterSettings:
    """Serving renders never run a backward pass, so the blend-state cache
    is forced off — no retained blending state, no gradient buffers (the
    :mod:`repro.core.memory_model` serving note)."""
    if settings.cache_blend_state:
        settings = dc_replace(settings, cache_blend_state=False)
    return settings


class ServingSession:
    """Serve concurrent render-request streams against one static model."""

    def __init__(
        self,
        model: GaussianModel,
        config: Optional[ServingConfig] = None,
        *,
        render_fn: Optional[ForwardRenderFn] = None,
        settings: Optional[RasterSettings] = None,
        grid_cells_per_axis: int = 16,
    ) -> None:
        self.model = model
        self.config = config or ServingConfig()
        #: The arenas every served render runs in (the library renderer's).
        self.workspace = Workspace()
        if render_fn is None:
            # The library renderer with forward-only settings, reading the
            # served model through the rows.
            render_rows = self._bind_rows(forward_only_settings(settings or RasterSettings()))
        else:

            def render_rows(camera, rows):
                return render_fn(camera, model.gather(rows))

        self.grid = CullingGrid(
            model.positions,
            model.log_scales,
            model.quaternions,
            target_cells_per_axis=grid_cells_per_axis,
            kernel_backend=settings.kernel_backend if settings else None,
        )
        self.lod = (
            LodSelector(model.positions, model.log_scales, self.config.lod)
            if self.config.lod is not None
            else None
        )
        self.planner = BatchPlanner(
            ordering=self.config.ordering,
            enable_cache=True,
            cache_size=self.config.plan_cache_size,
            seed=self.config.seed,
        )
        self.batcher = ServingBatcher(
            model,
            self.planner,
            render_rows,
            cull_fn=self.grid.query,
            lod=self.lod,
            resilience=self.config.resilience,
            fault_injector=self.config.fault_injector,
        )

    def _bind_rows(self, settings: RasterSettings) -> RowsRenderFn:
        """``render_rows`` over the ``view_forward`` op, resolved once for
        the served model's layout on ``settings``' kernel backend."""
        op, _ = compile_with_fallback(resolve_backend(settings.kernel_backend), "view_forward")
        model, workspace = self.model, self.workspace

        def render_rows(camera, rows):
            return ServedImage(*op(camera, model, settings, rows, workspace))

        return render_rows

    @classmethod
    def from_engine(
        cls, engine, config: Optional[ServingConfig] = None
    ) -> "ServingSession":
        """Serve an engine's model through its own forward path.

        The model is snapshotted once (serving is read-only; training may
        resume afterwards) and rendered with the engine's forward-only
        settings (:attr:`~repro.engines.base.EngineBase.serving_raster_settings`),
        so serving and training share one renderer resolution and one
        forward-only settings rule — and one frustum arbiter: the grid
        culls on the kernel backend those settings render on.  An engine
        that renders with the library's ``render`` is served by the bound
        op, as a standalone session is; one with a custom renderer through
        :meth:`~repro.engines.base.EngineBase.render_forward` over the
        gathered working set.
        """
        own = getattr(engine, "_render", None) is render
        return cls(
            engine.snapshot_model(), config,
            render_fn=None if own else engine.render_forward,
            settings=engine.serving_raster_settings,
        )

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[RenderRequest]) -> ServingReport:
        """Run one arrival stream to completion and report."""
        wall_start = time.perf_counter()
        cfg = self.config
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        queue = RequestQueue(cfg.queue_capacity)
        records: List[RequestRecord] = []
        clock = pending[0].arrival_s if pending else 0.0
        first_arrival = clock
        i = 0
        batch_id = 0
        controller = DegradationController(self.batcher.resilience)
        while i < len(pending) or len(queue):
            if len(queue) == 0:
                # Idle server: jump to the next arrival.
                clock = max(clock, pending[i].arrival_s)
            while i < len(pending) and pending[i].arrival_s <= clock:
                request = pending[i]
                if not queue.offer(request):
                    records.append(
                        RequestRecord(
                            request_id=request.request_id,
                            view_id=request.view_id,
                            status=STATUS_SHED,
                            arrival_s=request.arrival_s,
                            slo_s=request.slo_s,
                            done_s=request.arrival_s,
                        )
                    )
                i += 1
            batch, expired = queue.pop_batch(
                cfg.max_batch, now=clock, drop_expired=cfg.drop_expired
            )
            for request in expired:
                records.append(
                    RequestRecord(
                        request_id=request.request_id,
                        view_id=request.view_id,
                        status=STATUS_EXPIRED,
                        arrival_s=request.arrival_s,
                        slo_s=request.slo_s,
                        done_s=clock,
                        queue_s=clock - request.arrival_s,
                    )
                )
            if not batch:
                continue
            # Degradation reacts to the *post-dispatch* backlog: what is
            # still queued after this batch was carved off.
            lod_bump = controller.update(len(queue), cfg.queue_capacity)
            if lod_bump:
                controller.degraded_batches += 1
            batch_records, clock = self.batcher.execute(
                batch, clock, batch_id, lod_bump=lod_bump
            )
            records.extend(batch_records)
            batch_id += 1

        records.sort(key=lambda r: r.request_id)
        injector = self.config.fault_injector
        resilience_stats = {
            "injected_faults": injector.injected if injector else 0,
            "breaker_trips": self.batcher.breaker.stats.trips,
            "breaker_fast_fails": self.batcher.breaker.stats.fast_fails,
            "degraded_batches": controller.degraded_batches,
        }
        return ServingReport(
            records=records,
            planner_stats=self.planner.stats(),
            queue_stats=queue.stats.as_dict(),
            sim_time_s=max(clock - first_arrival, 0.0),
            wall_time_s=time.perf_counter() - wall_start,
            lod_subset_sizes=(
                self.lod.subset_sizes() if self.lod is not None else {}
            ),
            resilience_stats=resilience_stats,
        )

    # ------------------------------------------------------------------
    def render_request(self, request: RenderRequest):
        """Render one request immediately (no queueing) through the same
        cull/LOD/plan/render path ``serve`` uses; returns what
        ``render_rows`` does (``.image``, ``.num_rendered``)."""
        return self.batcher.render_one(request)

    def mean_composited(
        self, cameras, *, use_lod: bool = True
    ) -> float:
        """Mean composited-Gaussian count over ``cameras`` — the LOD
        ablation metric (compare ``use_lod`` on vs off)."""
        sizes = []
        for cam in cameras:
            s = self.grid.query(cam)
            if use_lod and self.lod is not None:
                s = self.lod.apply(self.lod.level_for(cam), s)
            sizes.append(s.size)
        return float(np.mean(sizes)) if sizes else 0.0
