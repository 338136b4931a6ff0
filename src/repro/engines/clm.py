"""The CLM engine: functional offloaded training (paper §4, Figure 6).

One :meth:`CLMEngine.train_batch` call executes the full CLM step on real
NumPy arrays:

1. frustum-cull every view of the batch against the GPU-resident critical
   attributes (§4.1, §5.1);
2. obtain the :class:`repro.planning.BatchPlan` for the culled sets from
   the engine's :class:`repro.planning.BatchPlanner` — microbatch order
   (TSP by default, §4.2.3), precise-caching transfer steps (§4.2.1) and
   overlapped-Adam finalization chunks (§4.2.2), built for this batch;
3. lower the plan to its node list (:func:`repro.planning.lower_batch`)
   and execute it.  A ``step`` node is one microbatch: assemble the
   working set (cache copies + pinned-store loads), render, compute loss,
   backprop, accumulate gradients (GPU-resident for critical attributes,
   working-buffer for non-critical with carried accumulation) and offload
   the finalized ones.  An ``adam`` node is the eager CPU Adam of chunk
   ``F_j`` — with ``config.overlap_workers >= 1`` its fused packed-row
   update executes on a worker thread while the training thread renders
   microbatch ``j+1`` (§4.2.2 for real, not simulated); the last node,
   ``critical_adam``, is the GPU-side fused Adam update of the critical
   attributes.  Inline on ``native`` the whole list is one
   ``train_batch`` kernel call, like the paper's pipelined schedule with
   nothing on its critical path waiting on the host (§4.2, §5.2–5.4): the
   pool accounting is replayed before it, the transfer counters and the
   losses are summed after it.  The pooled executors, a densify hook and a
   custom renderer pair walk the nodes (:func:`train_batch`): each step
   one ``train_step`` kernel call on ``native``, with the pool accounting,
   the counters, the loss and the hook in Python each step;
4. finish the batch: the barrier that joins every in-flight chunk and
   surfaces worker errors.

Both optimizers are fused :class:`repro.optim.packed_adam.PackedSparseAdam`
instances over the stores' packed row layouts — one ``adam_rows`` kernel
op with per-column learning rates per chunk, and the stores' data path is
one kernel op a method (:mod:`repro.core.stores`).  Because the
kernel arithmetic is shared with the per-name sparse Adam and the chunks
are pairwise disjoint, the result is bit-identical to GPU-only training of
the same batch for any worker count — checked by
``tests/core/test_equivalence.py`` and ``tests/runtime/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.autotune import MeasuredBatch
from repro.core.stores import (
    GpuCriticalStore,
    GpuWorkingSet,
    PinnedParameterStore,
    train_step,
)
from repro.engines.base import BatchResult, EngineBase, PositionGradHook
from repro.engines.registry import register_engine
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.kernels.registry import REFERENCE_BACKEND
from repro.optim.packed_adam import PackedSparseAdam
from repro.planning.lowering import lower_batch
from repro.runtime import GraphExecutor, OverlapExecutor, TaskGraph

CRITICAL = ("positions", "log_scales", "quaternions")


@dataclass
class _BatchRun:
    """What one batch's ``step`` nodes thread from one to the next."""

    targets: Dict[int, np.ndarray]
    batch: int
    position_grad_hook: Optional[PositionGradHook]
    #: The device's working buffers (the sharded engine swaps them per
    #: device).
    working: Optional[GpuWorkingSet] = None
    #: Gradients the last retired step hands to the next assemble.
    carried: Optional[tuple] = None
    #: The raster settings of the batch and the ``train_step`` op it runs
    #: (None: the composition), read at its first step.
    settings: Optional[RasterSettings] = None
    fused: Optional[Callable] = None
    loss: float = 0.0
    per_view_loss: Dict[int, float] = field(default_factory=dict)


def _bind_node(engine: "CLMEngine", plan, run: _BatchRun, node) -> tuple:
    """``(fn, args)`` that run ``node`` of ``plan``'s lowered list."""
    if node.kind == "step":
        return engine._run_step, (run, plan.steps[node.index])
    if node.kind == "adam":
        return engine._apply_noncritical_adam, (plan.adam_chunks[node.index],)
    return engine._apply_critical_adam, (plan.touched,)


def train_batch(
    engine: "CLMEngine", plan, run: _BatchRun, nodes, workers: int = 0
) -> "tuple[float, float]":
    """The node walk: the reference of the ``train_batch`` kernel op, and
    what a pooled, hooked or custom-rendered batch runs.  The touched
    rows' gradients zeroed in both stores, then ``nodes`` in order — each
    ``step`` on the training thread, each ``adam`` handed to the
    :class:`OverlapExecutor` of ``workers`` threads (none: run inline), the
    ``critical_adam`` last — and one barrier.  Returns the noncritical Adam
    seconds and, of those, the seconds hidden under the steps."""
    engine.cpu_store.zero_grads(plan.touched)
    engine.gpu_store.zero_grads(plan.touched)
    runtime = engine._overlap_runtime(workers)
    for node in nodes:
        fn, args = _bind_node(engine, plan, run, node)
        if node.kind == "adam":
            runtime.submit(fn, *args)
        else:
            fn(*args)
    runtime.barrier()
    stats = runtime.drain_stats()
    return stats.task_s, stats.hidden_s


@register_engine(
    "clm",
    description="CLM offloading: critical attributes GPU-resident, precise "
    "caching, TSP ordering, overlapped CPU Adam (§4)",
)
class CLMEngine(EngineBase):
    """Offloaded 3DGS training over split parameter stores."""

    def _setup(self, model: GaussianModel) -> None:
        self._build_stores(model)
        # Fused packed-row optimizers matching the stores' row layouts:
        # critical (N, 10), non-critical (N, 3K+1).
        self.adam_critical = PackedSparseAdam(
            {name: model.parameters()[name].shape[1:] for name in CRITICAL},
            model.num_gaussians,
            config=self.config.adam,
            kernel_backend=self.kernel_backend,
        )
        # pad_to: moments share the pinned rows' cache-line-aligned width,
        # so every chunk operand moves as whole contiguous rows.
        self.adam_noncritical = PackedSparseAdam(
            {"sh": model.sh.shape[1:], "opacity_logits": ()},
            model.num_gaussians,
            config=self.config.adam,
            pad_to=self.cpu_store.row_floats,
            kernel_backend=self.kernel_backend,
        )
        #: Runtime pools by worker count.  The adaptive runtime may pick a
        #: different ``overlap_workers`` every batch, so executors are
        #: created lazily per count and kept warm (thread start/join never
        #: lands on the batch path).  ``self.runtime`` stays the
        #: configured-count overlap executor — the stable handle tests and
        #: diagnostics read.
        self._runtimes: Dict[int, OverlapExecutor] = {}
        self._graph_runtimes: Dict[int, GraphExecutor] = {}
        self.runtime = self._overlap_runtime(self.config.overlap_workers)
        #: Per-batch critical (GPU-side) Adam seconds, split out of
        #: ``_step_adam_s`` for the tuner's calibration samples.
        self._step_adam_critical_s = 0.0
        #: The auto-tuner (None unless ``config.autotune``): chooses
        #: workers/ordering per batch by predicted makespan and
        #: reconciles predictions against measured wall time.
        self.tuner = None
        if self.config.autotune:
            from repro.autotune import AutoTuner, CandidateSpace

            self.tuner = AutoTuner(
                space=CandidateSpace.from_engine_config(self.config),
                num_pixels=max(1, self._num_pixels),
                overlap_adam=self.config.enable_overlap_adam,
            )

    # -- runtime pools ---------------------------------------------------
    def _overlap_runtime(self, workers: int) -> OverlapExecutor:
        runtime = self._runtimes.get(workers)
        if runtime is None:
            runtime = OverlapExecutor(workers=workers, name=f"clm-adam{workers}")
            self._runtimes[workers] = runtime
        return runtime

    def _graph_runtime(self, workers: int) -> GraphExecutor:
        runtime = self._graph_runtimes.get(workers)
        if runtime is None:
            runtime = GraphExecutor(workers=workers, name=f"clm-graph{workers}")
            self._graph_runtimes[workers] = runtime
        return runtime

    def _culling_arrays(self):
        return (
            self.gpu_store.positions,
            self.gpu_store.log_scales,
            self.gpu_store.quaternions,
        )

    # ------------------------------------------------------------------
    @property
    def num_gaussians(self) -> int:
        return self.gpu_store.num_rows

    def snapshot_model(self) -> GaussianModel:
        """Reassemble the full model from both stores (for eval/densify)."""
        nc = self.cpu_store.gather_params(np.arange(self.num_gaussians))
        return GaussianModel(
            positions=self.gpu_store.positions.copy(),
            log_scales=self.gpu_store.log_scales.copy(),
            quaternions=self.gpu_store.quaternions.copy(),
            sh=nc["sh"],
            opacity_logits=nc["opacity_logits"],
            sh_degree=self.sh_degree,
        )

    # ------------------------------------------------------------------
    def _train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """One full CLM training step over ``view_ids``.

        ``targets`` maps view id -> ground-truth image.
        ``position_grad_hook(view_id, working_set, position_grads)`` lets
        the trainer collect densification statistics without the engine
        knowing about them.

        With :attr:`tuner` set (``config.autotune``), the batch is culled
        once and planned once per candidate ordering, the tuner
        picks the configuration with the smallest simulator-predicted
        makespan, and after execution the prediction is reconciled against
        the measured wall time and fed back into the cost model.  The
        worker count is an execution detail only (bit-identical results,
        pinned by tests); the ordering changes the schedule semantics
        exactly as the ``ordering`` config always has.

        ``config.use_task_graph`` selects which executor runs the
        batch's node list (see :meth:`_execute_plan`) — same math, same
        bit-identical guarantee.
        """
        cfg = self.config
        self._step_adam_critical_s = 0.0
        batch_start = time.perf_counter()
        choice = None
        if self.tuner is not None:
            # Cull once: the candidate orderings plan the same index sets.
            sets = self.cull_views(view_ids)
            cams = [self.cameras[v] for v in view_ids]
            plans = {
                ordering: self.planner.plan(
                    sets,
                    list(view_ids),
                    cameras=cams,
                    num_gaussians=self.num_gaussians,
                    strategy=ordering,
                )
                for ordering in self.tuner.orderings
            }
            choice = self.tuner.choose(plans)
            plan = plans[choice.config.ordering]
            workers = choice.config.overlap_workers
        else:
            plan = self.plan_batch(view_ids)
            workers = cfg.overlap_workers
        result, adam_noncritical_s, hidden_s = self._execute_plan(
            plan, targets, position_grad_hook, workers
        )
        if choice is not None:
            measured = MeasuredBatch(
                wall_s=time.perf_counter() - batch_start,
                forward_s=self._step_forward_s,
                backward_s=self._step_backward_s,
                adam_s=adam_noncritical_s,
                critical_adam_s=self._step_adam_critical_s,
                hidden_s=hidden_s,
                working_rows=sum(
                    int(s.working_set.size) for s in plan.steps
                ),
                traffic_rows=(
                    plan.total_loads + plan.total_stores + plan.total_cached
                ),
                chunk_rows=sum(plan.adam_chunk_sizes),
                touched_rows=int(plan.touched.size),
            )
            reconciliation = self.tuner.observe(choice, plan, measured)
            result.autotuned = True
            result.tuned_workers = choice.config.overlap_workers
            result.tuned_ordering = choice.config.ordering
            result.predicted_makespan_s = choice.predicted_s
            result.autotune_rel_error = reconciliation.relative_error
        return result

    # ------------------------------------------------------------------
    def _execute_plan(
        self,
        plan,
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook],
        workers: int,
    ) -> "tuple[BatchResult, float, float]":
        """Execute the batch's :func:`~repro.planning.lower_batch` nodes.

        The same node list runs inline — the ``train_batch`` op: on
        ``native`` one call, else :func:`train_batch`, the walk — or on a
        pool: the walk with every ``adam`` handed to the
        :class:`OverlapExecutor`, one barrier at batch end, or, with
        ``config.use_task_graph``, bound into a :class:`TaskGraph` for the
        :class:`GraphExecutor`.  The walk is what a densify hook, a custom
        renderer pair or renders on another backend than the stores' run.

        Concurrency contract: every ``adam`` node updates a *finalized*
        chunk — rows no later microbatch loads, stores, or re-finalizes
        (the plan invariants ``validate`` asserts) — and the GPU-side
        critical update is independent of the pinned store, so workers
        and the training thread never touch the same rows; the ``step``
        spine is linear, so :class:`_BatchRun` is never accessed
        concurrently.

        Returns ``(result, noncritical_adam_s, hidden_s)``.
        """
        touched = plan.touched
        run = _BatchRun(
            targets,
            plan.batch_size,
            position_grad_hook,
            working=self._new_working_set(),
        )
        nodes = lower_batch(plan, self.config.enable_overlap_adam)
        if self.config.use_task_graph:
            self.cpu_store.zero_grads(touched)
            self.gpu_store.zero_grads(touched)
            graph = TaskGraph(name="clm-batch")
            for node in nodes:
                fn, args = _bind_node(self, plan, run, node)
                graph.add(
                    fn, *args, name=node.name, kind=node.kind, deps=node.deps
                )
            stats = self._graph_runtime(workers).run(graph)
            adam_noncritical_s = stats.kind_s.get("adam", 0.0)
            hidden_s = stats.hidden_s
        else:
            batch = None
            if not workers and self.tuner is None and position_grad_hook is None:
                batch = self._fused_op(run.working, self.raster_settings, "train_batch")
            adam_noncritical_s, hidden_s = (batch or train_batch)(
                self, plan, run, nodes, workers
            )
        self._step_adam_s += adam_noncritical_s
        self._step_overlap_hidden_s += hidden_s
        run.working.release()
        counters = run.working.counters
        result = BatchResult(
            loss=run.loss,
            per_view_loss=run.per_view_loss,
            touched_gaussians=int(touched.size),
            order=list(plan.order),
            loaded_gaussians=counters.loaded_gaussians,
            stored_gaussians=counters.stored_gaussians,
            cached_gaussians=counters.cached_gaussians,
            loaded_bytes=counters.loaded_bytes(),
            stored_bytes=counters.stored_bytes(),
            adam_chunk_sizes=plan.adam_chunk_sizes,
        )
        return result, adam_noncritical_s, hidden_s

    def _build_stores(self, model: GaussianModel) -> None:
        backend = self.kernel_backend
        self.gpu_store = GpuCriticalStore(model, pool=self.pool, kernel_backend=backend)
        self.cpu_store = PinnedParameterStore(model, kernel_backend=backend)
        self.sh_degree = model.sh_degree

    def _new_working_set(self) -> GpuWorkingSet:
        return GpuWorkingSet(
            self.cpu_store,
            self.gpu_store,
            pool=self.pool,
            num_pixels=self._num_pixels,
        )

    def _run_step(self, run: "_BatchRun", step) -> None:
        """One microbatch — the body of every ``step`` node: assemble the
        working set (cache copies + pinned-store loads + carried
        gradients), render, backpropagate, accumulate, retire.

        On ``native`` that is the ``train_step`` op, one C call over
        :attr:`_workspace`; everywhere else — NumPy, a custom renderer
        pair, renders pinned to another backend than the stores' — the
        reference composition
        :func:`repro.core.stores.train_step`, with this engine's training
        view.  The densify hook runs after either, on the gradients still
        leased, and the lease ends here."""
        cam, target = self.cameras[step.view_id], run.targets[step.view_id]
        settings, ssim_lambda = run.settings, self.config.ssim_lambda
        ws, working = self._workspace, run.working
        if settings is None:
            settings = run.settings = self.raster_settings
            run.fused = self._fused_op(working, settings, "train_step")
        moments = self._target_moments(cam.view_id, target)
        fused = run.fused
        try:
            if fused is None:
                loss, grads, run.carried = train_step(
                    working, step, run.carried, cam, settings, target, moments,
                    ssim_lambda, run.batch, ws, view=self._train_view,
                )
            else:
                loss, grads, run.carried = fused(
                    working, step, run.carried, cam, settings, target, moments,
                    ssim_lambda, run.batch, ws,
                )
            self._tally_view(ws)
            if run.position_grad_hook is not None:
                run.position_grad_hook(
                    step.view_id, step.working_set, grads["positions"]
                )
        finally:
            ws.release()
        run.per_view_loss[step.view_id] = loss
        run.loss += loss / run.batch

    def _fused_op(self, working: GpuWorkingSet, settings, op: str) -> Optional[Callable]:
        """``working``'s op ``op`` where it runs this engine's renders itself
        — the library's renderer pair, renders on the stores' backend, and
        that backend not the reference — else None: the composition."""
        if self._own_renderer() and settings.kernel_backend in (None, self.kernel_backend):
            fused = working._ops(op)
            if working._ops.active != REFERENCE_BACKEND:
                return fused
        return None

    # ------------------------------------------------------------------
    def _apply_noncritical_adam(self, rows: np.ndarray) -> None:
        """Fused CPU Adam over one finalized chunk (the §5.4 thread's
        work): the pinned packed rows updated in place — run on an
        :class:`OverlapExecutor` worker when the overlap runtime has one."""
        if rows.size == 0:
            return
        # The full padded pinned buffer: padding columns ride along.
        self.adam_noncritical.step_packed(
            self.cpu_store.params, self.cpu_store.grads, rows
        )

    def _apply_critical_adam(self, rows: np.ndarray) -> None:
        """GPU-side fused Adam over the resident packed critical rows."""
        if rows.size == 0:
            return
        start = time.perf_counter()
        self.adam_critical.step_packed(
            self.gpu_store.packed_params, self.gpu_store.packed_grads, rows
        )
        self._critical_adam_done(rows, time.perf_counter() - start)

    def _critical_adam_done(self, rows: np.ndarray, elapsed: float) -> None:
        """Account a critical Adam over ``rows`` that took ``elapsed`` s."""
        self._step_adam_s += elapsed
        # Split out for the tuner: critical Adam is serial-on-main in the
        # prediction DAG, unlike the overlappable noncritical chunks.
        self._step_adam_critical_s += elapsed
        # One critical node a batch, and the next cull runs after the
        # batch's barrier, so this report never races a refresh.
        self._culling.moved(rows)

    # ------------------------------------------------------------------
    def render_view(self, view_id: int):
        """Offloaded *inference*: render one view loading only its
        in-frustum working set from the CPU store.

        The paper's abstract claim ("render a large scene that requires 102
        million Gaussians on a single RTX 4090") is exactly this path —
        GPU memory holds critical attributes plus one view's non-critical
        slice, never the full model.  The pool-accounted working set is
        rendered whole through the forward-only binding.
        """
        # Ordering is meaningless for one view; identity draws nothing
        # from the RNG stream that orders training batches.
        plan = self.plan_batch([view_id], strategy="identity")
        step = plan.steps[0]
        working = self._new_working_set()
        try:
            model_i = working.assemble(step.working_set, step.loads, step.cached)
            return self._forward_rows(model_i)(self.cameras[view_id], None)
        finally:
            working.release()

    def optimizers(self) -> Dict[str, object]:
        return {
            "adam_critical": self.adam_critical,
            "adam_noncritical": self.adam_noncritical,
        }

    def load_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """The split stores' writer: critical rows into the resident store,
        the rest into the pinned one."""
        for name, arr in self.gpu_store.params().items():
            arr[:] = params[name]
        self.cpu_store.write_params(
            np.arange(self.num_gaussians),
            {name: params[name] for name in ("sh", "opacity_logits")},
        )
        self._culling.reset()

    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        # No chunk can be in flight here: rebuild only runs between
        # batches, after train_batch's barrier.
        if self.pool is not None:
            self.gpu_store.release()
        self._build_stores(model)
        self.adam_critical.resize(keep_rows)
        self.adam_noncritical.resize(keep_rows)

    def close(self) -> None:
        """Stop every pooled executor's worker threads (idempotent; the
        workers are daemons, so skipping this never hangs interpreter
        shutdown).  The adaptive runtime may have warmed executors at
        several worker counts — all of them close here."""
        for runtime in self._runtimes.values():
            runtime.close()
        for runtime in self._graph_runtimes.values():
            runtime.close()

    def __del__(self) -> None:  # best-effort thread cleanup
        try:
            self.close()
        except Exception:
            pass
