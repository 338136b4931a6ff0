"""The CLM engine: functional offloaded training (paper §4, Figure 6).

One :meth:`CLMEngine.train_batch` call executes the full CLM step on real
NumPy arrays:

1. frustum-cull every view of the batch against the GPU-resident critical
   attributes (§4.1, §5.1);
2. obtain the :class:`repro.planning.BatchPlan` for the culled sets from
   the engine's :class:`repro.planning.BatchPlanner` — microbatch order
   (TSP by default, §4.2.3), precise-caching transfer steps (§4.2.1) and
   overlapped-Adam finalization chunks (§4.2.2), memoized by the plan
   cache;
3. execute the plan's microbatch loop: assemble the working set (cache copies +
   pinned-store loads), render, compute loss, backprop, accumulate
   gradients (GPU-resident for critical attributes, working-buffer for
   non-critical with carried accumulation), offload finalized gradients,
   and *submit* the eager CPU-Adam chunk to the overlap runtime — with
   ``config.overlap_workers >= 1`` the fused packed-row update of chunk
   ``F_j`` executes on a worker thread while the training thread renders
   microbatch ``j+1`` (§4.2.2 for real, not simulated);
4. finish the batch: last Adam chunk, the GPU-side fused Adam update of
   the critical attributes, then the batch-end barrier that joins every
   in-flight chunk and surfaces worker errors.

Both optimizers are fused :class:`repro.optim.packed_adam.PackedSparseAdam`
instances over the stores' packed row layouts — one gather, one fused
update with per-column learning rates, one scatter per chunk.  Because the
kernel arithmetic is shared with the per-name sparse Adam and the chunks
are pairwise disjoint, the result is bit-identical to GPU-only training of
the same batch for any worker count — checked by
``tests/core/test_equivalence.py`` and ``tests/runtime/``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.autotune import MeasuredBatch
from repro.core import attributes
from repro.core.stores import (
    GpuCriticalStore,
    GpuWorkingSet,
    PinnedParameterStore,
)
from repro.engines.base import BatchResult, EngineBase, PositionGradHook
from repro.engines.registry import register_engine
from repro.gaussians.loss import photometric_loss
from repro.gaussians.model import GaussianModel
from repro.optim.packed_adam import PackedSparseAdam
from repro.runtime import GraphExecutor, OverlapExecutor, TaskGraph

CRITICAL = ("positions", "log_scales", "quaternions")
NONCRITICAL = ("sh", "opacity_logits")


@register_engine(
    "clm",
    description="CLM offloading: critical attributes GPU-resident, precise "
    "caching, TSP ordering, overlapped CPU Adam (§4)",
)
class CLMEngine(EngineBase):
    """Offloaded 3DGS training over split parameter stores."""

    def _setup(self, model: GaussianModel) -> None:
        self.gpu_store = GpuCriticalStore(
            model, pool=self.pool, grad_dtype=self.config.grad_dtype
        )
        self.cpu_store = PinnedParameterStore(
            model, grad_dtype=self.config.grad_dtype
        )
        self.sh_degree = model.sh_degree
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
        #: workers/group_size/ordering per batch by predicted makespan and
        #: reconciles predictions against measured wall time.
        self.tuner = None
        if self.config.autotune:
            from repro.autotune import AutoTuner, CandidateSpace

            self.tuner = AutoTuner(
                space=CandidateSpace.from_engine_config(self.config),
                num_pixels=max(1, self._num_pixels),
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
        once and planned once per candidate ordering (memoized), the tuner
        picks the configuration with the smallest simulator-predicted
        makespan, and after execution the prediction is reconciled against
        the measured wall time and fed back into the cost model.  The
        tuned knobs are execution details only: worker count and slab
        ``group_size`` never change results (bit-identical, pinned by
        tests), the ordering changes the schedule semantics exactly as the
        ``ordering`` config always has.

        ``config.use_task_graph`` selects the dependency task-graph
        executor instead of the submit/barrier overlap loop — same math,
        same bit-identical guarantee.
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
            self._raster_overrides = {"group_size": choice.config.group_size}
            if choice.config.kernel_backend is not None:
                self._raster_overrides["kernel_backend"] = (
                    choice.config.kernel_backend
                )
            # Key future plans under the tuned slab width (see
            # plan_fingerprint): tuned configs never share a cached plan.
            self.planner.group_size = choice.config.group_size
        else:
            plan = self.plan_batch(view_ids)
            workers = cfg.overlap_workers
        if cfg.use_task_graph:
            result, adam_noncritical_s, hidden_s = self._execute_plan_graph(
                plan, targets, position_grad_hook, workers
            )
        else:
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
            result.tuned_group_size = choice.config.group_size
            result.tuned_ordering = choice.config.ordering
            result.tuned_kernel_backend = (
                choice.config.kernel_backend or self.kernel_backend
            )
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
        """The submit/barrier overlap loop (the pre-graph execution path).

        Concurrency contract: every task handed to the runtime updates a
        *finalized* chunk — rows no later microbatch loads, stores, or
        re-finalizes (the plan invariants ``validate`` asserts) — so the
        worker threads and the training thread never touch the same rows,
        and the barrier below is the only ordering the batch needs.

        Returns ``(result, noncritical_adam_s, hidden_s)``.
        """
        cfg = self.config
        runtime = self._overlap_runtime(workers)
        batch = plan.batch_size
        touched = plan.touched
        self.cpu_store.zero_grads(touched)
        self.gpu_store.zero_grads(touched)

        working = GpuWorkingSet(
            self.cpu_store,
            self.gpu_store,
            pool=self.pool,
            num_pixels=self._num_pixels,
        )
        carried = None
        total_loss = 0.0
        per_view_loss: Dict[int, float] = {}

        for step, chunk in zip(plan.steps, plan.adam_chunks):
            model_i = working.assemble(
                step.working_set, step.loads, step.cached, carried
            )
            cam = self.cameras[step.view_id]
            loss, grads = self._forward_backward(
                cam, model_i, targets[step.view_id], batch
            )
            per_view_loss[step.view_id] = loss
            total_loss += loss / batch
            working.add_grads(grads)
            if position_grad_hook is not None:
                position_grad_hook(
                    step.view_id, step.working_set, grads["positions"]
                )
            carried = working.retire(step.stores, step.carried)
            if cfg.enable_overlap_adam and chunk.size:
                # Chunk F_j is final: its CPU Adam (+ writeback staging)
                # runs on the pool while the next microbatch renders.
                runtime.submit(self._apply_noncritical_adam, chunk)

        if not cfg.enable_overlap_adam:
            # Ablation: all updates at batch end (functionally identical,
            # nothing to hide them under — the barrier follows at once).
            for chunk in plan.adam_chunks:
                if chunk.size:
                    runtime.submit(self._apply_noncritical_adam, chunk)
        # The GPU-side critical update is independent of the pinned store,
        # so it too proceeds under any still-running noncritical chunks.
        self._apply_critical_adam(touched)
        runtime.barrier()
        stats = runtime.drain_stats()
        self._step_adam_s += stats.task_s
        self._step_overlap_hidden_s += stats.hidden_s
        working.release()
        result = self._batch_result(plan, working, total_loss, per_view_loss)
        return result, stats.task_s, stats.hidden_s

    # ------------------------------------------------------------------
    def _execute_plan_graph(
        self,
        plan,
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook],
        workers: int,
    ) -> "tuple[BatchResult, float, float]":
        """The dependency task-graph execution path (ROADMAP item 5).

        Per microbatch the chain ``assemble -> forward -> backward ->
        retire`` is a linear dependency spine (each assemble also depends
        on the previous retire: they share the double-buffered working
        set, and backward gradient accumulation across tile slabs is
        order-sensitive, so the spine must not be reordered).  Each
        finalized Adam chunk hangs off its step's retire node with *no*
        edges between chunks — the worker pool runs them in any order,
        bit-identical by chunk disjointness (§4.2.2), concurrently with
        later spine nodes.

        Returns ``(result, noncritical_adam_s, hidden_s)``.
        """
        cfg = self.config
        runtime = self._graph_runtime(workers)
        batch = plan.batch_size
        touched = plan.touched
        self.cpu_store.zero_grads(touched)
        self.gpu_store.zero_grads(touched)

        working = GpuWorkingSet(
            self.cpu_store,
            self.gpu_store,
            pool=self.pool,
            num_pixels=self._num_pixels,
        )
        # Spine-carried state: only one spine node runs at a time (linear
        # dependencies), so this dict is never accessed concurrently.
        state: Dict[str, object] = {"carried": None, "loss": 0.0}
        per_view_loss: Dict[int, float] = {}

        graph = TaskGraph(name="clm-batch")
        prev = None
        for step, chunk in zip(plan.steps, plan.adam_chunks):
            asm = graph.add(
                self._graph_assemble,
                working,
                step,
                state,
                name=f"ASM.{step.position}",
                kind="assemble",
                deps=(prev,) if prev is not None else (),
            )
            fwd = graph.add(
                self._graph_forward,
                step,
                state,
                targets[step.view_id],
                batch,
                per_view_loss,
                name=f"FWD.{step.position}",
                kind="forward",
                deps=(asm,),
            )
            bwd = graph.add(
                self._graph_backward,
                working,
                step,
                state,
                position_grad_hook,
                name=f"BWD.{step.position}",
                kind="backward",
                deps=(fwd,),
            )
            prev = graph.add(
                self._graph_retire,
                working,
                step,
                state,
                name=f"RET.{step.position}",
                kind="retire",
                deps=(bwd,),
            )
            if cfg.enable_overlap_adam and chunk.size:
                graph.add(
                    self._apply_noncritical_adam,
                    chunk,
                    name=f"ADAM.{step.position}",
                    kind="adam",
                    deps=(prev,),
                )
        if not cfg.enable_overlap_adam:
            for position, chunk in enumerate(plan.adam_chunks):
                if chunk.size and prev is not None:
                    graph.add(
                        self._apply_noncritical_adam,
                        chunk,
                        name=f"ADAM.{position}",
                        kind="adam",
                        deps=(prev,),
                    )
        if prev is not None:
            graph.add(
                self._apply_critical_adam,
                touched,
                name="CRIT_ADAM",
                kind="critical_adam",
                deps=(prev,),
            )
        stats = runtime.run(graph)
        adam_noncritical_s = stats.kind_s.get("adam", 0.0)
        self._step_adam_s += adam_noncritical_s
        self._step_overlap_hidden_s += stats.hidden_s
        working.release()
        result = self._batch_result(
            plan, working, float(state["loss"]), per_view_loss
        )
        return result, adam_noncritical_s, stats.hidden_s

    # -- graph node bodies (spine order == classic loop order) -----------
    def _graph_assemble(self, working, step, state) -> None:
        state["model"] = working.assemble(
            step.working_set, step.loads, step.cached, state["carried"]
        )

    def _graph_forward(
        self, step, state, target, batch, per_view_loss
    ) -> None:
        cam = self.cameras[step.view_id]
        start = time.perf_counter()
        render = self._render(cam, state["model"], self.raster_settings)
        self._step_forward_s += time.perf_counter() - start
        loss, g_img = photometric_loss(
            render.image, target, self.config.ssim_lambda
        )
        per_view_loss[step.view_id] = loss
        state["loss"] = float(state["loss"]) + loss / batch
        state["render"] = (render, g_img / batch)

    def _graph_backward(self, working, step, state, position_grad_hook) -> None:
        render, g_img = state.pop("render")
        start = time.perf_counter()
        grads = self._render_backward(render, state["model"], g_img)
        self._step_backward_s += time.perf_counter() - start
        working.add_grads(grads)
        if position_grad_hook is not None:
            position_grad_hook(
                step.view_id, step.working_set, grads["positions"]
            )

    def _graph_retire(self, working, step, state) -> None:
        state["carried"] = working.retire(step.stores, step.carried)

    def _batch_result(
        self, plan, working, total_loss: float, per_view_loss: Dict[int, float]
    ) -> BatchResult:
        return BatchResult(
            loss=total_loss,
            per_view_loss=per_view_loss,
            touched_gaussians=int(plan.touched.size),
            order=list(plan.order),
            loaded_gaussians=working.counters.loaded_gaussians,
            stored_gaussians=working.counters.stored_gaussians,
            cached_gaussians=working.counters.cached_gaussians,
            loaded_bytes=attributes.noncritical_bytes(
                working.counters.loaded_gaussians
            ),
            stored_bytes=attributes.noncritical_bytes(
                working.counters.stored_gaussians
            ),
            adam_chunk_sizes=plan.adam_chunk_sizes,
        )

    # ------------------------------------------------------------------
    def _apply_noncritical_adam(self, rows: np.ndarray) -> None:
        """Fused CPU Adam over one finalized chunk (the §5.4 thread's
        work): one gather from the pinned packed rows, one fused update,
        one scatter back — run on an :class:`OverlapExecutor` worker when
        the overlap runtime has one."""
        if rows.size == 0:
            return
        # Pass the full padded pinned buffer: whole cache-line-aligned rows
        # gather/scatter as contiguous memcpys (padding rides along).
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
        elapsed = time.perf_counter() - start
        self._step_adam_s += elapsed
        # Split out for the tuner: critical Adam is serial-on-main in the
        # prediction DAG, unlike the overlappable noncritical chunks.
        self._step_adam_critical_s += elapsed

    # ------------------------------------------------------------------
    def render_view(self, view_id: int):
        """Offloaded *inference*: render one view loading only its
        in-frustum working set from the CPU store.

        The paper's abstract claim ("render a large scene that requires 102
        million Gaussians on a single RTX 4090") is exactly this path —
        GPU memory holds critical attributes plus one view's non-critical
        slice, never the full model.
        """
        # Ordering is meaningless for one view; identity keeps the plan
        # cacheable (the 'random' strategy is cache-exempt) and draws
        # nothing from the RNG stream that orders training batches.
        plan = self.plan_batch([view_id], strategy="identity")
        step = plan.steps[0]
        working = GpuWorkingSet(
            self.cpu_store, self.gpu_store, pool=self.pool,
            num_pixels=self._num_pixels,
        )
        model_i = working.assemble(step.working_set, step.loads, step.cached)
        result = self._render(
            self.cameras[view_id], model_i, self.raster_settings
        )
        working.release()
        return result

    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        # No chunk can be in flight here: rebuild only runs between
        # batches, after train_batch's barrier.
        pool = self.pool
        if pool is not None:
            self.gpu_store.release()
        self.gpu_store = GpuCriticalStore(
            model, pool=pool, grad_dtype=self.config.grad_dtype
        )
        self.cpu_store = PinnedParameterStore(
            model, grad_dtype=self.config.grad_dtype
        )
        self.sh_degree = model.sh_degree
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
