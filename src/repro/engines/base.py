"""The engine contract shared by the four systems of §6.1.

Three pieces live here:

- :class:`BatchResult` — the *unified* per-batch metrics record.  Every
  engine returns the same dataclass; transfer counters default to zero so
  Figure 13/14-style reporting works uniformly (a GPU-only engine simply
  reports ``loaded_bytes == 0``, the naive offloader reports ``N`` whole
  Gaussians per direction, CLM reports its precise working-set traffic).
- :class:`Engine` — the abstract protocol: ``train_batch``, ``evaluate``,
  ``render_view``, ``snapshot_model``, ``rebuild``, ``num_gaussians``.
  ``Trainer``, :class:`repro.engines.session.TrainingSession` and the CLI
  program against this interface only; engine-state capture and restore
  (:mod:`repro.core.checkpoint`) add ``optimizers``, ``load_parameters``,
  ``devices`` and ``restore_devices``.
- :class:`EngineBase` — the shared skeleton: camera bookkeeping, renderer
  resolution, the simulated GPU memory pool, pre-rendering frustum culling
  (§5.1), the microbatch loop of the engines whose model is resident — one
  C step a microbatch on ``native``, which reads the working set in place
  and adds its gradients into the full-size ones, as CLM's ``train_step``
  is one C step a microbatch — the batch-end sparse-Adam finalization, and
  the forward-only renders (``evaluate``, ``render_view``): each view's
  in-frustum rows from the maintained culling grid, rendered through the
  binding a served request renders through
  (:func:`repro.gaussians.render.bind_forward`).
  Concrete engines shrink to their actual policy differences: their plan,
  what they transfer, and where Adam runs.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.culling_index import CullingIndex
from repro.gaussians.camera import Camera
from repro.gaussians.loss import TargetMoments, psnr
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import forward_only_settings
from repro.gaussians.render import bind_forward, render, render_backward, train_view
from repro.hardware.memory import MemoryPool
from repro.kernels.registry import REFERENCE_BACKEND, OpDispatch
from repro.kernels.workspace import Workspace
from repro.planning.plan import BatchPlan
from repro.planning.planner import BatchPlanner
from repro.utils.rng import make_rng

#: Hook signature: ``hook(view_id, working_set, position_grads)``.  The
#: gradients are valid only during the call: they may be a slice of the
#: engine's :class:`~repro.kernels.workspace.Workspace`, which the next view
#: overwrites — copy what is kept.
PositionGradHook = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass(kw_only=True)
class BatchResult:
    """Metrics of one training batch, uniform across all engines.

    ``loaded_bytes``/``stored_bytes`` are explicit fields (not derived from
    the Gaussian counters) because engines move different per-Gaussian
    payloads: CLM transfers only the 49 non-critical floats, the naive
    offloader all 59, GPU-only engines none.

    Keyword-only: the field set differs from the pre-unification
    ``BatchResult``/``NaiveBatchResult``/``GpuOnlyBatchResult``
    dataclasses, so positional construction against the old layouts fails
    loudly instead of silently scrambling fields.
    """

    loss: float
    per_view_loss: Dict[int, float]
    touched_gaussians: int
    order: List[int] = field(default_factory=list)
    loaded_gaussians: int = 0
    stored_gaussians: int = 0
    cached_gaussians: int = 0
    loaded_bytes: float = 0.0
    stored_bytes: float = 0.0
    adam_chunk_sizes: List[int] = field(default_factory=list)
    #: Wall-clock seconds of this batch, stamped by
    #: :meth:`EngineBase.train_batch` (not by the engine implementations).
    wall_time_s: float = 0.0
    #: Seconds this batch spent in pre-rendering frustum culling
    #: (:meth:`EngineBase.cull_views`), stamped like ``wall_time_s``.
    cull_s: float = 0.0
    #: Seconds this batch spent inside the renderer's forward pass (the
    #: render call of a composed training view, or ``native``'s project +
    #: composite inside a step), stamped by :meth:`EngineBase.train_batch`
    #: like ``wall_time_s``.
    forward_s: float = 0.0
    #: Seconds spent inside the renderer's backward pass.
    backward_s: float = 0.0
    #: Seconds spent inside optimizer updates (sparse/packed Adam), stamped
    #: by :meth:`EngineBase.train_batch` from the engine's accumulators.
    adam_s: float = 0.0
    #: Of ``adam_s``, the seconds measured as genuinely hidden under the
    #: training thread's compute by the overlap runtime
    #: (:class:`repro.runtime.OverlapExecutor`); 0 on synchronous paths.
    overlap_hidden_s: float = 0.0
    #: Sharded-training extras (zero on single-device engines): rows
    #: borrowed across shard boundaries this batch, the modeled PCIe bytes
    #: of their exchange, and microbatches migrated by work stealing.
    halo_gaussians: int = 0
    halo_bytes: float = 0.0
    stolen_microbatches: int = 0
    #: Simulated multi-device schedule of this batch (seconds): the
    #: discrete-event makespan and each device's busy compute time.
    sim_makespan_s: float = 0.0
    device_busy_s: Dict[int, float] = field(default_factory=dict)
    #: Fault-tolerance accounting (zero on fault-free batches): seconds
    #: spent in elastic recovery (snapshot restore + re-shard +
    #: re-execution), batches of work lost to fail-stops, and devices
    #: that failed this batch.
    recovery_s: float = 0.0
    lost_batches: int = 0
    failed_devices: int = 0
    #: Adaptive-runtime accounting (zero/None unless the engine ran with
    #: ``config.autotune``): the configuration the tuner chose for this
    #: batch, its simulator-predicted makespan, and the relative error of
    #: that prediction against the measured wall time.
    autotuned: bool = False
    tuned_workers: Optional[int] = None
    tuned_ordering: Optional[str] = None
    predicted_makespan_s: float = 0.0
    autotune_rel_error: float = 0.0


@dataclass
class PerfCounters:
    """Cumulative training-loop counters, one instance per engine.

    :meth:`EngineBase.train_batch` folds every :class:`BatchResult` in, so
    after any number of batches the engine can answer the questions a
    :class:`repro.bench.record.BenchRecord` asks — throughput, transfer
    volume, batch count — without the caller keeping its own tallies.
    """

    batches: int = 0
    images: int = 0
    wall_time_s: float = 0.0
    #: Resolved kernel-backend name the engine renders/steps with (see
    #: :mod:`repro.kernels`) — stamped at engine construction so bench
    #: records can attribute every number to the backend that produced it.
    kernel_backend: str = "numpy"
    #: Cumulative pre-rendering frustum-culling seconds.
    cull_s: float = 0.0
    #: Cumulative renderer forward / backward seconds (the raster hot path
    #: the PR 4 substrate optimizes), split out of ``wall_time_s``.
    forward_s: float = 0.0
    backward_s: float = 0.0
    #: Cumulative optimizer-update seconds (the CPU/GPU Adam term the
    #: overlap runtime targets) and, of those, the seconds the
    #: :class:`repro.runtime.OverlapExecutor` measured as hidden under
    #: the training thread's compute.  ``adam_s`` seconds executed on
    #: worker threads may overlap ``wall_time_s``'s other stages — that
    #: is the point — so the stage times are not additive under overlap.
    adam_s: float = 0.0
    overlap_hidden_s: float = 0.0
    loaded_bytes: float = 0.0
    stored_bytes: float = 0.0
    loaded_gaussians: int = 0
    stored_gaussians: int = 0
    cached_gaussians: int = 0
    #: Sharded-training tallies (stay zero on single-device engines).
    halo_gaussians: int = 0
    halo_bytes: float = 0.0
    stolen_microbatches: int = 0
    sim_makespan_s: float = 0.0
    device_busy_s: Dict[int, float] = field(default_factory=dict)
    #: Fault-tolerance tallies (stay zero on fault-free runs): cumulative
    #: elastic-recovery seconds, batches lost to fail-stops, and devices
    #: failed.
    recovery_s: float = 0.0
    lost_batches: int = 0
    failed_devices: int = 0
    #: Adaptive-runtime tallies (stay zero without ``config.autotune``):
    #: batches tuned, cumulative predicted makespan, cumulative relative
    #: prediction error, and the most recently chosen configuration.
    autotuned_batches: int = 0
    predicted_makespan_s: float = 0.0
    autotune_rel_error_sum: float = 0.0
    tuned_config: Dict[str, object] = field(default_factory=dict)

    @property
    def autotune_mean_rel_error(self) -> float:
        """Mean relative makespan-prediction error over tuned batches."""
        if self.autotuned_batches == 0:
            return 0.0
        return self.autotune_rel_error_sum / self.autotuned_batches

    @property
    def transfer_bytes(self) -> float:
        """Total CPU<->GPU parameter/gradient traffic, both directions."""
        return self.loaded_bytes + self.stored_bytes

    @property
    def images_per_second(self) -> float:
        """Measured functional-training throughput (0 before any batch)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.images / self.wall_time_s

    def observe(self, result: "BatchResult", images: int) -> None:
        self.batches += 1
        self.images += images
        self.wall_time_s += result.wall_time_s
        self.cull_s += result.cull_s
        self.forward_s += result.forward_s
        self.backward_s += result.backward_s
        self.adam_s += result.adam_s
        self.overlap_hidden_s += result.overlap_hidden_s
        self.loaded_bytes += result.loaded_bytes
        self.stored_bytes += result.stored_bytes
        self.loaded_gaussians += result.loaded_gaussians
        self.stored_gaussians += result.stored_gaussians
        self.cached_gaussians += result.cached_gaussians
        self.halo_gaussians += result.halo_gaussians
        self.halo_bytes += result.halo_bytes
        self.stolen_microbatches += result.stolen_microbatches
        self.sim_makespan_s += result.sim_makespan_s
        self.recovery_s += result.recovery_s
        self.lost_batches += result.lost_batches
        self.failed_devices += result.failed_devices
        for k, busy in result.device_busy_s.items():
            self.device_busy_s[k] = self.device_busy_s.get(k, 0.0) + busy
        if result.autotuned:
            self.autotuned_batches += 1
            self.predicted_makespan_s += result.predicted_makespan_s
            self.autotune_rel_error_sum += result.autotune_rel_error
            self.tuned_config = {
                "overlap_workers": result.tuned_workers,
                "ordering": result.tuned_ordering,
            }


class Engine(abc.ABC):
    """What every training system must provide (the §6.1 contract)."""

    config: EngineConfig

    @property
    @abc.abstractmethod
    def num_gaussians(self) -> int:
        """Current model size."""

    @abc.abstractmethod
    def train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """One full training step over ``view_ids`` (targets by view id)."""

    @abc.abstractmethod
    def evaluate(
        self, view_ids: Sequence[int], targets: Dict[int, np.ndarray]
    ) -> float:
        """Mean PSNR over ``view_ids``."""

    @abc.abstractmethod
    def render_view(self, view_id: int):
        """Render one view forward-only; returns what a served request
        does (``.image``, ``.num_rendered``)."""

    @abc.abstractmethod
    def snapshot_model(self) -> GaussianModel:
        """Full model reassembled from whatever stores the engine uses."""

    @abc.abstractmethod
    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        """Reconstruct stores/optimizer state after densify/prune.

        ``keep_rows`` maps new rows to old rows (-1 = new Gaussian).
        """


class EngineBase(Engine):
    """Shared construction and microbatch-loop skeleton.

    Subclasses implement :meth:`_setup` (build stores and optimizers from
    the initial model) and :meth:`_culling_arrays` (where the
    selection-critical attributes live), plus :meth:`_train_batch`,
    :meth:`snapshot_model` and :meth:`rebuild`.  The public
    :meth:`train_batch` wraps :meth:`_train_batch` with wall-clock timing
    and the cumulative :class:`PerfCounters`.  ``evaluate`` and
    ``render_view`` render each view's rows of :meth:`_eval_model` that
    :meth:`cull_views` finds, through :meth:`_forward_rows`; CLM overrides
    ``render_view`` with its offloaded working-set path.
    """

    def __init__(
        self,
        model: GaussianModel,
        cameras: Sequence[Camera],
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.cameras: Dict[int, Camera] = {c.view_id: c for c in cameras}
        self._num_pixels = max(
            (c.num_pixels for c in self.cameras.values()), default=0
        )
        self._rng = make_rng(self.config.seed)
        #: Resolved kernel-backend name (``config.kernel_backend`` after
        #: auto-selection/env override — see :mod:`repro.kernels`).  All
        #: of this engine's raster and packed-Adam calls run on it, and
        #: its planner's ``plan_batch`` op.
        from repro.kernels import resolve_backend

        self.kernel_backend = resolve_backend(
            getattr(self.config, "kernel_backend", None)
        ).name
        #: The engine's batch planner (shared RNG stream, so the ``random``
        #: ordering draws from the same sequence the pre-planner code did);
        #: it builds every batch's plan, with no plan cache.
        self.planner = BatchPlanner.from_engine_config(
            self.config, seed=self._rng, kernel_backend=self.kernel_backend
        )
        self._render, self._render_backward = self.config.resolve_renderer()
        self.pool: Optional[MemoryPool] = None
        if self.config.gpu_capacity_bytes is not None:
            self.pool = MemoryPool(self.config.gpu_capacity_bytes, name="gpu")
        self.batches_trained = 0
        self.perf = PerfCounters(kernel_backend=self.kernel_backend)
        #: SSIM moments of each view's target image, computed on first use
        #: (see :meth:`_target_moments`).  A function of the targets only,
        #: never of the model — ``rebuild``, restore and recovery leave it
        #: alone — and host-side like the targets, so not pool-accounted.
        self._moments: Dict[int, TargetMoments] = {}
        #: The ``view_train`` and ``photometric_loss`` ops, on the backend
        #: the renders run on (resolved as :meth:`cull_views` resolves it).
        self._loss_ops = OpDispatch(
            self.raster_settings.kernel_backend or self.kernel_backend
        )
        #: The host arenas ``view_train`` runs this engine's views in, and
        #: the lease on the gradients it returns (see :meth:`_accumulate_planned`).
        self._workspace = Workspace()
        #: The arenas its forward-only renders run in (see :meth:`_forward_rows`).
        self._forward_workspace = Workspace()
        # Per-batch cull/renderer/optimizer timing accumulators, reset by
        # train_batch.
        self._step_cull_s = 0.0
        self._step_forward_s = 0.0
        self._step_backward_s = 0.0
        self._step_adam_s = 0.0
        self._step_overlap_hidden_s = 0.0
        #: ``RenderContext.kernel_backend`` of the last training render.
        self._rendered_on: Optional[str] = None
        #: Every view's in-frustum set and the grid they are culled
        #: through, kept across batches and refit to the rows each Adam
        #: step reports (see :meth:`cull_views`).
        self._culling = CullingIndex(num_gaussians=0)
        self._setup(model)

    @property
    def raster_settings(self):
        """The raster settings this engine renders with — a live view of
        ``config.raster`` (schedules like the trainer's SH warmup mutate
        that shared object in place), never a construction-time snapshot.

        Under an enforced GPU pool the activation allocations follow the
        analytic ``ACT_PER_GAUSSIAN`` model, which (like the paper's CUDA
        kernels) assumes the backward pass recomputes the blending state;
        retaining the blend cache would hold real bytes the pool never
        accounted for, so retention is forced off here on capacity-limited
        runs — as a per-call overlay, without mutating the caller's config
        (it may be shared across engines).  Both backends pay for that by
        replaying the forward inside the backward pass (NumPy a second slab
        forward per view, ``native`` a second compositing sweep instead of
        a walk over its blend records), to bit-identical gradients.
        """
        settings = self.config.raster
        if self.pool is not None and settings.cache_blend_state:
            settings = dc_replace(settings, cache_blend_state=False)
        # Thread the engine's resolved kernel backend into the renderer as
        # an overlay — only when the config pins an explicit backend and
        # the raster settings don't already pin one themselves.  Under
        # ``auto`` the renderer's own per-call resolution lands on the
        # same backend, so the settings object passes through untouched
        # (keeping the live-view identity contract).
        requested = getattr(self.config, "kernel_backend", "auto")
        if settings.kernel_backend is None and requested not in (None, "", "auto"):
            settings = dc_replace(settings, kernel_backend=self.kernel_backend)
        return settings

    # -- subclass hooks -------------------------------------------------
    @abc.abstractmethod
    def _setup(self, model: GaussianModel) -> None:
        """Build parameter stores and optimizers from ``model``."""

    @abc.abstractmethod
    def _train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """The engine-specific batch step (no bookkeeping)."""

    # -- the instrumented batch step ------------------------------------
    def train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """One training batch, instrumented.

        Template method: delegates to :meth:`_train_batch`, stamps the
        measured ``wall_time_s``, the culling ``cull_s`` and the renderer
        ``forward_s``/``backward_s`` split onto the result, and folds it into
        :attr:`perf` — every engine gets uniform per-batch timing and
        transfer accounting for free.
        """
        self._step_cull_s = 0.0
        self._step_forward_s = 0.0
        self._step_backward_s = 0.0
        self._step_adam_s = 0.0
        self._step_overlap_hidden_s = 0.0
        start = time.perf_counter()
        result = self._train_batch(view_ids, targets, position_grad_hook)
        result.wall_time_s = time.perf_counter() - start
        result.cull_s = self._step_cull_s
        result.forward_s = self._step_forward_s
        result.backward_s = self._step_backward_s
        result.adam_s = self._step_adam_s
        result.overlap_hidden_s = self._step_overlap_hidden_s
        self.batches_trained += 1
        self.perf.observe(result, len(view_ids))
        # Re-stamp the backend identity from what actually composited this
        # batch's renders — the dominant kernel cost — after a build that
        # failed handed them to the reference (see
        # repro.kernels.compile_with_fallback).  The optimizers report their
        # own truth as ``active_kernel_backend``.
        self.perf.kernel_backend = self._rendered_on or self.kernel_backend
        return result

    @abc.abstractmethod
    def _culling_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(positions, log_scales, quaternions)`` used for culling."""

    # -- shared machinery ----------------------------------------------
    def cull_views(self, view_ids: Sequence[int]) -> List[np.ndarray]:
        """Pre-rendering frustum culling using critical attributes only
        (§5.1) — one in-frustum index set per view, on the exact test of
        the backend the renders will run on, equal to a fresh
        :func:`repro.gaussians.frustum.cull_batch` bit for bit.

        The batch's views are one query of a culling grid kept across
        batches (:class:`CullingIndex`): every engine's Adam step reports
        the rows it wrote (:meth:`CullingIndex.moved`), and the next call
        refits the grid to them instead of rebuilding it.  New arrays
        (``rebuild``) or another backend rebuild the grid, and so does
        :meth:`load_parameters`.  Its wall time accumulates into the
        batch's ``cull_s`` counter."""
        start = time.perf_counter()
        sets = self._culling.refresh(
            [self.cameras[vid] for vid in view_ids],
            *self._culling_arrays(),
            kernel_backend=self.raster_settings.kernel_backend
            or self.kernel_backend,
        )
        self._step_cull_s += time.perf_counter() - start
        return sets

    def optimizers(self) -> Dict[str, object]:
        """The engine's optimizers by name — the name a snapshot and a
        checkpoint file their state under."""
        return {"optimizer": self.optimizer}

    def devices(self) -> Optional[List[int]]:
        """The ids of the devices the engine trains on (a snapshot's
        ``alive``), or None: it has none to name."""
        return None

    def restore_devices(self, alive: List[int]) -> None:
        """Train on a restored snapshot's devices: none here."""
        raise ValueError(f"snapshot has devices {alive}, engine has none")

    def load_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Overwrite every parameter in place from full-model arrays by
        name — the one writer behind a checkpoint restore and a recovery
        snapshot.  Row counts must match.  The default writes the resident
        model :meth:`_eval_model` hands out; engines whose parameters live
        elsewhere override it."""
        for name, arr in self._eval_model().parameters().items():
            arr[:] = params[name]
        self._culling.reset()

    def plan_batch(
        self, view_ids: Sequence[int], strategy: Optional[str] = None
    ) -> BatchPlan:
        """Cull ``view_ids`` and plan the batch through :attr:`planner`.

        Every engine's ``train_batch`` (and CLM's offloaded render path)
        goes through here, so functional execution and the simulator
        consume plans with identical semantics.  ``strategy`` overrides
        the configured ordering — the non-pipelined engines pass
        ``"identity"`` to process batches exactly as sampled.
        """
        sets = self.cull_views(view_ids)
        cams = [self.cameras[v] for v in view_ids]
        return self.planner.plan(
            sets,
            list(view_ids),
            cameras=cams,
            num_gaussians=self.num_gaussians,
            strategy=strategy,
        )

    def _max_frustum_fraction(self) -> float:
        """max_i |S_i| / N over all cameras (the rho_max of Table 2)."""
        n = max(1, self.num_gaussians)
        sets = self.cull_views(list(self.cameras))
        return max((s.size / n for s in sets), default=0.0)

    def _target_moments(self, view_id: int, target) -> TargetMoments:
        """The SSIM moments of ``view_id``'s target, computed once per
        target *object*: a view whose target array was replaced misses (the
        held moments keep a reference to the array they came from, so the
        identity test cannot be fooled by a recycled ``id``)."""
        held = self._moments.get(view_id)
        if held is None or held.target is not target:
            held = self._moments[view_id] = TargetMoments.of(target)
        return held

    def _own_renderer(self) -> bool:
        """Whether this engine renders with the library's renderer pair —
        the condition for the fused ops, which run its kernels themselves."""
        return self._render is render and self._render_backward is render_backward

    def _train_view(
        self, cam, model_like, settings, target, moments, ssim_lambda, batch, ws,
        rows=None, into=None,
    ) -> "tuple[float, Dict[str, np.ndarray]]":
        """One training view, ``train_view``'s signature: the ``view_train``
        op where it runs (gradients leased on ``ws``), else the reference
        composition with this engine's renderer pair and loss op."""
        fused = None
        if self._own_renderer():
            fused = self._loss_ops("view_train")
        if fused is None or self._loss_ops.active == REFERENCE_BACKEND:
            return train_view(
                cam, model_like, settings, target, moments, ssim_lambda, batch,
                ws, rows, into, renderer=(self._render, self._render_backward),
                loss_backend=self._loss_ops,
            )
        return fused(
            cam, model_like, settings, target, moments, ssim_lambda, batch, ws,
            rows, into,
        )

    def _tally_view(self, ws: Workspace) -> None:
        """Fold the last view's forward / backward seconds and backend,
        which ``ws`` holds, into the batch's counters."""
        self._step_forward_s += ws.forward_s
        self._step_backward_s += ws.backward_s
        self._rendered_on = ws.rendered_on or self._rendered_on

    def _accumulate_planned(
        self,
        plan: BatchPlan,
        targets: Dict[int, np.ndarray],
        model: GaussianModel,
        grads: Dict[str, np.ndarray],
        position_grad_hook: Optional[PositionGradHook],
        whole: bool = False,
    ):
        """The microbatch loop of the engines whose model is resident: per
        planned step one training view of ``model`` that reads the step's
        working set in place (``whole``: every row, the fused-culling
        baseline) and adds its 1/batch-scaled gradients into ``grads`` at
        those rows — on ``native`` one ``view_train`` call over
        :attr:`_workspace`, else its reference composition.  The densify
        hook reads the position gradients while they are leased.  Returns
        ``(per_view_loss, total_loss)``."""
        batch = plan.batch_size
        settings, ssim_lambda = self.raster_settings, self.config.ssim_lambda
        ws = self._workspace
        per_view_loss: Dict[int, float] = {}
        total_loss = 0.0
        for step in plan.steps:
            target = targets[step.view_id]
            moments = self._target_moments(step.view_id, target)
            rows = None if whole else step.working_set
            loss, view_grads = self._train_view(
                self.cameras[step.view_id], model, settings, target, moments,
                ssim_lambda, batch, ws, rows, grads,
            )
            try:
                self._tally_view(ws)
                if position_grad_hook is not None:
                    positions = view_grads["positions"]
                    position_grad_hook(
                        step.view_id, step.working_set,
                        positions[step.working_set] if whole else positions,
                    )
            finally:
                ws.release()
            per_view_loss[step.view_id] = loss
            total_loss += loss / batch
        return per_view_loss, total_loss

    def _finalize_sparse_adam(
        self,
        optimizer,
        params: Dict[str, np.ndarray],
        grads: Dict[str, np.ndarray],
        touched: np.ndarray,
    ) -> np.ndarray:
        """Batch-end sparse-Adam update over the plan's touched union;
        returns the touched row set.  The update wall time lands in the
        batch's ``adam_s`` counter."""
        start = time.perf_counter()
        optimizer.step_rows(params, grads, touched)
        self._step_adam_s += time.perf_counter() - start
        self._culling.moved(touched)
        return touched

    # -- forward-only renders (evaluation, inference) -------------------
    def _eval_model(self) -> GaussianModel:
        """Read-only model the forward-only renders read: a snapshot, which
        engines whose full model is resident override to avoid a copy."""
        return self.snapshot_model()

    def _forward_rows(self, model: GaussianModel):
        """:func:`~repro.gaussians.render.bind_forward` of ``model`` with this
        engine's renderer, its :attr:`raster_settings` made forward-only
        (the same images, no blend state) and :attr:`_forward_workspace`."""
        return bind_forward(
            model, forward_only_settings(self.raster_settings), self._forward_workspace,
            None if self._render is render else self._render,
        )

    def evaluate(
        self, view_ids: Sequence[int], targets: Dict[int, np.ndarray]
    ) -> float:
        """Mean PSNR over ``view_ids``: each view's in-frustum rows of one
        :meth:`_eval_model`, from one :meth:`cull_views` query of the
        maintained grid — the full model's images, bit for bit."""
        view_ids = list(view_ids)
        if not view_ids:
            return 0.0
        render_rows = self._forward_rows(self._eval_model())
        values = [
            psnr(render_rows(self.cameras[vid], rows).image, targets[vid])
            for vid, rows in zip(view_ids, self.cull_views(view_ids))
        ]
        return float(np.mean(values))

    def render_view(self, view_id: int):
        (rows,) = self.cull_views([view_id])
        return self._forward_rows(self._eval_model())(self.cameras[view_id], rows)
