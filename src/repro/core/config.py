"""Configuration dataclasses for the engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.gaussians.rasterizer import RasterSettings
from repro.hardware.specs import RTX4090_TESTBED, DeviceTopology, Testbed
from repro.optim.adam import AdamConfig
from repro.resilience.faults import FaultSchedule


def default_adam_config() -> AdamConfig:
    """Per-attribute learning rates in the spirit of the reference 3DGS
    trainer (positions slow, opacity fast)."""
    return AdamConfig(
        lr=2e-3,
        lr_overrides={
            "positions": 2e-4,
            "log_scales": 5e-3,
            "quaternions": 1e-3,
            "sh": 2.5e-3,
            "opacity_logits": 5e-2,
        },
    )


@dataclass
class EngineConfig:
    """Functional-training knobs shared by all engines.

    ``ordering`` is one of ``random | camera | gs_count | tsp`` (Table 4);
    ``enable_cache`` toggles precise Gaussian caching (§4.2.1, the
    "No Cache" ablation of Figure 14); ``enable_overlap_adam`` toggles
    eager per-microbatch Adam chunks (§4.2.2) — with it off, all updates
    run at batch end (functionally identical, different timing).

    ``overlap_workers`` sizes the CLM engine's
    :class:`repro.runtime.OverlapExecutor` worker pool: 0 (the default)
    runs the finalized-chunk CPU Adam inline (synchronous fallback), >= 1
    runs it on worker threads concurrently with the next microbatch's
    forward/backward.  Results are bit-identical either way (the chunks
    are pairwise disjoint and a batch-end barrier orders the boundary) —
    asserted engine-by-engine in ``tests/runtime``.

    ``renderer`` / ``renderer_backward`` select the rendering backend
    (paper §8: CLM is backend-agnostic).  ``None`` means the full tile
    rasterizer; any pair with the ``(camera, model, settings) -> result``
    (``.image``, ``.num_rendered``) / ``(result, model, dL_dimage) ->
    grads`` contract works — see :mod:`repro.gaussians.point_renderer`.

    ``kernel_backend`` selects the compiled kernel backend executing the
    raster/Adam hot loops (:mod:`repro.kernels`): ``"auto"`` (default)
    prefers the fastest available backend (honouring the
    ``REPRO_KERNEL_BACKEND`` env override), an explicit name pins one.
    Engines resolve it once at construction and thread it through
    ``RasterSettings``, ``PackedSparseAdam`` and their planner's
    ``plan_batch`` op; ``PerfCounters.kernel_backend`` names the backend
    that composited the last batch's renders (the reference, after a
    failed build).

    ``use_task_graph`` picks the executor of the batch's
    :func:`repro.planning.lower_batch` node list (``step`` per
    microbatch, ``adam`` per finalized chunk, ``critical_adam``): bound
    into a :class:`repro.runtime.TaskGraph` and run by the
    :class:`repro.runtime.GraphExecutor` in any dependency-respecting
    order, instead of walked inline with ``adam`` nodes submitted to the
    :class:`repro.runtime.OverlapExecutor` — bit-identical either way, at
    every worker count (``tests/runtime/test_graph_equivalence.py``).

    ``autotune`` turns on the plan-guided adaptive runtime
    (:mod:`repro.autotune`): per batch, the engine predicts the makespan
    of every candidate configuration through the discrete-event simulator
    and executes the argmin, then reconciles predicted vs measured wall
    time back into the cost model.  ``autotune_workers`` /
    ``autotune_orderings`` define the candidate grid (orderings exclude
    ``random`` — a fresh shuffle every plan; the kernel backend is not
    tuned — a switch changes results within the backends' 1e-10 parity
    envelope, breaking bit-identical training).  Auto-tuning changes
    timing only — never results for worker choices, and never pool
    accounting (see :mod:`repro.core.memory_model`).
    """

    batch_size: int = 4
    ordering: str = "tsp"
    enable_cache: bool = True
    enable_overlap_adam: bool = True
    overlap_workers: int = 0
    ssim_lambda: float = 0.2
    adam: AdamConfig = field(default_factory=default_adam_config)
    raster: RasterSettings = field(default_factory=RasterSettings)
    seed: int = 0
    # Functional GPU memory ceiling (bytes).  None disables enforcement;
    # set it to emulate a small GPU and observe CLM fitting where the
    # baseline OOMs (the quickstart example does exactly this).
    gpu_capacity_bytes: Optional[float] = None
    renderer: Optional[Callable] = None
    renderer_backward: Optional[Callable] = None
    # Sharded training (the clm_sharded engine; ignored by the others).
    # ``num_devices`` sizes the simulated device pool; ``topology``
    # overrides the default homogeneous DeviceTopology built from the
    # RTX 4090 testbed; ``work_stealing`` toggles the deterministic
    # microbatch rebalancing between imbalanced shards.
    num_devices: int = 1
    topology: Optional[DeviceTopology] = None
    work_stealing: bool = True
    # Fault tolerance (the clm_sharded engine).  ``fault_schedule``
    # attaches a seeded :class:`repro.resilience.FaultSchedule` the
    # engine's injector replays batch by batch; with one attached, the
    # engine keeps an in-memory recovery snapshot retaken after every
    # successful batch, so a fail-stop loses exactly one batch.
    fault_schedule: Optional[FaultSchedule] = None
    # Kernel backend for the raster/Adam hot loops ("auto", "numpy",
    # "native", or any registered plugin backend name).
    kernel_backend: str = "auto"
    # Adaptive runtime (ROADMAP item 5).  ``use_task_graph`` selects the
    # dependency task-graph executor for the CLM batch; ``autotune``
    # enables per-batch simulator-driven configuration choice over the
    # ``autotune_*`` candidate grid.
    use_task_graph: bool = False
    autotune: bool = False
    autotune_workers: "tuple[int, ...]" = (0, 1, 2)
    autotune_orderings: "tuple[str, ...]" = ("tsp", "gs_count", "identity")

    def resolve_renderer(self) -> "tuple[Callable, Callable]":
        """The (forward, backward) pair engines should call."""
        from repro.gaussians.render import render, render_backward

        fwd = self.renderer or render
        bwd = self.renderer_backward or render_backward
        return fwd, bwd


@dataclass
class TimingConfig:
    """Timed-execution knobs (the simulated-hardware side).

    ``paper_num_gaussians`` is the model size N being emulated; the scaled
    scene's measured index sets are multiplied by ``N / N_scaled``
    (DESIGN.md §5).  ``num_batches`` controls how much steady state the
    simulator observes.
    """

    testbed: Testbed = RTX4090_TESTBED
    paper_num_gaussians: Optional[float] = None  # default: scene spec value
    num_batches: int = 8
    batch_size: Optional[int] = None  # default: scene spec batch size
    ordering: str = "tsp"
    enable_cache: bool = True
    enable_overlap_adam: bool = True
    seed: int = 0
