"""repro — a full reproduction of *CLM: Removing the GPU Memory Barrier for
3D Gaussian Splatting* (ASPLOS 2026).

Public API tour::

    import repro

    # Functional training through the facade (any registered engine):
    scene = repro.make_trainable_scene(reference_gaussians=400, num_views=12)
    sess = repro.session(scene, engine="clm")
    sess.train(batches=50)
    print(sess.metrics.final_psnr)
    sess.checkpoint("run.npz")

    # The registry behind it — the four systems of §6.1 and counting:
    repro.available_engines()     # ('clm', 'naive', 'baseline', 'enhanced')
    engine = repro.create_engine("clm", model, cameras, config)

    # Simulated-testbed performance experiments (Figures 8-15):
    scene = repro.build_scene("bigcity", scale=2e-4)
    index = repro.CullingIndex.build(scene.model, scene.cameras)
    result = repro.run_timed("clm", scene, index)
    print(result.images_per_second)

Subpackages:

- :mod:`repro.engines` — the unified engine protocol, registry, the four
  training systems, and the :class:`~repro.engines.session.TrainingSession`
  facade;
- :mod:`repro.planning` — the batch-planning layer: one
  :class:`~repro.planning.BatchPlan` (ordering, precise caching,
  overlapped-Adam chunks) built by a cached
  :class:`~repro.planning.BatchPlanner` and executed by both the
  functional engines and the simulator;
- :mod:`repro.gaussians` — the 3DGS substrate (differentiable rasterizer,
  losses, densification);
- :mod:`repro.core` — CLM's machinery (offload stores, TSP solver,
  pipelining, memory model) plus the training loop;
- :mod:`repro.runtime` — the asynchronous execution runtime: the
  :class:`~repro.runtime.OverlapExecutor` worker pool that runs the
  finalized-chunk CPU Adam concurrently with the next microbatch
  (``EngineConfig(overlap_workers=...)``), bit-identical to sequential
  execution;
- :mod:`repro.hardware` — the discrete-event testbed simulator;
- :mod:`repro.scenes` — synthetic dataset generators;
- :mod:`repro.optim` — dense, sparse, and fused packed-row (CPU) Adam,
  all sharing one update kernel;
- :mod:`repro.kernels` — the kernel backend registry: the NumPy reference
  and the ``native`` fused C kernels (built at first use with the system C
  compiler) behind one :class:`~repro.kernels.KernelBackend` protocol,
  runtime-selected via
  ``EngineConfig(kernel_backend=...)`` / ``repro backends``;
- :mod:`repro.analysis` — sparsity statistics and report rendering.
"""

from repro.core import (
    CullingIndex,
    EngineConfig,
    TimingConfig,
    Trainer,
    TrainerConfig,
)
from repro.core.timed import run_timed
from repro.engines import (
    BatchResult,
    CLMEngine,
    Engine,
    EngineBase,
    GpuOnlyEngine,
    NaiveOffloadEngine,
    TrainingSession,
    available_engines,
    create_engine,
    engine_descriptions,
    register_engine,
    session,
)
from repro.gaussians import GaussianModel, render
from repro.kernels import (
    KernelBackend,
    available_backends,
    backend_status,
    register_backend,
    resolve_backend,
)
from repro.planning import BatchPlan, BatchPlanner
from repro.scenes import build_scene
from repro.scenes.images import make_trainable_scene

__version__ = "1.3.0"

__all__ = [
    # facade + registry (the documented entry points)
    "session",
    "TrainingSession",
    "Engine",
    "EngineBase",
    "BatchResult",
    "available_engines",
    "create_engine",
    "engine_descriptions",
    "register_engine",
    # engine classes (prefer create_engine)
    "CLMEngine",
    "NaiveOffloadEngine",
    "GpuOnlyEngine",
    # configuration + loop
    "EngineConfig",
    "TimingConfig",
    "Trainer",
    "TrainerConfig",
    # the batch-planning layer
    "BatchPlan",
    "BatchPlanner",
    # compiled kernel backends
    "KernelBackend",
    "available_backends",
    "backend_status",
    "register_backend",
    "resolve_backend",
    # simulated-testbed experiments
    "CullingIndex",
    "run_timed",
    # substrate + scenes
    "GaussianModel",
    "render",
    "build_scene",
    "make_trainable_scene",
    "__version__",
]
