"""CLM — the paper's contribution.

Sparsity-guided CPU offloading for 3DGS training:

- :mod:`repro.core.attributes` — the selection-critical / non-critical
  attribute split (§4.1);
- :mod:`repro.core.culling_index` — pre-rendering frustum culling producing
  per-view in-frustum index sets (§5.1);
- :mod:`repro.core.pipeline` — the 1F1B microbatch pipeline DAG (Figure 6);
- :mod:`repro.core.memory_model` — GPU/pinned memory accounting and OOM
  boundaries (Figures 8/10, Table 6);
- :mod:`repro.core.stores` — functional pinned-CPU / GPU working-set
  parameter stores (the selective loading kernel equivalents, §5.2);
- :mod:`repro.core.trainer` — the training loop tying it together.

The engine implementations themselves live in :mod:`repro.engines`
(CLM, naive offloading, GPU-only baseline/enhanced behind one
:class:`~repro.engines.base.Engine` protocol and registry), and the
planning modules (caching, orders, adam_overlap) in
:mod:`repro.planning` behind the :class:`~repro.planning.BatchPlanner`.
"""

from repro.core.config import EngineConfig, TimingConfig
from repro.core.culling_index import CullingIndex
from repro.planning.caching import MicrobatchStep, build_transfer_plan
from repro.core.memory_model import (
    SYSTEMS,
    max_model_size,
    memory_breakdown,
    pinned_memory_bytes,
)
from repro.core.trainer import Trainer, TrainerConfig
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_model,
    read_checkpoint,
    restore_into_engine,
    save_checkpoint,
)

__all__ = [
    "save_checkpoint",
    "load_model",
    "read_checkpoint",
    "restore_into_engine",
    "CheckpointError",
    "CheckpointManager",
    "EngineConfig",
    "TimingConfig",
    "CullingIndex",
    "MicrobatchStep",
    "build_transfer_plan",
    "SYSTEMS",
    "max_model_size",
    "memory_breakdown",
    "pinned_memory_bytes",
    "Trainer",
    "TrainerConfig",
]
