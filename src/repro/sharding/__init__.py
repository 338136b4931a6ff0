"""Multi-device sharded training (ROADMAP item 2).

The Gaussian store is split *spatially* across K simulated devices using
the same uniform grid that accelerates frustum culling
(:class:`repro.gaussians.spatial.CullingGrid`): lexicographically ordered
cell runs become contiguous shards of near-equal row counts, so each
device owns a compact region of the scene and most of a view's working
set is local to the device that renders it.

The pieces:

- :mod:`repro.sharding.partition` — :class:`ShardAssignment` (row ->
  owning device) built by :func:`spatial_shard`, plus the halo algebra
  (working-set rows a device borrows from peers at tile boundaries);
- :mod:`repro.sharding.worker` — deterministic MOT-style work stealing:
  idle devices steal queued microbatches from the most-loaded peer;
- :mod:`repro.sharding.plan` — :class:`ShardedBatchPlan`: one global
  :class:`~repro.planning.BatchPlan` split into per-device plans with
  per-device Adam row sets and halo accounting;
- :mod:`repro.sharding.pipeline` — the per-device task-DAG builder over a
  :class:`~repro.hardware.specs.DeviceTopology` (``gpu{k}.compute`` /
  ``gpu{k}.comm`` / ``cpu{k}.adam`` resources, halo exchange on the comm
  streams);
- :mod:`repro.sharding.timed` — the simulated scaling driver behind the
  ``sharding`` benchmark (1 -> K devices at paper-scale counts).

The functional engine lives at :mod:`repro.engines.clm_sharded`; at K=1 it
is bit-identical to the single-device ``clm`` engine.
"""

from repro.sharding.partition import (
    ShardAssignment,
    assign_views,
    halo_rows,
    spatial_shard,
)
from repro.sharding.plan import ShardedBatchPlan, build_sharded_plan
from repro.sharding.worker import WorkStealingResult, run_work_stealing
from repro.sharding.pipeline import ShardedBatchEndpoints, add_sharded_batch
from repro.sharding.timed import (
    ShardedTimedResult,
    run_sharded_timed,
)

__all__ = [
    "ShardAssignment",
    "spatial_shard",
    "assign_views",
    "halo_rows",
    "ShardedBatchPlan",
    "build_sharded_plan",
    "WorkStealingResult",
    "run_work_stealing",
    "ShardedBatchEndpoints",
    "add_sharded_batch",
    "ShardedTimedResult",
    "run_sharded_timed",
]
