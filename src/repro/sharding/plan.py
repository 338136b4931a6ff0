"""Splitting one global :class:`~repro.planning.BatchPlan` across devices.

The sharded engine plans a batch *once* through the ordinary
:class:`~repro.planning.BatchPlanner` — same RNG draws, same ordering —
and only then derives per-device plans deterministically.
That layering is what makes the K=1 configuration bit-identical to the
single-device ``clm`` engine: at K=1 the derivation collapses to the
global plan itself.

Per-device plans are real :class:`~repro.planning.BatchPlan` objects
(identity order over that device's microbatches, transfer steps, touched
union and Adam chunks rebuilt by the ``plan_batch`` kernel op over the
device's execution order), so every downstream consumer — the working-set
assembler, the Figure-14 analytics, the simulator DAG builder — works
unchanged on a shard.

Adam ownership: device ``k`` updates exactly the touched rows it owns
(``adam_rows[k]``).  The K sets are disjoint with union equal to the
global ``touched`` set, so no row is double-stepped, and at K=1 the
single set *is* ``touched`` in the same order ``clm`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import attributes
from repro.kernels.registry import OpDispatch
from repro.planning.plan import BatchPlan
from repro.sharding.partition import ShardAssignment, assign_views, halo_rows
from repro.sharding.worker import run_work_stealing


@dataclass(frozen=True)
class ShardedBatchPlan:
    """One batch split across the devices of a :class:`ShardAssignment`.

    ``device_plans[k]`` is device ``k``'s own :class:`BatchPlan` over the
    microbatches it executes (possibly stolen from a peer); ``halo[k]``
    are the rows device ``k`` borrows from peers for its working sets;
    ``adam_rows[k]`` are the touched rows device ``k``'s optimizer owns.
    """

    global_plan: BatchPlan
    assignment: ShardAssignment
    device_plans: Tuple[BatchPlan, ...]
    #: Executing device per *global* step position (after stealing).
    device_of_step: Tuple[int, ...]
    halo: Tuple[np.ndarray, ...]
    adam_rows: Tuple[np.ndarray, ...]
    steals: Tuple[Tuple[int, int, int], ...]

    @property
    def num_devices(self) -> int:
        return self.assignment.num_devices

    @property
    def num_steals(self) -> int:
        return len(self.steals)

    @property
    def halo_gaussians(self) -> int:
        """Total borrowed rows across devices (duplicated working-set
        residency; the memory-model overhead of sharding)."""
        return int(sum(h.size for h in self.halo))

    @property
    def halo_bytes(self) -> float:
        """PCIe bytes of one halo exchange: critical params in, critical
        grads back (non-critical attributes never leave their owner)."""
        return 2.0 * attributes.critical_bytes(self.halo_gaussians)

    def validate(self) -> None:
        """Assert the sharding invariants on top of each plan's own."""
        for plan in self.device_plans:
            if plan.steps:
                plan.validate()
        total = sum(p.batch_size for p in self.device_plans)
        assert total == self.global_plan.batch_size
        owned = np.concatenate(self.adam_rows) if self.adam_rows else np.empty(0)
        assert np.array_equal(np.sort(owned), self.global_plan.touched), (
            "adam_rows must partition the global touched set"
        )
        for k, rows in enumerate(self.adam_rows):
            assert (self.assignment.owner[rows] == k).all()
        for k, h in enumerate(self.halo):
            assert (self.assignment.owner[h] != k).all()


def build_sharded_plan(
    global_plan: BatchPlan,
    assignment: ShardAssignment,
    *,
    work_stealing: bool = True,
    steal_cost_factor: float = 0.0,
    plan_batch: Optional[Callable] = None,
) -> ShardedBatchPlan:
    """Derive per-device plans from an already-built global plan.

    Deterministic: home devices come from :func:`assign_views` plurality
    voting, the stealing simulation breaks every tie by device id, and no
    RNG is consumed — so the global plan's RNG stream is untouched and
    matches the single-device engine draw-for-draw.  ``plan_batch`` is the
    kernel op that builds the device plans (the planner passes its own;
    by default it runs on the ``auto`` backend).
    """
    if plan_batch is None:
        plan_batch = OpDispatch()("plan_batch")
    k_devices = assignment.num_devices
    sets = [s.working_set for s in global_plan.steps]
    homes = assign_views(sets, assignment)

    queues: List[List[Tuple[int, float]]] = [[] for _ in range(k_devices)]
    for position, home in enumerate(homes):
        queues[home].append((position, float(sets[position].size)))

    if k_devices > 1 and work_stealing:
        balance = run_work_stealing(queues, steal_cost_factor=steal_cost_factor)
        schedule = balance.schedule
        steals = balance.steals
    else:
        schedule = tuple(tuple(item for item, _ in q) for q in queues)
        steals = ()

    device_of_step = [0] * global_plan.batch_size
    device_plans: List[BatchPlan] = []
    halo: List[np.ndarray] = []
    for k in range(k_devices):
        positions = schedule[k]
        for position in positions:
            device_of_step[position] = k
        device_sets = [sets[p] for p in positions]
        device_views = [global_plan.view_ids[p] for p in positions]
        planned = plan_batch(
            device_sets, device_views, range(len(positions)), None, 0.0,
            global_plan.enable_cache, global_plan.num_gaussians,
        )
        device_plans.append(
            BatchPlan(
                strategy=global_plan.strategy,
                enable_cache=global_plan.enable_cache,
                num_gaussians=global_plan.num_gaussians,
                order=planned.order,
                view_ids=tuple(device_views),
                steps=planned.steps,
                touched=planned.touched,
                adam_chunks=planned.adam_chunks,
            )
        )
        halo.append(halo_rows(planned.touched, assignment, k))

    touched = global_plan.touched
    adam_rows = tuple(touched[assignment.owner[touched] == k] for k in range(k_devices))
    return ShardedBatchPlan(
        global_plan=global_plan,
        assignment=assignment,
        device_plans=tuple(device_plans),
        device_of_step=tuple(device_of_step),
        halo=tuple(halo),
        adam_rows=adam_rows,
        steals=steals,
    )
