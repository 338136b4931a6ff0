"""Multi-device sharded CLM training (ROADMAP item 2).

:class:`ShardedCLMEngine` runs the CLM batch step over K *simulated*
devices: Gaussian rows are spatially sharded through the culling grid
(:func:`repro.sharding.spatial_shard`), each batch is planned **once**
through the ordinary :class:`~repro.planning.BatchPlanner` and then split
into per-device :class:`~repro.planning.BatchPlan` chains by the
shard-aware :meth:`BatchPlanner.plan_sharded` path (home device by
working-set plurality, deterministic work stealing between imbalanced
shards), and every device's microbatch chain executes against the shared
stores in device-id order.

Semantics on real arrays:

- *halo* rows (working-set members owned by a peer) are assembled into a
  device's working set exactly like owned rows — the functional stores
  play the role of the exchanged critical attributes — and their
  gradients accumulate into the same shared gradient buffers the owner
  reads, which is precisely the halo-gradient return of the simulated
  pipeline;
- each device's optimizer updates only the touched rows it *owns*
  (:attr:`ShardedBatchPlan.adam_rows`): the K row sets are disjoint with
  union equal to the global plan's ``touched``, so no row is ever
  double-stepped.  At K=1 the whole derivation collapses — same planner
  call, same RNG draws, same microbatch order, same Adam rows — and the
  engine is **bit-identical** to ``clm`` (pinned by
  ``tests/sharding/test_equivalence.py``).  At K>1 the devices execute
  views in a different interleaving, so gradient sums reassociate;
  results agree with ``clm`` to float rounding (~1e-16), not bit-for-bit.

Alongside the functional step, each batch is also scheduled on the
discrete-event simulator over the engine's
:class:`~repro.hardware.specs.DeviceTopology` (``gpu{k}.compute`` /
``gpu{k}.comm`` / ``cpu{k}.adam`` resources, halo exchange costed on the
PCIe links), and the resulting makespan and per-device busy seconds ride
on the :class:`~repro.engines.base.BatchResult` — the scaling numbers the
``sharding`` benchmark reports.

Fault tolerance (``EngineConfig.fault_schedule``): the engine threads a
:class:`repro.resilience.FaultInjector` through every batch.  Transient
faults (stragglers, lossy links) affect only the simulated schedule;
**fail-stop** triggers elastic recovery:

1. the batch executes with the doomed device still participating — its
   work is torn, and the failure is *detected at the batch barrier*;
2. the engine restores the last good in-memory snapshot (parameters,
   both optimizers, the RNG stream — see
   :mod:`repro.core.checkpoint`), discarding the torn batch: the
   snapshot is retaken after every successful batch, so exactly **one
   batch of work is lost** per fail-stop;
3. the surviving rows are re-sharded with :func:`spatial_shard` over the
   K-1 remaining devices (the restored RNG state replays the ordering
   draws exactly as a fresh restart from the snapshot would);
4. the same batch re-executes on the survivors and its result is
   returned, with ``recovery_s`` / ``lost_batches`` stamped — the
   post-recovery trajectory is bit-identical to a fault-free run
   restarted from the same snapshot on the surviving device set
   (pinned by ``tests/resilience/test_recovery.py``).

The engine inherits :meth:`CLMEngine._setup` unchanged, so the resolved
kernel backend (``EngineConfig.kernel_backend``, see :mod:`repro.kernels`)
threads through identically: both packed optimizers, the planner's
``plan_batch`` op and every device's render path execute on the same
backend, the identity rides ``PerfCounters.kernel_backend``, and the K=1
bit-identity with ``clm`` holds per backend (the plans and the fused
float64 kernels are backend-parity-pinned by ``tests/kernels/``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import attributes
from repro.core.checkpoint import capture_engine_state, restore_engine_state
from repro.engines.base import BatchResult, PositionGradHook
from repro.engines.clm import CLMEngine, _BatchRun
from repro.engines.registry import register_engine
from repro.gaussians.model import GaussianModel
from repro.hardware.kernels import KernelCostModel
from repro.hardware.simulator import Simulator
from repro.hardware.specs import (
    HOST,
    RTX4090_TESTBED,
    DeviceTopology,
    Testbed,
)
from repro.resilience.faults import BatchFaultState, FaultInjector
from repro.sharding.partition import spatial_shard
from repro.sharding.pipeline import add_sharded_batch


@register_engine(
    "clm_sharded",
    description="CLM sharded across K simulated devices: spatial row "
    "shards, per-device plans with halo exchange and work stealing, "
    "per-device utilization from the discrete-event simulator, elastic "
    "fail-stop recovery under an injected fault schedule",
)
class ShardedCLMEngine(CLMEngine):
    """CLM over a :class:`DeviceTopology` of K simulated devices."""

    def _setup(self, model: GaussianModel) -> None:
        super()._setup(model)
        cfg = self.config
        if cfg.topology is not None:
            self.topology = cfg.topology
        else:
            self.topology = DeviceTopology.homogeneous(
                RTX4090_TESTBED, max(1, int(cfg.num_devices))
            )
        self.num_devices = self.topology.num_devices
        #: Topology device ids still alive, in id order.  Shard index k of
        #: the current assignment executes on device ``alive[k]``.
        self.alive: List[int] = list(range(self.num_devices))
        # Cost model for the per-batch simulated schedule, built from the
        # topology's (homogeneous) device + host + host-link specs.
        self._costs = KernelCostModel(
            Testbed(
                name=self.topology.name,
                gpu=self.topology.device(0),
                cpu=self.topology.host,
                pcie=self.topology.link(HOST, 0),
            )
        )
        self.injector: Optional[FaultInjector] = (
            FaultInjector(cfg.fault_schedule)
            if cfg.fault_schedule is not None
            else None
        )
        self._reshard()
        # Recovery snapshots are only maintained under an injected fault
        # schedule (they copy params + moments every batch); the elastic
        # remove_device() path treats the *current* state as the
        # snapshot when none is kept.
        self._snapshot = self._recovery_point() if self.injector is not None else None

    def _recovery_point(self):
        """The state recovery rolls back to: the engine's, but for its batch
        count — recovery runs the torn batch again, which counts once."""
        return replace(capture_engine_state(self), batches_trained=None)

    def _reshard(self) -> None:
        """(Re)partition rows across the *surviving* devices from the
        current critical attributes — at setup, after every densify/prune
        rebuild, and after fail-stop recovery."""
        self.assignment = spatial_shard(
            self.gpu_store.positions,
            self.gpu_store.log_scales,
            self.gpu_store.quaternions,
            len(self.alive),
        )

    # -- elastic recovery ----------------------------------------------
    def remove_device(self, device: int) -> None:
        """Administratively fail ``device``: restore the last good
        snapshot (the current state when no snapshot is kept), shrink the
        alive set, and re-shard the rows over the survivors.

        This is the recovery path minus the fault detection — the
        equivalence tests use it to build the fault-free twin restarted
        from the same snapshot.
        """
        if device not in self.alive:
            raise ValueError(f"device {device} is not alive")
        if len(self.alive) == 1:
            raise RuntimeError("cannot remove the last surviving device")
        if self._snapshot is not None:
            restore_engine_state(self, replace(self._snapshot, alive=None))
        self.alive.remove(device)
        self._reshard()

    def devices(self) -> List[int]:
        return list(self.alive)

    def restore_devices(self, alive: List[int]) -> None:
        """Train on a restored snapshot's devices ``alive``, the injector
        counting the others failed and the recovery point retaken (a fault
        right after the restore rolls back to the restored state)."""
        if alive != self.alive:
            self.alive = list(alive)
            self._reshard()
        if self.injector is not None:
            self.injector.failed.update(set(range(self.num_devices)) - set(alive))
            self._snapshot = self._recovery_point()

    def _recover(self, failed_devices: Sequence[int]) -> None:
        """Fail-stop recovery: roll back to the last good snapshot and
        re-shard over the survivors (assumes a snapshot exists — the
        injector path always keeps one)."""
        survivors = [d for d in self.alive if d not in set(failed_devices)]
        if not survivors:
            raise RuntimeError(
                f"all devices failed at batch {self.batches_trained}; "
                f"no survivors to recover onto"
            )
        restore_engine_state(self, replace(self._snapshot, alive=None))
        self.alive = survivors
        self._reshard()

    # ------------------------------------------------------------------
    def _train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """One sharded CLM step under the (optional) fault schedule.

        Fault-free batches go straight through :meth:`_execute_batch`.
        When the injector reports a fail-stop for this batch, the torn
        attempt is discarded at the barrier, recovery restores the last
        snapshot and re-shards the survivors, and the same batch
        re-executes on them — its result carries the recovery
        accounting.
        """
        state: Optional[BatchFaultState] = None
        if self.injector is not None:
            state = self.injector.begin_batch(self.batches_trained)
        result = self._execute_batch(
            view_ids, targets, position_grad_hook, state
        )
        if state is not None and state.new_failures:
            # The barrier has retired every device chain of the torn
            # attempt — this is the detection point.  Discard and recover.
            t0 = time.perf_counter()
            self._recover(state.new_failures)
            result = self._execute_batch(
                view_ids, targets, position_grad_hook, state
            )
            result.recovery_s = time.perf_counter() - t0
            # The snapshot is of the batch before: only the torn one is lost.
            result.lost_batches = 1
            result.failed_devices = len(state.new_failures)
        if self.injector is not None:
            self._snapshot = self._recovery_point()
        return result

    def _execute_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook],
        fault_state: Optional[BatchFaultState] = None,
    ) -> BatchResult:
        """One sharded CLM attempt: plan globally, split, execute per
        device.

        Devices execute sequentially in id order (they are simulated — the
        concurrency lives in the discrete-event schedule), so gradient
        accumulation into the shared stores is deterministic.  All
        optimizer updates run at batch end over per-device *owned* row
        sets: a device's owned rows may receive halo gradient
        contributions from any peer's microbatches, so no owned row is
        final until every device's chain has retired.
        """
        cfg = self.config
        sets = self.cull_views(view_ids)
        cams = [self.cameras[v] for v in view_ids]
        splan = self.planner.plan_sharded(
            sets,
            list(view_ids),
            self.assignment,
            cameras=cams,
            num_gaussians=self.num_gaussians,
            work_stealing=cfg.work_stealing,
        )
        plan = splan.global_plan
        touched = plan.touched
        self.cpu_store.zero_grads(touched)
        self.gpu_store.zero_grads(touched)

        run = _BatchRun(targets, len(view_ids), position_grad_hook)
        loaded = stored = cached = 0
        for dplan in splan.device_plans:
            if not dplan.steps:
                continue
            # A fresh device: its own working buffers, nothing carried in.
            run.working, run.carried = self._new_working_set(), None
            for step in dplan.steps:
                self._run_step(run, step)
            run.working.release()
            counters = run.working.counters
            loaded += counters.loaded_gaussians
            stored += counters.stored_gaussians
            cached += counters.cached_gaussians

        # Batch-end owner updates, one disjoint row set per device.  The
        # non-critical lanes go through the overlap runtime (cpu{k}.adam
        # in the simulated schedule); the critical update runs on each
        # device's resident rows.
        for rows in splan.adam_rows:
            if rows.size:
                self.runtime.submit(self._apply_noncritical_adam, rows)
        for rows in splan.adam_rows:
            self._apply_critical_adam(rows)
        self.runtime.barrier()
        stats = self.runtime.drain_stats()
        self._step_adam_s += stats.task_s
        self._step_overlap_hidden_s += stats.hidden_s

        makespan, device_busy, link_retries = self._simulate_batch(
            splan, fault_state
        )
        return BatchResult(
            loss=run.loss,
            per_view_loss=run.per_view_loss,
            touched_gaussians=int(touched.size),
            order=list(plan.order),
            loaded_gaussians=loaded,
            stored_gaussians=stored,
            cached_gaussians=cached,
            loaded_bytes=attributes.noncritical_bytes(loaded),
            stored_bytes=attributes.noncritical_bytes(stored),
            adam_chunk_sizes=[int(r.size) for r in splan.adam_rows],
            halo_gaussians=splan.halo_gaussians,
            halo_bytes=splan.halo_bytes,
            stolen_microbatches=splan.num_steals,
            sim_makespan_s=makespan,
            device_busy_s=device_busy,
            link_retries=link_retries,
        )

    def _simulate_batch(
        self,
        splan,
        fault_state: Optional[BatchFaultState] = None,
    ) -> "tuple[float, Dict[int, float], int]":
        """Schedule this batch's per-device DAG on the topology and read
        off makespan + per-device compute busy seconds (keyed by real
        device id) + link retransmissions charged by degraded links."""
        sim = Simulator(topology=self.topology)
        costed = self.topology
        compute_scale = None
        retries_before = 0
        if fault_state is not None and self.injector is not None:
            costed = self.injector.degraded_topology(
                self.topology, fault_state
            )
            compute_scale = fault_state.slowdowns or None
            retries_before = self.injector.stats.link_retries
        add_sharded_batch(
            sim,
            self._costs,
            splan,
            costed,
            count_scale=1.0,
            num_pixels=self._num_pixels,
            total_gaussians=float(self.num_gaussians),
            device_ids=self.alive,
            compute_scale=compute_scale,
        )
        schedule = sim.run()
        util = schedule.utilization(self.topology.compute_resources())
        busy = {
            dev: util.busy_s.get(self.topology.compute_resource(dev), 0.0)
            for dev in self.alive
        }
        link_retries = (
            self.injector.stats.link_retries - retries_before
            if self.injector is not None
            else 0
        )
        return schedule.makespan, busy, link_retries

    # ------------------------------------------------------------------
    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        super().rebuild(model, keep_rows)
        self._reshard()
        if self._snapshot is not None:
            # Row counts changed; the old snapshot is unrestorable.
            self._snapshot = self._recovery_point()
