"""Microbatch pipeline DAG construction (paper Figure 6, §5.3).

Builds the task graphs the discrete-event simulator executes:

- :func:`add_clm_batch` — CLM's pipelined batch, built from the *same*
  :class:`repro.planning.BatchPlan` the functional engine executes (so
  simulated and functional transfer volumes reconcile by construction):
  a scheduling task (TSP + culling), selective loads and gradient stores
  on the prioritized communication stream, forward/backward on the
  compute stream, eager CPU Adam chunks on the CPU thread, and a
  GPU-side Adam for the resident critical attributes.  Double buffering
  is encoded as ``LD_i`` depending on ``BWD_{i-2}`` (the buffer being
  overwritten must have been fully consumed); 1F1B interleaving on the
  single comm stream emerges from dependencies + the load-over-store
  priority (prefetch params, postpone gradient offload — §5.3).
- :func:`add_naive_batch` — Figure 3: bulk load, sequential per-image
  compute, bulk store, dense CPU Adam; nothing overlaps.
- :func:`add_gpu_only_batch` — the baselines: pure compute, with either
  fused culling (all N enter every kernel) or pre-rendering culling.

All builders return the task ids that the *next* batch must wait on, so a
multi-batch simulation chains steady-state batches correctly (the next
batch's culling needs all parameters updated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.hardware.kernels import KernelCostModel
from repro.hardware.metrics import CPU_ADAM, CPU_SCHED, GPU_COMM, GPU_COMPUTE
from repro.hardware.simulator import Simulator
from repro.planning.caching import MicrobatchStep
from repro.planning.plan import BatchPlan

LOAD_PRIORITY = 2  # prefetch parameters first ...
STORE_PRIORITY = 1  # ... postpone gradient offloading (§5.3)


@dataclass
class BatchEndpoints:
    """Task ids later batches (and metrics) care about."""

    first_task: int
    last_compute: int
    last_comm: Optional[int]
    last_adam: Optional[int]
    barrier: List[int] = field(default_factory=list)  # deps for next batch


def device_chain(
    sim: Simulator,
    costs: KernelCostModel,
    steps: Sequence[MicrobatchStep],
    count_scale: float,
    num_pixels: int,
    compute: str,
    comm: str,
    tag: str,
    load_deps: Sequence[int],
    first_forward_deps: Sequence[int] = (),
    prev_cpu_adam: Optional[int] = None,
    blocked_load_counts: Optional[Sequence[float]] = None,
) -> Iterator[Tuple[int, int]]:
    """One device's LD -> FWD -> BWD -> ST chain (Figure 6), one group of
    tasks per microbatch of ``steps`` on the ``compute`` / ``comm``
    streams; yields each step's ``(BWD, ST)`` task ids.

    Lazy on purpose: a step's tasks are added when the caller advances,
    so a caller can hang its own tasks off ``ST`` (CLM's eager Adam)
    before the next step's and task ids stay in pipeline order.

    Double buffering is ``LD_i`` depending on ``BWD_{i-2}`` (the buffer
    being overwritten must have been fully consumed).  ``first_forward_deps``
    gate the first forward (the sharded halo import); with
    ``prev_cpu_adam``, ``blocked_load_counts[i]`` rows of load ``i`` also
    wait for that task (cross-batch pipelining).
    """
    bw = costs.testbed.gpu.dram_bandwidth
    bwds: List[int] = []
    for i, step in enumerate(steps):
        n_load = step.num_loads * count_scale
        n_cached = step.cached.size * count_scale
        n_work = step.working_set.size * count_scale
        n_store = step.num_stores * count_scale
        n_blocked = 0.0
        if prev_cpu_adam is not None and blocked_load_counts is not None:
            n_blocked = min(blocked_load_counts[i] * count_scale, n_load)
        n_free = n_load - n_blocked

        ld_deps = list(load_deps)
        if i >= 2:
            ld_deps.append(bwds[i - 2])  # double buffer reuse
        fwd_deps = [
            sim.add(
                f"LD{tag}.{i}",
                comm,
                costs.load_params_time(n_free)
                + costs.cache_copy_time(n_cached),
                deps=ld_deps,
                priority=LOAD_PRIORITY,
                kind="load",
                rx_bytes=costs.load_bytes(n_free),
                dram_write_bytes=costs.load_bytes(n_free + n_cached),
            )
        ]
        if n_blocked > 0:
            fwd_deps.append(
                sim.add(
                    f"LDB{tag}.{i}",
                    comm,
                    costs.load_params_time(n_blocked),
                    deps=ld_deps + [prev_cpu_adam],
                    priority=LOAD_PRIORITY,
                    kind="load",
                    rx_bytes=costs.load_bytes(n_blocked),
                    dram_write_bytes=costs.load_bytes(n_blocked),
                )
            )
        if i == 0:
            fwd_deps.extend(first_forward_deps)
        else:
            fwd_deps.append(bwds[-1])
        fwd_time = costs.forward_time(n_work, num_pixels)
        bwd_time = costs.backward_time(n_work, num_pixels)
        fwd = sim.add(
            f"FWD{tag}.{i}",
            compute,
            fwd_time + costs.pipeline_sync_overhead,
            deps=fwd_deps,
            kind="forward",
            # Rasterization kernels sustain ~1/3 of DRAM bandwidth
            # (read-heavy), calibrated against Table 7's DRAM rows.
            dram_read_bytes=0.25 * fwd_time * bw,
            dram_write_bytes=0.12 * fwd_time * bw,
        )
        bwd = sim.add(
            f"BWD{tag}.{i}",
            compute,
            bwd_time,
            deps=[fwd],
            kind="backward",
            dram_read_bytes=0.25 * bwd_time * bw,
            dram_write_bytes=0.12 * bwd_time * bw,
        )
        bwds.append(bwd)
        st = sim.add(
            f"ST{tag}.{i}",
            comm,
            costs.store_grads_time(n_store),
            deps=[bwd],
            priority=STORE_PRIORITY,
            kind="store",
            tx_bytes=costs.store_bytes(n_store),
            # Accumulating offload reads old gradients back (§5.3).
            rx_bytes=costs.store_bytes(n_store),
        )
        yield bwd, st


def add_clm_batch(
    sim: Simulator,
    costs: KernelCostModel,
    plan: BatchPlan,
    count_scale: float,
    num_pixels: int,
    total_gaussians: float,
    deps: Sequence[int] = (),
    enable_overlap_adam: bool = True,
    batch_tag: str = "",
    prev_cpu_adam: Optional[int] = None,
    blocked_load_counts: Optional[Sequence[float]] = None,
) -> BatchEndpoints:
    """Add one CLM training batch to the simulator, task-for-step from
    ``plan`` — the very :class:`~repro.planning.BatchPlan` the functional
    engine would execute.

    ``prev_cpu_adam`` / ``blocked_load_counts`` implement cross-batch
    pipelining (Figure 6's "Next Batch" under "Adam Finished"): the portion
    of each load whose rows are still pending in the previous batch's final
    CPU-Adam chunk waits for it; the rest starts as soon as culling is done,
    overlapping the previous batch's tail.
    """
    adam_chunk_counts = plan.adam_chunk_sizes
    batch = len(plan.steps)
    if blocked_load_counts is not None and len(blocked_load_counts) != batch:
        raise ValueError("one blocked-load count per microbatch required")

    # Scheduling: frustum culling for the batch (GPU) + order optimization
    # (CPU).  The visibility-aware orders pay the TSP/sort cost (Table 4).
    sched_cost = (
        costs.tsp_schedule_time(batch)
        if plan.strategy in ("tsp", "gs_count")
        else 20e-6
    )
    sched = sim.add(
        f"SCHED{batch_tag}", CPU_SCHED, sched_cost, deps=deps, kind="sched"
    )
    cull = sim.add(
        f"CULL{batch_tag}",
        GPU_COMPUTE,
        batch * costs.cull_time(total_gaussians),
        deps=deps,
        kind="cull",
    )

    adams: List[int] = []
    chain = device_chain(
        sim,
        costs,
        plan.steps,
        count_scale,
        num_pixels,
        compute=GPU_COMPUTE,
        comm=GPU_COMM,
        tag=batch_tag,
        load_deps=[sched, cull],
        prev_cpu_adam=prev_cpu_adam,
        blocked_load_counts=blocked_load_counts,
    )
    for i, (last_bwd, last_store) in enumerate(chain):
        if enable_overlap_adam:
            adams.append(
                sim.add(
                    f"ADAM{batch_tag}.{i}",
                    CPU_ADAM,
                    costs.cpu_adam_sparse_time(
                        adam_chunk_counts[i] * count_scale
                    ),
                    deps=[last_store] + adams[-1:],
                    kind="adam",
                    batch=batch_tag,
                )
            )

    touched = sum(adam_chunk_counts) * count_scale
    if not enable_overlap_adam:
        adams.append(
            sim.add(
                f"ADAM{batch_tag}.all",
                CPU_ADAM,
                costs.cpu_adam_sparse_time(touched),
                deps=[last_store],
                kind="adam",
                batch=batch_tag,
            )
        )
    gpu_adam = sim.add(
        f"GADAM{batch_tag}",
        GPU_COMPUTE,
        costs.gpu_adam_time(touched),
        deps=[last_bwd],
        kind="gpu_adam",
    )
    return BatchEndpoints(
        first_task=sched,
        last_compute=gpu_adam,
        last_comm=last_store,
        last_adam=adams[-1] if adams else None,
        barrier=[gpu_adam] + adams[-1:],
    )


def add_naive_batch(
    sim: Simulator,
    costs: KernelCostModel,
    working_counts: Sequence[float],
    count_scale: float,
    num_pixels: int,
    total_gaussians: float,
    deps: Sequence[int] = (),
    batch_tag: str = "",
) -> BatchEndpoints:
    """Figure 3: LD all -> compute batch -> ST all -> dense CPU Adam."""
    ld = sim.add(
        f"LDALL{batch_tag}",
        GPU_COMM,
        costs.load_all_params_time(total_gaussians),
        deps=deps,
        kind="load",
        rx_bytes=costs.load_all_bytes(total_gaussians),
    )
    prev = ld
    cull = sim.add(
        f"CULL{batch_tag}",
        GPU_COMPUTE,
        len(working_counts) * costs.cull_time(total_gaussians),
        deps=[ld],
        kind="cull",
    )
    prev = cull
    bw = costs.testbed.gpu.dram_bandwidth
    for i, count in enumerate(working_counts):
        n_work = count * count_scale
        fwd_time = costs.forward_time(n_work, num_pixels)
        bwd_time = costs.backward_time(n_work, num_pixels)
        fwd = sim.add(
            f"FWD{batch_tag}.{i}",
            GPU_COMPUTE,
            fwd_time,
            deps=[prev],
            kind="forward",
            dram_read_bytes=0.25 * fwd_time * bw,
            dram_write_bytes=0.12 * fwd_time * bw,
        )
        prev = sim.add(
            f"BWD{batch_tag}.{i}",
            GPU_COMPUTE,
            bwd_time,
            deps=[fwd],
            kind="backward",
            dram_read_bytes=0.25 * bwd_time * bw,
            dram_write_bytes=0.12 * bwd_time * bw,
        )
    st = sim.add(
        f"STALL{batch_tag}",
        GPU_COMM,
        costs.store_all_grads_time(total_gaussians),
        deps=[prev],
        kind="store",
        tx_bytes=costs.load_all_bytes(total_gaussians),
    )
    adam = sim.add(
        f"ADAM{batch_tag}",
        CPU_ADAM,
        costs.cpu_adam_dense_time(total_gaussians),
        deps=[st],
        kind="adam",
        batch=batch_tag,
    )
    return BatchEndpoints(
        first_task=ld,
        last_compute=prev,
        last_comm=st,
        last_adam=adam,
        barrier=[adam],
    )


def add_gpu_only_batch(
    sim: Simulator,
    costs: KernelCostModel,
    working_counts: Sequence[float],
    count_scale: float,
    num_pixels: int,
    total_gaussians: float,
    enhanced: bool,
    deps: Sequence[int] = (),
    batch_tag: str = "",
) -> BatchEndpoints:
    """GPU-only baselines: sequential per-image compute, on-GPU Adam."""
    prev: Optional[int] = None
    first: Optional[int] = None
    if enhanced:
        prev = sim.add(
            f"CULL{batch_tag}",
            GPU_COMPUTE,
            len(working_counts) * costs.cull_time(total_gaussians),
            deps=deps,
            kind="cull",
        )
        first = prev
    for i, count in enumerate(working_counts):
        if enhanced:
            n_in = count * count_scale
            fwd_time = costs.forward_time(n_in, num_pixels)
            bwd_time = costs.backward_time(n_in, num_pixels)
        else:
            fwd_time = costs.fused_forward_time(total_gaussians, num_pixels)
            bwd_time = costs.fused_backward_time(total_gaussians, num_pixels)
        fwd = sim.add(
            f"FWD{batch_tag}.{i}",
            GPU_COMPUTE,
            fwd_time,
            deps=[prev] if prev is not None else deps,
            kind="forward",
        )
        if first is None:
            first = fwd
        prev = sim.add(
            f"BWD{batch_tag}.{i}",
            GPU_COMPUTE,
            bwd_time,
            deps=[fwd],
            kind="backward",
        )
    adam = sim.add(
        f"GADAM{batch_tag}",
        GPU_COMPUTE,
        costs.gpu_adam_time(total_gaussians * 59.0 / 10.0),
        deps=[prev],
        kind="gpu_adam",
    )
    assert first is not None
    return BatchEndpoints(
        first_task=first,
        last_compute=adam,
        last_comm=None,
        last_adam=None,
        barrier=[adam],
    )
