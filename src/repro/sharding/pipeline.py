"""Per-device task-DAG construction for one sharded batch.

Runs the single-device CLM chain (:func:`repro.core.pipeline
.device_chain`, the one :func:`~repro.core.pipeline.add_clm_batch` uses)
on every device of a :class:`~repro.hardware.specs.DeviceTopology`:
device ``k`` runs its load/forward/backward/store chain on
``gpu{k}.compute`` / ``gpu{k}.comm`` and finishes its owned rows on
``cpu{k}.adam``, with two extra comm tasks per device for the halo
exchange:

- ``HALO_IN`` — before the first forward, device ``k`` pulls the
  critical attributes of the rows it borrows from each owning peer,
  costed per-link via :meth:`DeviceTopology.transfer_time`;
- ``HALO_OUT`` — after the last backward, it returns the accumulated
  critical gradients the same way.

Owner optimizers (``GADAM`` for critical attributes on the device,
``ADAM`` for non-critical rows on its host lane) therefore depend on
every peer's ``HALO_OUT`` that carries gradients for rows they own —
the cross-device synchronization point of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import attributes
from repro.core.pipeline import LOAD_PRIORITY, STORE_PRIORITY, device_chain
from repro.hardware.kernels import KernelCostModel
from repro.hardware.simulator import Simulator
from repro.hardware.specs import DeviceTopology
from repro.sharding.plan import ShardedBatchPlan


@dataclass
class ShardedBatchEndpoints:
    """Task ids later batches (and metrics) chain from."""

    first_task: int
    #: Per-device final GPU-side task (GADAM), keyed by device id.
    last_compute: Dict[int, int] = field(default_factory=dict)
    #: Per-device final CPU-Adam task, keyed by device id.
    last_adam: Dict[int, int] = field(default_factory=dict)
    barrier: List[int] = field(default_factory=list)


def _halo_transfer_time(
    topology: DeviceTopology,
    peer_counts: np.ndarray,
    device: int,
    count_scale: float,
    inbound: bool,
    device_ids: Sequence[int],
) -> float:
    """Serialized link time of one halo direction for shard ``device``.

    ``device_ids`` maps shard index -> topology device id, so surviving
    shards cost their exchange on the links they actually occupy after an
    elastic re-shard (shard ids stay dense, device ids need not).
    """
    total = 0.0
    for peer, count in enumerate(peer_counts):
        if peer == device or count == 0:
            continue
        num_bytes = attributes.critical_bytes(float(count) * count_scale)
        src, dst = (peer, device) if inbound else (device, peer)
        total += topology.transfer_time(
            device_ids[src], device_ids[dst], num_bytes, scattered=True
        )
    return total


def add_sharded_batch(
    sim: Simulator,
    costs: KernelCostModel,
    splan: ShardedBatchPlan,
    topology: DeviceTopology,
    count_scale: float,
    num_pixels: int,
    total_gaussians: float,
    deps: Sequence[int] = (),
    batch_tag: str = "",
    device_ids: Optional[Sequence[int]] = None,
) -> ShardedBatchEndpoints:
    """Add one sharded CLM batch to ``sim``, task-for-step from the
    per-device plans of ``splan``.

    ``device_ids`` maps shard index -> topology device id (identity by
    default); after a fail-stop the surviving shards stay dense while the
    device ids they run on need not be.
    """
    if device_ids is None:
        device_ids = list(range(splan.num_devices))
    if len(device_ids) < splan.num_devices:
        raise ValueError(
            f"{len(device_ids)} device ids < plan's {splan.num_devices} "
            f"shards"
        )
    for dev in device_ids:
        if not 0 <= dev < topology.num_devices:
            raise ValueError(
                f"device id {dev} out of range for topology "
                f"'{topology.name}' ({topology.num_devices} devices)"
            )
    owner = splan.assignment.owner
    k_devices = splan.num_devices

    sched_cost = (
        costs.tsp_schedule_time(splan.global_plan.batch_size)
        if splan.global_plan.strategy in ("tsp", "gs_count")
        else 20e-6
    )
    sched = sim.add(
        f"SCHED{batch_tag}",
        DeviceTopology.SCHED_RESOURCE,
        sched_cost,
        deps=deps,
        kind="sched",
    )

    # Rows borrowed *from* each device: halo_out[j] carries gradients for
    # rows owned by the devices in this count vector.
    out_counts = [
        np.bincount(owner[splan.halo[j]], minlength=k_devices)
        for j in range(k_devices)
    ]
    halo_out_ids: Dict[int, Optional[int]] = {}

    #: Shard index -> its chain's final (BWD, ST) task ids.
    per_device: Dict[int, Tuple[int, int]] = {}
    for k, plan in enumerate(splan.device_plans):
        if not plan.steps:
            continue
        dev = device_ids[k]
        compute_res = topology.compute_resource(dev)
        comm_res = topology.comm_resource(dev)

        cull = sim.add(
            f"CULL{batch_tag}.d{k}",
            compute_res,
            len(plan.steps) * costs.cull_time(total_gaussians),
            deps=deps,
            kind="cull",
        )
        halo_in: Optional[int] = None
        if splan.halo[k].size:
            in_counts = np.bincount(owner[splan.halo[k]], minlength=k_devices)
            halo_bytes = attributes.critical_bytes(
                float(splan.halo[k].size) * count_scale
            )
            halo_in = sim.add(
                f"HALO_IN{batch_tag}.d{k}",
                comm_res,
                _halo_transfer_time(
                    topology, in_counts, k, count_scale, inbound=True,
                    device_ids=device_ids,
                ),
                deps=[sched, cull],
                priority=LOAD_PRIORITY,
                kind="halo",
                rx_bytes=halo_bytes,
            )

        # The chain has no per-step tasks of ours to interleave (owner
        # Adam waits for every peer's HALO_OUT): only its ends matter.
        *_, (last_bwd, last_store) = device_chain(
            sim,
            costs,
            plan.steps,
            count_scale,
            num_pixels,
            compute=compute_res,
            comm=comm_res,
            tag=f"{batch_tag}.d{k}",
            load_deps=[sched, cull],
            first_forward_deps=[halo_in] if halo_in is not None else (),
        )

        halo_out: Optional[int] = None
        if splan.halo[k].size:
            halo_out = sim.add(
                f"HALO_OUT{batch_tag}.d{k}",
                comm_res,
                _halo_transfer_time(
                    topology, out_counts[k], k, count_scale, inbound=False,
                    device_ids=device_ids,
                ),
                deps=[last_bwd],
                priority=STORE_PRIORITY,
                kind="halo",
                tx_bytes=attributes.critical_bytes(
                    float(splan.halo[k].size) * count_scale
                ),
            )
        halo_out_ids[k] = halo_out
        per_device[k] = (last_bwd, last_store)

    endpoints = ShardedBatchEndpoints(first_task=sched)
    for k, (last_bwd, last_store) in per_device.items():
        # Peers whose HALO_OUT carries gradients for rows device k owns.
        grad_deps = [
            halo_out_ids[j]
            for j in per_device
            if j != k
            and halo_out_ids.get(j) is not None
            and out_counts[j][k] > 0
        ]
        dev = device_ids[k]
        n_owned = float(splan.adam_rows[k].size) * count_scale
        gadam = sim.add(
            f"GADAM{batch_tag}.d{k}",
            topology.compute_resource(dev),
            costs.gpu_adam_time(n_owned),
            deps=[last_bwd] + grad_deps,
            kind="gpu_adam",
        )
        adam = sim.add(
            f"ADAM{batch_tag}.d{k}",
            topology.adam_resource(dev),
            costs.cpu_adam_sparse_time(n_owned),
            deps=[last_store] + grad_deps,
            kind="adam",
            batch=batch_tag,
        )
        endpoints.last_compute[k] = gadam
        endpoints.last_adam[k] = adam
        endpoints.barrier.extend([gadam, adam])
    if not per_device:  # degenerate: empty batch
        endpoints.barrier.append(sched)
    return endpoints
