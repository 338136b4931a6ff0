"""Simulated multi-device scaling runs (the ``sharding`` benchmark).

Mirrors :func:`repro.core.timed.run_timed` for the sharded pipeline: the
same batch sampler and planner produce global plans, which are split
across a homogeneous :class:`~repro.hardware.specs.DeviceTopology` and
scheduled as per-device task DAGs at paper-scale counts.  The result
carries the 1→K scaling quantities ROADMAP item 2 asks for: makespan,
images/s, per-device utilization, halo traffic, and steal counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.config import TimingConfig
from repro.core.culling_index import CullingIndex
from repro.core.timed import TimedSetup
from repro.hardware.simulator import ScheduleResult, Simulator
from repro.hardware.specs import DeviceTopology
from repro.scenes.datasets import Scene
from repro.sharding.partition import spatial_shard
from repro.sharding.pipeline import add_sharded_batch
from repro.sharding.plan import build_sharded_plan


@dataclass
class ShardedTimedResult:
    """Everything measured from one simulated sharded run."""

    scene: str
    testbed: str
    num_devices: int
    paper_num_gaussians: float
    num_batches: int
    batch_size: int
    schedule: ScheduleResult
    images_per_second: float
    #: Busy fraction of each ``gpu{k}.compute``, keyed by device id.
    device_utilization: Dict[int, float]
    halo_gaussians_per_batch: float
    halo_bytes_per_batch: float
    total_steals: int

    @property
    def makespan_s(self) -> float:
        return self.schedule.makespan

    @property
    def mean_device_utilization(self) -> float:
        if not self.device_utilization:
            return 0.0
        return sum(self.device_utilization.values()) / len(
            self.device_utilization
        )


def run_sharded_timed(
    scene: Scene,
    index: Optional[CullingIndex] = None,
    config: Optional[TimingConfig] = None,
    num_devices: int = 1,
    work_stealing: bool = True,
) -> ShardedTimedResult:
    """Simulate ``num_batches`` of sharded training on K devices."""
    config = config or TimingConfig()
    if index is None:
        index = CullingIndex.build(scene.model, scene.cameras)

    setup = TimedSetup(scene, index, config)
    paper_n = setup.paper_num_gaussians
    batches = setup.batches
    topology = DeviceTopology.homogeneous(config.testbed, num_devices)
    assignment = spatial_shard(
        scene.model.positions,
        scene.model.log_scales,
        scene.model.quaternions,
        num_devices,
    )

    sim = Simulator(topology=topology)
    deps: Sequence[int] = ()
    halo_gaussians = 0
    halo_bytes = 0.0
    steals = 0
    for b, view_ids in enumerate(batches):
        splan = build_sharded_plan(
            setup.plan(view_ids), assignment, work_stealing=work_stealing
        )
        endpoints = add_sharded_batch(
            sim,
            setup.costs,
            splan,
            topology,
            setup.count_scale,
            scene.spec.paper_pixels,
            paper_n,
            deps=deps,
            batch_tag=f".b{b}",
        )
        halo_gaussians += splan.halo_gaussians
        halo_bytes += splan.halo_bytes * setup.count_scale
        steals += splan.num_steals
        deps = endpoints.barrier

    schedule = sim.run()
    util = schedule.utilization(topology.compute_resources())
    total_images = sum(len(b) for b in batches)
    return ShardedTimedResult(
        scene=scene.name,
        testbed=config.testbed.name,
        num_devices=num_devices,
        paper_num_gaussians=paper_n,
        num_batches=len(batches),
        batch_size=setup.batch_size,
        schedule=schedule,
        images_per_second=total_images / schedule.makespan,
        device_utilization={
            k: util.fraction(topology.compute_resource(k))
            for k in range(num_devices)
        },
        halo_gaussians_per_batch=halo_gaussians / len(batches),
        halo_bytes_per_batch=halo_bytes / len(batches),
        total_steals=steals,
    )
