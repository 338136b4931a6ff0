"""Timed experiment runner: simulate training on the paper's testbeds.

Connects the pieces: a scaled synthetic scene supplies measured in-frustum
index sets; the :class:`repro.planning.BatchPlanner` turns each sampled
batch into a :class:`~repro.planning.BatchPlan` — the same plan object the
functional CLM engine executes; the pipeline builders emit the task DAG at
*paper-scale* counts (``count_scale`` multiplies every set size, DESIGN.md
§5); the simulator schedules it; the metrics module reads off throughput,
communication volume, runtime decomposition, GPU idle CDFs, Adam trailing
time and hardware utilization — i.e. everything Figures 11-15 and Tables
5/7 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import TimingConfig
from repro.core.culling_index import CullingIndex
from repro.core.pipeline import add_clm_batch, add_gpu_only_batch, add_naive_batch
from repro.hardware.kernels import KernelCostModel
from repro.hardware.metrics import (
    HardwareUtilization,
    adam_trailing_time,
    communication_volume,
    gpu_idle_rate_cdf,
    hardware_utilization,
    runtime_decomposition,
)
from repro.hardware.simulator import ScheduleResult, Simulator
from repro.planning.plan import BatchPlan
from repro.planning.planner import BatchPlanner
from repro.scenes.datasets import Scene
from repro.utils.rng import make_rng

SYSTEM_NAMES = ("baseline", "enhanced", "naive", "clm")


@dataclass
class TimedRunResult:
    """Everything measured from one simulated training run."""

    system: str
    scene: str
    testbed: str
    paper_num_gaussians: float
    num_batches: int
    batch_size: int
    schedule: ScheduleResult
    images_per_second: float
    load_bytes_per_batch: float
    store_bytes_per_batch: float
    decomposition: Dict[str, float]
    utilization: HardwareUtilization
    adam_trailing_s: float

    def idle_cdf(self, sample_rate_hz: float = 10_000.0):
        return gpu_idle_rate_cdf(self.schedule, sample_rate_hz)


def _sample_batches(
    index: CullingIndex, batch_size: int, num_batches: int, rng
) -> List[List[int]]:
    """Random without-replacement batch sampling, reshuffling per epoch —
    the standard trainer behaviour the ordering ablation perturbs."""
    ids = list(index.view_ids())
    if len(ids) < batch_size:
        raise ValueError(
            f"scene has {len(ids)} views < batch size {batch_size}"
        )
    batches: List[List[int]] = []
    pool: List[int] = []
    while len(batches) < num_batches:
        if len(pool) < batch_size:
            pool = list(rng.permutation(ids))
        batches.append([int(pool.pop()) for _ in range(batch_size)])
    return batches


def _paper_num_gaussians(scene: Scene, config: TimingConfig) -> float:
    if config.paper_num_gaussians is not None:
        return config.paper_num_gaussians
    return float(scene.spec.paper_num_gaussians)


class TimedSetup:
    """What every simulated run derives from ``(scene, index, config)``
    before it schedules anything: paper-scale counts, the cost model, the
    sampled batches and the planner.  One RNG seeded from ``config.seed``
    samples the batches and then feeds the planner, so every driver built
    on this draws the same sequence."""

    def __init__(
        self, scene: Scene, index: CullingIndex, config: TimingConfig
    ) -> None:
        if config.num_batches < 1:
            raise ValueError(
                f"num_batches must be at least 1, got {config.num_batches}"
            )
        self.index = index
        self.paper_num_gaussians = _paper_num_gaussians(scene, config)
        self.batch_size = config.batch_size or scene.spec.batch_size
        #: Multiplies every measured set size up to paper scale.
        self.count_scale = self.paper_num_gaussians / index.num_gaussians
        self.costs = KernelCostModel(
            config.testbed, splats_per_pixel=scene.spec.splats_per_pixel
        )
        rng = make_rng(config.seed)
        #: The sampled batches, each a list of view ids.
        self.batches = _sample_batches(
            index, self.batch_size, config.num_batches, rng
        )
        # A simulated run repeats exactly: above ``tsp_order.UNTIMED_NODES``
        # views a wall-clock budget would let the host's speed decide how
        # many restarts the order search gets, so it gets none past the
        # first (which always runs to convergence).
        self.planner = BatchPlanner(
            ordering=config.ordering,
            enable_cache=config.enable_cache,
            seed=rng,
            tsp_time_limit_s=0.0,
        )
        self.cameras = {c.view_id: c for c in scene.cameras}

    def plan(self, view_ids: Sequence[int]) -> BatchPlan:
        """The :class:`BatchPlan` of one sampled batch."""
        return self.planner.plan(
            self.index.sets_for(view_ids),
            view_ids,
            cameras=[self.cameras[v] for v in view_ids],
            num_gaussians=self.index.num_gaussians,
        )


def run_timed(
    system: str,
    scene: Scene,
    index: Optional[CullingIndex] = None,
    config: Optional[TimingConfig] = None,
) -> TimedRunResult:
    """Simulate ``num_batches`` of training and collect metrics."""
    config = config or TimingConfig()
    if system not in SYSTEM_NAMES:
        raise ValueError(f"unknown system '{system}'; choose from {SYSTEM_NAMES}")
    if index is None:
        index = CullingIndex.build(scene.model, scene.cameras)

    setup = TimedSetup(scene, index, config)
    paper_n, count_scale = setup.paper_num_gaussians, setup.count_scale
    costs, batches = setup.costs, setup.batches
    pixels = scene.spec.paper_pixels

    sim = Simulator()
    deps: Sequence[int] = ()
    total_loads = 0
    total_stores = 0
    prev_cpu_adam = None
    prev_final_chunk = None
    for b, view_ids in enumerate(batches):
        if system == "clm":
            plan = setup.plan(view_ids)
            # Cross-batch pipelining: only the loads whose rows are still
            # pending in the previous batch's final Adam chunk must wait.
            blocked = None
            if prev_final_chunk is not None and prev_final_chunk.size:
                blocked = [
                    float(np.intersect1d(
                        s.loads, prev_final_chunk, assume_unique=True
                    ).size)
                    for s in plan.steps
                ]
            endpoints = add_clm_batch(
                sim,
                costs,
                plan,
                count_scale,
                pixels,
                paper_n,
                deps=deps,
                enable_overlap_adam=config.enable_overlap_adam,
                batch_tag=f".b{b}",
                prev_cpu_adam=prev_cpu_adam,
                blocked_load_counts=blocked,
            )
            total_loads += plan.total_loads
            total_stores += plan.total_stores
            prev_cpu_adam = endpoints.last_adam
            prev_final_chunk = plan.adam_chunks[-1]
            deps = [endpoints.last_compute]
            continue
        sets = index.sets_for(view_ids)
        if system == "naive":
            endpoints = add_naive_batch(
                sim,
                costs,
                [s.size for s in sets],
                count_scale,
                pixels,
                paper_n,
                deps=deps,
                batch_tag=f".b{b}",
            )
        else:
            endpoints = add_gpu_only_batch(
                sim,
                costs,
                [s.size for s in sets],
                count_scale,
                pixels,
                paper_n,
                enhanced=(system == "enhanced"),
                deps=deps,
                batch_tag=f".b{b}",
            )
        deps = endpoints.barrier

    schedule = sim.run()
    volumes = communication_volume(schedule)
    total_images = sum(len(b) for b in batches)
    decomposition = runtime_decomposition(schedule)
    util = hardware_utilization(schedule, config.testbed)

    if system == "clm":
        load_bytes = costs.load_bytes(total_loads * count_scale) / len(batches)
        store_bytes = costs.store_bytes(total_stores * count_scale) / len(batches)
    elif system == "naive":
        load_bytes = costs.load_all_bytes(paper_n)
        store_bytes = costs.load_all_bytes(paper_n)
    else:
        load_bytes = 0.0
        store_bytes = 0.0

    return TimedRunResult(
        system=system,
        scene=scene.name,
        testbed=config.testbed.name,
        paper_num_gaussians=paper_n,
        num_batches=len(batches),
        batch_size=setup.batch_size,
        schedule=schedule,
        images_per_second=total_images / schedule.makespan,
        load_bytes_per_batch=load_bytes,
        store_bytes_per_batch=store_bytes,
        decomposition=decomposition,
        utilization=util,
        adam_trailing_s=adam_trailing_time(schedule),
    )


def communication_volume_per_batch(
    scene: Scene,
    index: CullingIndex,
    config: TimingConfig,
    system: str = "clm",
) -> float:
    """Average CPU->GPU *parameter* bytes per batch (the Figure 14 metric).

    ``system='naive'`` reports the whole-model volume; for CLM the
    ordering/caching settings of ``config`` select the ablation variant.
    """
    if system == "naive":
        return KernelCostModel(config.testbed).load_all_bytes(
            _paper_num_gaussians(scene, config)
        )
    setup = TimedSetup(scene, index, config)
    loads = sum(setup.plan(view_ids).total_loads for view_ids in setup.batches)
    return setup.costs.load_bytes(loads * setup.count_scale) / len(
        setup.batches
    )
