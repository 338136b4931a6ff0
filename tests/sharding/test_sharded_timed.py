"""Sharded pipeline DAG + simulated scaling driver."""

import operator

import numpy as np
import pytest

from repro.core.config import TimingConfig
from repro.hardware.kernels import KernelCostModel
from repro.hardware.simulator import Simulator
from repro.hardware.specs import RTX4090_TESTBED, DeviceTopology
from repro.planning.planner import BatchPlanner
from repro.sharding import (
    add_sharded_batch,
    build_sharded_plan,
    run_sharded_timed,
    spatial_shard,
)
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def sharded_batch(index_cache):
    scene, index = index_cache("bicycle")
    ids = list(index.view_ids())[:8]
    cams = {c.view_id: c for c in scene.cameras}
    planner = BatchPlanner(ordering="tsp", enable_cache=True, seed=make_rng(0))
    plan = planner.plan(
        index.sets_for(ids),
        ids,
        cameras=[cams[v] for v in ids],
        num_gaussians=index.num_gaussians,
    )
    assignment = spatial_shard(
        scene.model.positions,
        scene.model.log_scales,
        scene.model.quaternions,
        4,
    )
    return scene, build_sharded_plan(plan, assignment)


def test_tasks_land_on_per_device_resources(sharded_batch):
    scene, splan = sharded_batch
    topology = DeviceTopology.homogeneous(RTX4090_TESTBED, 4)
    sim = Simulator(topology=topology)
    costs = KernelCostModel(RTX4090_TESTBED)
    endpoints = add_sharded_batch(
        sim, costs, splan, topology, 1.0, 10_000, float(splan.assignment.num_rows)
    )
    schedule = sim.run()
    assert endpoints.barrier
    used = set(schedule.resources())
    active = {k for k, p in enumerate(splan.device_plans) if p.steps}
    for k in active:
        assert topology.compute_resource(k) in used
        assert topology.comm_resource(k) in used
        assert topology.adam_resource(k) in used
    assert DeviceTopology.SCHED_RESOURCE in used
    # Halo exchange shows up on the comm streams of haloed devices.
    names = [rec.task.name for rec in schedule.records.values()]
    assert any(n.startswith("HALO_IN") for n in names)
    assert any(n.startswith("HALO_OUT") for n in names)


def test_utilization_covers_every_device(sharded_batch):
    scene, splan = sharded_batch
    topology = DeviceTopology.homogeneous(RTX4090_TESTBED, 4)
    sim = Simulator(topology=topology)
    endpoints = add_sharded_batch(
        sim,
        KernelCostModel(RTX4090_TESTBED),
        splan,
        topology,
        1.0,
        10_000,
        float(splan.assignment.num_rows),
    )
    schedule = sim.run()
    util = schedule.utilization(topology.compute_resources())
    assert util.makespan == schedule.makespan
    for k in range(4):
        assert 0.0 <= util.fraction(topology.compute_resource(k)) <= 1.0


def test_run_sharded_timed_reports_per_device_numbers(index_cache):
    scene, index = index_cache("bicycle")
    cfg = TimingConfig(num_batches=2, batch_size=8)
    r1 = run_sharded_timed(scene, index=index, config=cfg, num_devices=1)
    r4 = run_sharded_timed(scene, index=index, config=cfg, num_devices=4)
    assert r1.num_devices == 1 and r4.num_devices == 4
    assert set(r4.device_utilization) == {0, 1, 2, 3}
    assert r1.halo_gaussians_per_batch == 0
    assert r4.halo_gaussians_per_batch > 0
    assert r4.images_per_second > r1.images_per_second
    assert r4.makespan_s < r1.makespan_s


def test_scaling_curve_is_monotone(index_cache):
    scene, index = index_cache("bicycle")
    cfg = TimingConfig(num_batches=2, batch_size=16)
    curve = [
        run_sharded_timed(scene, index=index, config=cfg, num_devices=k)
        for k in (1, 2, 4)
    ]
    rates = [r.images_per_second for r in curve]
    assert rates == sorted(rates)
    assert all(np.isfinite(rates))


def test_single_device_chain_is_the_clm_chain(index_cache):
    """One device, no halo: ``add_sharded_batch`` schedules the very
    LD/FWD/BWD/ST chain ``add_clm_batch`` does (batch-end Adam on both
    sides) — same tasks, same start and end instants, same makespan."""
    from repro.core.pipeline import add_clm_batch

    scene, index = index_cache("bicycle")
    ids = list(index.view_ids())[:8]
    cams = {c.view_id: c for c in scene.cameras}
    plan = BatchPlanner(ordering="tsp", seed=make_rng(0)).plan(
        index.sets_for(ids), ids, cameras=[cams[v] for v in ids],
        num_gaussians=index.num_gaussians,
    )
    costs = KernelCostModel(RTX4090_TESTBED)
    scale, pixels, total = 250.0, 10_000, 250.0 * index.num_gaussians

    clm_sim = Simulator()
    add_clm_batch(
        clm_sim, costs, plan, scale, pixels, total, enable_overlap_adam=False
    )
    clm = clm_sim.run()

    topology = DeviceTopology.homogeneous(RTX4090_TESTBED, 1)
    assignment = spatial_shard(
        scene.model.positions, scene.model.log_scales,
        scene.model.quaternions, 1,
    )
    sharded_sim = Simulator(topology=topology)
    add_sharded_batch(
        sharded_sim, costs, build_sharded_plan(plan, assignment), topology,
        scale, pixels, total,
    )
    sharded = sharded_sim.run()

    def chain(schedule, infix, of=lambda r: (r.task.duration, r.start, r.end)):
        return {
            rec.task.name.replace(infix, "", 1): of(rec)
            for rec in schedule.records.values()
            if rec.task.kind in ("load", "forward", "backward", "store")
        }

    assert len(chain(clm, "")) == 4 * len(ids)
    assert chain(sharded, ".d0") == chain(clm, "")
    # One resource vocabulary: both builders schedule on device 0's lanes.
    lane = operator.attrgetter("task.resource")
    assert chain(sharded, ".d0", lane) == chain(clm, "", lane)
    assert sharded.makespan == clm.makespan
