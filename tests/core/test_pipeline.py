"""Pipeline DAG construction (Figure 6): overlap and ordering properties."""

import numpy as np
import pytest

from repro.core.pipeline import (
    add_clm_batch,
    add_gpu_only_batch,
    add_naive_batch,
)
from repro.hardware.kernels import KernelCostModel
from repro.hardware.metrics import GPU_COMM
from repro.hardware.simulator import Simulator
from repro.hardware.specs import RTX4090_TESTBED
from repro.planning import BatchPlanner


@pytest.fixture()
def costs():
    return KernelCostModel(RTX4090_TESTBED, splats_per_pixel=3.0)


def simple_plan(batch=4, size=1000, overlap=500):
    """An identity-order plan over a chain of half-overlapping sets."""
    sets = []
    start = 0
    for _ in range(batch):
        sets.append(np.arange(start, start + size, dtype=np.int64))
        start += size - overlap
    planner = BatchPlanner(ordering="identity")
    return planner.plan(
        sets, list(range(batch)), num_gaussians=int(sets[-1][-1]) + 1
    )


def build_clm(costs, batch=4, count_scale=1e4, **kwargs):
    sim = Simulator()
    plan = simple_plan(batch)
    endpoints = add_clm_batch(
        sim, costs, plan, count_scale, 2_000_000, 15e6, **kwargs,
    )
    return sim, sim.run(), endpoints


class TestClmBatch:
    def test_all_tasks_scheduled(self, costs):
        sim, result, _ = build_clm(costs)
        assert len(result.records) == sim.num_tasks

    def test_loads_overlap_compute(self, costs):
        """LD_{i+1} must run during FWD/BWD_i — the core of Figure 6."""
        _, result, _ = build_clm(costs)
        loads = result.tasks_of_kind("load")
        fwds = result.tasks_of_kind("forward")
        # The second load should start before the first backward finishes.
        bwds = result.tasks_of_kind("backward")
        assert loads[1].start < bwds[0].end

    def test_makespan_below_serial_sum(self, costs):
        _, result, _ = build_clm(costs)
        serial = sum(r.end - r.start for r in result.records.values())
        assert result.makespan < serial

    def test_store_waits_for_backward(self, costs):
        _, result, _ = build_clm(costs)
        stores = result.tasks_of_kind("store")
        bwds = result.tasks_of_kind("backward")
        for st, bwd in zip(stores, bwds):
            assert st.start >= bwd.end - 1e-12

    def test_adam_chunks_serialized_on_thread(self, costs):
        _, result, _ = build_clm(costs)
        adams = result.tasks_of_kind("adam")
        for a, b in zip(adams, adams[1:]):
            assert b.start >= a.end - 1e-12

    def test_overlap_adam_starts_earlier_than_batch_end_adam(self, costs):
        """§4.2.2: eager chunks begin before a batch-end Adam would, and
        the overlapped variant finishes its CPU work no later."""
        _, overlapped, _ = build_clm(costs, enable_overlap_adam=True)
        _, at_end, _ = build_clm(costs, enable_overlap_adam=False)
        first_eager = overlapped.tasks_of_kind("adam")[0].start
        single = at_end.tasks_of_kind("adam")[0]
        assert first_eager < single.start
        last_eager = overlapped.tasks_of_kind("adam")[-1].end
        assert last_eager <= single.end + 1e-9

    def test_no_overlap_adam_single_task(self, costs):
        _, result, _ = build_clm(costs, enable_overlap_adam=False)
        assert len(result.tasks_of_kind("adam")) == 1

    def test_comm_stream_serial(self, costs):
        _, result, _ = build_clm(costs)
        intervals = result.intervals(GPU_COMM)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-12

    def test_endpoints_reference_real_tasks(self, costs):
        _, result, endpoints = build_clm(costs)
        assert endpoints.last_adam in result.records
        assert endpoints.last_compute in result.records

    def test_blocked_count_mismatch_rejected(self, costs):
        sim = Simulator()
        plan = simple_plan(3)
        with pytest.raises(ValueError):
            add_clm_batch(sim, costs, plan, 1.0, 100, 1e6,
                          prev_cpu_adam=0, blocked_load_counts=[1.0, 2.0])

    def test_cross_batch_blocked_loads_wait(self, costs):
        """Blocked load fractions must start after the previous batch's
        final Adam chunk."""
        sim = Simulator()
        plan = simple_plan(3)
        first = add_clm_batch(sim, costs, plan, 1e4, 2_000_000, 15e6,
                              batch_tag=".a")
        second = add_clm_batch(
            sim, costs, plan, 1e4, 2_000_000, 15e6,
            batch_tag=".b",
            deps=[first.last_compute],
            prev_cpu_adam=first.last_adam,
            blocked_load_counts=[s.num_loads * 0.5 for s in plan.steps],
        )
        result = sim.run()
        adam_end = result.end_of(first.last_adam)
        blocked = [
            r for r in result.records.values() if r.task.name.startswith("LDB.b")
        ]
        assert blocked, "expected blocked load tasks"
        for rec in blocked:
            assert rec.start >= adam_end - 1e-12
        free = [
            r for r in result.records.values()
            if r.task.name.startswith("LD.b.0")
        ]
        assert free[0].start < adam_end  # overlaps the previous batch tail


class TestNaiveBatch:
    def test_strictly_serial_phases(self, costs):
        """Figure 3: load -> compute -> store -> adam, no overlap."""
        sim = Simulator()
        endpoints = add_naive_batch(
            sim, costs, [1000] * 4, 1e4, 2_000_000, 15e6
        )
        result = sim.run()
        ld = result.tasks_of_kind("load")[0]
        fwds = result.tasks_of_kind("forward")
        st = result.tasks_of_kind("store")[0]
        adam = result.tasks_of_kind("adam")[0]
        assert fwds[0].start >= ld.end - 1e-12
        assert st.start >= result.tasks_of_kind("backward")[-1].end - 1e-12
        assert adam.start >= st.end - 1e-12

    def test_bulk_transfer_bytes(self, costs):
        sim = Simulator()
        add_naive_batch(sim, costs, [1000], 1.0, 2_000_000, 1e6)
        result = sim.run()
        ld = result.tasks_of_kind("load")[0]
        assert ld.task.payload["rx_bytes"] == 1e6 * 59 * 4


class TestGpuOnlyBatch:
    def test_baseline_slower_than_enhanced_low_rho(self, costs):
        """Pre-rendering culling pays off when rho is small (§5.1)."""
        def makespan(enhanced):
            sim = Simulator()
            add_gpu_only_batch(
                sim, costs, [50_000] * 4, 1.0, 2_000_000, 15e6,
                enhanced=enhanced,
            )
            return sim.run().makespan

        assert makespan(enhanced=True) < makespan(enhanced=False)

    def test_no_comm_tasks(self, costs):
        sim = Simulator()
        add_gpu_only_batch(sim, costs, [1000] * 2, 1.0, 2e6, 1e6, enhanced=True)
        result = sim.run()
        assert result.busy_time(GPU_COMM) == 0.0
