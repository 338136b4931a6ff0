"""One BatchPlan drives both execution modes.

The acceptance test of the planning layer: construct a plan, run it
through the functional CLM engine *and* the simulator DAG builder, and
assert identical per-microbatch load/store/cached counts and total
transfer bytes.  Before the refactor the two paths computed their plans
independently and could silently diverge.
"""

import numpy as np
import pytest

from repro.core import attributes
from repro.core.config import EngineConfig
from repro.core.pipeline import add_clm_batch
from repro.engines import CLMEngine
from repro.gaussians.model import GaussianModel
from repro.hardware.kernels import KernelCostModel
from repro.hardware.simulator import Simulator
from repro.hardware.specs import RTX4090_TESTBED

BATCH = [0, 1, 2, 3]


@pytest.fixture(scope="module")
def engine_and_plan(trainable_scene):
    model = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    targets = {
        c.view_id: img
        for c, img in zip(trainable_scene.cameras, trainable_scene.images)
    }
    engine = CLMEngine(
        model, trainable_scene.cameras, EngineConfig(batch_size=4, seed=0)
    )
    plan = engine.plan_batch(BATCH)
    return engine, plan, targets


def test_engine_executes_the_same_plan(engine_and_plan, monkeypatch):
    """train_batch plans its batch once (no cache: one plan built) and
    its functional counters equal the analytics of the plan it executed,
    captured by a spy on ``engine.plan_batch``."""
    engine, _, targets = engine_and_plan
    executed = []

    def spy(*args, **kwargs):
        executed.append(planned(*args, **kwargs))
        return executed[-1]

    planned = engine.plan_batch
    monkeypatch.setattr(engine, "plan_batch", spy)
    built_before = engine.planner.counters.plans_built
    result = engine.train_batch(BATCH, targets)
    assert engine.planner.counters.plans_built == built_before + 1
    assert engine.planner.counters.cache_hits == 0
    (plan,) = executed

    assert result.order == list(plan.order)
    assert result.loaded_gaussians == plan.total_loads
    assert result.stored_gaussians == plan.total_stores
    assert result.cached_gaussians == plan.total_cached
    assert result.loaded_bytes == attributes.noncritical_bytes(plan.total_loads)
    assert result.stored_bytes == attributes.noncritical_bytes(plan.total_stores)
    assert result.touched_gaussians == plan.touched.size
    assert result.adam_chunk_sizes == plan.adam_chunk_sizes


def test_simulator_dag_reconciles_with_functional_path(engine_and_plan):
    """The DAG built from the same plan moves byte-for-byte the traffic
    the functional engine reported, microbatch by microbatch."""
    engine, plan, targets = engine_and_plan
    costs = KernelCostModel(RTX4090_TESTBED)
    sim = Simulator()
    add_clm_batch(sim, costs, plan, 1.0, 2_000_000, engine.num_gaussians)
    result = sim.run()

    loads = sorted(
        (r for r in result.records.values() if r.task.kind == "load"),
        key=lambda r: r.task.name,
    )
    stores = sorted(
        (r for r in result.records.values() if r.task.kind == "store"),
        key=lambda r: r.task.name,
    )
    assert len(loads) == len(stores) == plan.batch_size
    for rec, step in zip(loads, plan.steps):
        assert rec.task.payload["rx_bytes"] == costs.load_bytes(step.num_loads)
    for rec, step in zip(stores, plan.steps):
        assert rec.task.payload["tx_bytes"] == costs.store_bytes(step.num_stores)

    sim_loaded = sum(r.task.payload["rx_bytes"] for r in loads)
    sim_stored = sum(r.task.payload["tx_bytes"] for r in stores)
    # Simulated transfer volume == plan analytics == functional counters.
    assert sim_loaded == attributes.noncritical_bytes(plan.total_loads)
    assert sim_stored == attributes.noncritical_bytes(plan.total_stores)


def test_count_scale_scales_volumes_linearly(engine_and_plan):
    engine, plan, _ = engine_and_plan
    costs = KernelCostModel(RTX4090_TESTBED)
    volumes = []
    for scale in (1.0, 10.0):
        sim = Simulator()
        add_clm_batch(sim, costs, plan, scale, 2_000_000, 1e6)
        result = sim.run()
        volumes.append(sum(
            r.task.payload["rx_bytes"]
            for r in result.records.values() if r.task.kind == "load"
        ))
    assert volumes[1] == pytest.approx(10.0 * volumes[0])


def test_single_view_render_goes_through_planner(engine_and_plan):
    """The evaluation render path plans through the same layer, so
    inference working sets cannot drift from training-plan semantics."""
    engine, _, _ = engine_and_plan
    requests_before = engine.planner.counters.requests
    image = engine.render_view(0).image
    assert np.isfinite(image).all()
    assert engine.planner.counters.requests == requests_before + 1


# -- predicted-makespan reconciliation (the auto-tuner's feedback loop) --

def test_reconcile_predicted_makespan_basic():
    from repro.planning import reconcile_predicted_makespan

    rec = reconcile_predicted_makespan(0.08, 0.10)
    assert rec.predicted_s == pytest.approx(0.08)
    assert rec.measured_s == pytest.approx(0.10)
    assert rec.error_s == pytest.approx(0.02)
    assert rec.relative_error == pytest.approx(0.2)
    assert rec.within(0.25)
    assert not rec.within(0.1)


def test_reconcile_predicted_makespan_overprediction():
    from repro.planning import reconcile_predicted_makespan

    rec = reconcile_predicted_makespan(0.15, 0.10)
    assert rec.error_s == pytest.approx(-0.05)
    assert rec.relative_error == pytest.approx(0.5)


def test_reconcile_predicted_makespan_zero_measured():
    from repro.planning import reconcile_predicted_makespan

    rec = reconcile_predicted_makespan(0.01, 0.0)
    assert rec.relative_error == 0.0  # defined, not a ZeroDivisionError
