"""AutoTuner unit tests: the calibration probe, argmin exploitation,
calibration."""

import numpy as np
import pytest

from repro.autotune import (
    AutoTuner,
    CandidateSpace,
    CostModel,
    MeasuredBatch,
    TunedConfig,
)
from repro.planning import BatchPlanner

NUM_GAUSSIANS = 500


def make_plans(orderings, seed=0, batch=4):
    rng = np.random.default_rng(seed)
    sets = [
        np.sort(rng.choice(NUM_GAUSSIANS, size=120, replace=False))
        for _ in range(batch)
    ]
    planner = BatchPlanner(seed=seed)
    return {
        o: planner.plan(
            sets, list(range(batch)), num_gaussians=NUM_GAUSSIANS, strategy=o
        )
        for o in orderings
    }


def measured_for(plan, wall_s=0.1):
    working = sum(int(s.working_set.size) for s in plan.steps)
    return MeasuredBatch(
        wall_s=wall_s,
        forward_s=0.4 * wall_s,
        backward_s=0.4 * wall_s,
        adam_s=0.1 * wall_s,
        critical_adam_s=0.05 * wall_s,
        hidden_s=0.05 * wall_s,
        working_rows=working,
        traffic_rows=plan.total_loads + plan.total_stores + plan.total_cached,
        chunk_rows=sum(plan.adam_chunk_sizes),
        touched_rows=int(plan.touched.size),
    )


@pytest.fixture
def space():
    return CandidateSpace(workers=(0, 2), orderings=("tsp", "identity"))


def test_choose_requires_every_candidate_ordering(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(("tsp",))
    with pytest.raises(KeyError, match="identity"):
        tuner.choose(plans)


def test_the_first_batch_probes_and_the_second_exploits(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    probe = tuner.choose(plans)
    assert probe.explored
    assert probe.table == ()
    # The probe pins the most-parallel workers and the first ordering.
    assert probe.config == TunedConfig(space.workers[-1], "tsp")
    plan = plans[probe.config.ordering]
    tuner.observe(probe, plan, measured_for(plan))
    choice = tuner.choose(plans)
    assert not choice.explored
    assert len(choice.table) == space.size
    assert tuner.stats.explored_batches == 1


def test_a_calibrated_model_skips_the_probe(space):
    model = CostModel()
    model.observe(("forward",), 1000, 1e-3)
    tuner = AutoTuner(space=space, model=model)
    choice = tuner.choose(make_plans(space.orderings))
    assert not choice.explored
    assert len(choice.table) == space.size


def test_exploitation_returns_argmin_of_table(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    choice = tuner.choose(plans)
    tuner.observe(choice, plans[choice.config.ordering],
                  measured_for(plans[choice.config.ordering]))
    choice = tuner.choose(plans)
    best = min(predicted for _, predicted in choice.table)
    assert choice.predicted_s == best
    # Table is sorted cheapest-first and contains the chosen config.
    assert choice.table[0][1] == best
    assert choice.config in {config for config, _ in choice.table}


def test_ties_resolve_to_earliest_candidate():
    space = CandidateSpace(workers=(0,), orderings=("tsp", "identity"))
    tuner = AutoTuner(space=space)
    # One plan under both orderings prices both candidates the same.
    plan = make_plans(("identity",))["identity"]
    plans = {ordering: plan for ordering in space.orderings}
    choice = tuner.choose(plans)
    tuner.observe(choice, plan, measured_for(plan))
    choice = tuner.choose(plans)
    assert choice.table[0][1] == choice.table[1][1]
    assert choice.config.ordering == "tsp"  # earliest in enumeration order


def test_more_workers_hide_heavy_adam_in_prediction():
    tuner = AutoTuner()
    plans = make_plans(("identity",))
    plan = plans["identity"]
    # Calibrate an Adam-dominated machine.
    tuner.model.observe(("adam",), 1, 1e-3)      # very slow per-row Adam
    tuner.model.observe(("forward",), 1, 1e-6)
    tuner.model.observe(("backward",), 1, 1e-6)
    serial = tuner.predict_makespan(plan, TunedConfig(0, "identity"))
    overlapped = tuner.predict_makespan(plan, TunedConfig(2, "identity"))
    assert overlapped < serial


def test_prediction_dag_resources():
    tuner = AutoTuner()
    plan = make_plans(("identity",))["identity"]
    result = tuner.build_simulator(plan, TunedConfig(2, "identity")).run()
    resources = set(result.resources())
    assert "main" in resources
    assert any(r.startswith("cpu.adam") for r in resources)
    assert result.makespan > 0.0
    inline = tuner.build_simulator(plan, TunedConfig(0, "identity")).run()
    assert set(inline.resources()) == {"main"}


def test_observe_reconciles_and_calibrates(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    choice = tuner.choose(plans)
    plan = plans[choice.config.ordering]
    rec = tuner.observe(choice, plan, measured_for(plan, wall_s=0.2))
    assert rec.measured_s == pytest.approx(0.2)
    assert rec.relative_error >= 0.0
    assert tuner.model.measured(("forward",))
    assert tuner.model.measured(("adam",))
    assert tuner.model.measured(("overhead",))
    # The probe never folds into the calibrated-error mean.
    assert tuner.stats.reconciled == 0
    assert tuner.stats.mean_rel_error == 0.0
    assert tuner.stats.explored_batches == 1


def test_exploited_batches_fold_error(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    for _ in range(2):
        choice = tuner.choose(plans)
        plan = plans[choice.config.ordering]
        tuner.observe(choice, plan, measured_for(plan))
    assert tuner.stats.reconciled == 1
    assert tuner.stats.batches == 2
    assert tuner.stats.last is not None


def test_summary_shape(space):
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    choice = tuner.choose(plans)
    plan = plans[choice.config.ordering]
    tuner.observe(choice, plan, measured_for(plan))
    summary = tuner.summary()
    assert summary["batches"] == 1
    assert summary["candidates"] == space.size
    assert summary["most_chosen"] == choice.config.as_dict()
    assert summary["model_observations"] == tuner.model.observations


# -- ROADMAP item 5's acceptance bars, off the clock ----------------------
# The settled configuration is within 10% of the best grid point and the
# calibrated model's reconciliation error stays under 0.75.  The machine is
# scripted, so the bars are exact; the wall-clock readings are
# `bench_e2e`'s `autotune.*`.

#: Seconds per row on the scripted machine: Adam is heavy enough for
#: worker lanes to pay.
MACHINE_RATES = {
    ("forward",): 2.5e-6, ("backward",): 5.0e-6,
    ("adam",): 6.0e-6, ("critical_adam",): 1.0e-6, ("overhead",): 5.0e-7,
}
#: The box's speed from batch to batch (shared runners drift).
DRIFT = (1.15, 0.9, 1.05, 0.85, 1.1, 0.95, 1.0, 1.2)


def scripted_machine(space):
    """A tuner whose cost model *is* the machine: what it predicts for a
    configuration is what that configuration measures."""
    machine = AutoTuner(space=space)
    machine.model._rates.update(MACHINE_RATES)
    return machine


def run_on(machine, plan, config, drift):
    """The ``MeasuredBatch`` of ``plan`` under ``config`` on ``machine``."""
    m = machine.model
    working = sum(int(s.working_set.size) for s in plan.steps)
    traffic = plan.total_loads + plan.total_stores + plan.total_cached
    forward = m.forward_s(working)
    backward = m.backward_s(working)
    adam = m.adam_s(sum(plan.adam_chunk_sizes))
    critical = m.critical_adam_s(int(plan.touched.size))
    wall = machine.predict_makespan(plan, config)
    # Whatever of the makespan no other op accounts for is Adam the
    # schedule failed to hide.
    exposed = wall - (forward + backward + critical + m.overhead_s(traffic))
    return MeasuredBatch(
        wall_s=drift * wall,
        forward_s=drift * forward,
        backward_s=drift * backward,
        adam_s=drift * adam,
        critical_adam_s=drift * critical,
        hidden_s=drift * min(adam, max(0.0, adam - exposed)),
        working_rows=working,
        traffic_rows=traffic,
        chunk_rows=sum(plan.adam_chunk_sizes),
        touched_rows=int(plan.touched.size),
    )


@pytest.fixture
def settled(space):
    """(tuner after eight drifting batches, machine, plans)."""
    machine = scripted_machine(space)
    tuner = AutoTuner(space=space)
    plans = make_plans(space.orderings)
    for drift in DRIFT:
        choice = tuner.choose(plans)
        plan = plans[choice.config.ordering]
        tuner.observe(choice, plan, run_on(machine, plan, choice.config, drift))
    return tuner, machine, plans


def test_settled_config_within_10pct_of_the_grid_best(space, settled):
    tuner, machine, plans = settled
    grid = {
        config: machine.predict_makespan(plans[config.ordering], config)
        for config in space.enumerate()
    }
    # The grid is worth tuning over: its worst point is far off its best.
    assert max(grid.values()) > 1.25 * min(grid.values())
    chosen = TunedConfig(**tuner.summary()["most_chosen"])
    assert grid[chosen] <= 1.10 * min(grid.values())


def test_calibrated_prediction_error_is_bounded(settled):
    tuner, _, _ = settled
    assert tuner.stats.reconciled == len(DRIFT) - 1  # one calibration probe
    assert 0.0 < tuner.stats.mean_rel_error <= 0.75
