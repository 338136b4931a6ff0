"""`AutoTuner` — per-batch configuration choice via simulated makespan.

The loop per training batch:

1. the engine culls the batch once and plans it once per candidate
   ordering;
2. :meth:`AutoTuner.choose` prices the batch's
   :func:`~repro.planning.lower_batch` node list — the very nodes the
   engine executes — on one :class:`repro.hardware.Simulator` per
   candidate: ``step`` nodes serialized on the training thread's
   ``main`` resource, ``adam`` chunks fanned out over
   ``overlap_workers`` CPU lanes (or serialized on ``main`` when 0),
   ``critical_adam`` closing the batch — and returns the argmin
   predicted makespan;
3. the engine executes the chosen config; :meth:`AutoTuner.observe`
   reconciles predicted vs measured wall time
   (:func:`~repro.planning.adam_overlap.reconcile_predicted_makespan`)
   and calibrates the :class:`~repro.autotune.cost_model.CostModel` from
   the batch's measured per-op seconds.

Calibration probe: until the cost model has measured a forward rate it
prices every step from paper-hardware priors, so the first batch runs a
fixed probe configuration (the most workers, the first ordering) instead
of the argmin; every later batch exploits the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.autotune.candidates import CandidateSpace, TunedConfig
from repro.autotune.cost_model import DISPATCH_OVERHEAD_S, CostModel
from repro.hardware.simulator import Simulator
from repro.hardware.specs import RTX4090_TESTBED, Testbed
from repro.planning.adam_overlap import (
    MakespanReconciliation,
    reconcile_predicted_makespan,
)
from repro.planning.lowering import lower_batch
from repro.planning.plan import BatchPlan

#: Resource names of the per-candidate prediction DAG.  ``main`` is the
#: training thread (``step`` nodes + inline Adam); ``cpu.adam{w}`` are
#: the overlap runtime's worker lanes.
MAIN_RESOURCE = "main"


@dataclass(frozen=True)
class TunedChoice:
    """One batch's tuning decision."""

    config: TunedConfig
    #: Predicted makespan of :attr:`config` (seconds).
    predicted_s: float
    #: True on the calibration probe, which measures the model's first
    #: forward/backward rates instead of exploiting the model.
    explored: bool
    #: Every candidate's predicted makespan this batch (empty on the
    #: probe) — the per-batch tuning table, cheapest first.
    table: Tuple[Tuple[TunedConfig, float], ...] = ()


@dataclass(frozen=True)
class MeasuredBatch:
    """Measured per-op seconds + unit counts of one executed batch (the
    calibration sample :meth:`AutoTuner.observe` consumes)."""

    wall_s: float
    forward_s: float
    backward_s: float
    #: Non-critical (CPU) Adam seconds summed over chunk tasks.
    adam_s: float
    #: GPU-side critical Adam seconds.
    critical_adam_s: float
    #: Of ``adam_s``, seconds measured as hidden under other work.
    hidden_s: float
    #: Working-set rows rendered (sum over microbatches).
    working_rows: int
    #: Rows assembled/retired/cache-copied (loads + stores + cached).
    traffic_rows: int
    #: Non-critical chunk rows updated.
    chunk_rows: int
    #: Touched rows the critical Adam updated.
    touched_rows: int


@dataclass
class TunerStats:
    """Cumulative tuner accounting (mirrors what ``PerfCounters`` folds)."""

    batches: int = 0
    explored_batches: int = 0
    predicted_s: float = 0.0
    measured_s: float = 0.0
    rel_error_sum: float = 0.0
    reconciled: int = 0
    last: Optional[MakespanReconciliation] = None
    choices: Dict[TunedConfig, int] = field(default_factory=dict)

    @property
    def mean_rel_error(self) -> float:
        """Mean relative prediction error over *exploited* batches."""
        if self.reconciled == 0:
            return 0.0
        return self.rel_error_sum / self.reconciled


class AutoTuner:
    """Simulator-driven argmin over a :class:`CandidateSpace`."""

    def __init__(
        self,
        space: Optional[CandidateSpace] = None,
        model: Optional[CostModel] = None,
        testbed: Testbed = RTX4090_TESTBED,
        num_pixels: int = 1024,
        overlap_adam: bool = True,
    ) -> None:
        self.space = space or CandidateSpace()
        #: The engine's ``enable_overlap_adam``: whether ``adam`` nodes
        #: hang off their own step or all wait for the last one.
        self.overlap_adam = overlap_adam
        self.model = model or CostModel(testbed=testbed, num_pixels=num_pixels)
        self.stats = TunerStats()

    # -- what the engine asks per batch ----------------------------------
    @property
    def orderings(self) -> Tuple[str, ...]:
        """Orderings the engine must plan (the candidate orderings)."""
        return self.space.orderings

    def choose(self, plans: Mapping[str, BatchPlan]) -> TunedChoice:
        """Pick this batch's configuration.

        ``plans`` maps each candidate ordering to that ordering's
        :class:`BatchPlan` for the batch (all orderings of the space must
        be present).  Returns the argmin-predicted-makespan candidate, or
        the calibration probe while the model has no measured forward
        rate.
        """
        for ordering in self.space.orderings:
            if ordering not in plans:
                raise KeyError(f"no plan for candidate ordering {ordering!r}")
        self.stats.batches += 1
        if not self.model.measured(("forward",)):
            config = TunedConfig(
                overlap_workers=int(self.space.workers[-1]),
                ordering=self.space.orderings[0],
            )
            self.stats.explored_batches += 1
            predicted = self.predict_makespan(plans[config.ordering], config)
            return TunedChoice(
                config=config, predicted_s=predicted, explored=True
            )
        table = [
            (config, self.predict_makespan(plans[config.ordering], config))
            for config in self.space.enumerate()
        ]
        best_config, best_predicted = table[0]
        for config, predicted in table[1:]:
            if predicted < best_predicted:
                best_config, best_predicted = config, predicted
        table.sort(key=lambda item: item[1])
        return TunedChoice(
            config=best_config,
            predicted_s=best_predicted,
            explored=False,
            table=tuple(table),
        )

    def observe(
        self, choice: TunedChoice, plan: BatchPlan, measured: MeasuredBatch
    ) -> MakespanReconciliation:
        """Reconcile ``choice``'s prediction against the measured batch
        and calibrate the cost model from its per-op seconds."""
        config = choice.config
        m = self.model
        m.observe(("forward",), measured.working_rows, measured.forward_s)
        m.observe(("backward",), measured.working_rows, measured.backward_s)
        m.observe(("adam",), measured.chunk_rows, measured.adam_s)
        m.observe(
            ("critical_adam",), measured.touched_rows, measured.critical_adam_s
        )
        # The residual (wall minus every attributed op, with hidden Adam
        # seconds off the critical path) is the assemble/retire traffic
        # cost per moved row.
        serial_adam = max(0.0, measured.adam_s - measured.hidden_s)
        residual = measured.wall_s - (
            measured.forward_s
            + measured.backward_s
            + measured.critical_adam_s
            + serial_adam
        )
        m.observe(("overhead",), measured.traffic_rows, residual)
        reconciliation = reconcile_predicted_makespan(
            choice.predicted_s, measured.wall_s
        )
        self.stats.predicted_s += reconciliation.predicted_s
        self.stats.measured_s += reconciliation.measured_s
        self.stats.last = reconciliation
        self.stats.choices[config] = self.stats.choices.get(config, 0) + 1
        if not choice.explored:
            # The probe predicts off raw priors by design; folding its
            # error in would misreport the calibrated model's skill.
            self.stats.reconciled += 1
            self.stats.rel_error_sum += reconciliation.relative_error
        return reconciliation

    # -- prediction ------------------------------------------------------
    def predict_makespan(self, plan: BatchPlan, config: TunedConfig) -> float:
        """Predicted makespan of executing ``plan`` under ``config``."""
        return self.build_simulator(plan, config).run().makespan

    def build_simulator(
        self, plan: BatchPlan, config: TunedConfig
    ) -> Simulator:
        """The candidate's discrete-event DAG: the engine's own
        :func:`~repro.planning.lower_batch` node list, priced — ``step``
        and ``critical_adam`` on ``main``, ``adam`` chunks over the
        configured worker lanes (round-robin, the pool's deterministic
        lowest-id-first dispatch approximated by serial lanes)."""
        sim = Simulator()
        m = self.model
        workers = config.overlap_workers
        lanes = [f"cpu.adam{w}" for w in range(workers)] or [MAIN_RESOURCE]
        chunk_sizes = plan.adam_chunk_sizes
        lane = 0
        for node in lower_batch(plan, self.overlap_adam):
            resource = MAIN_RESOURCE
            if node.kind == "step":
                step = plan.steps[node.index]
                rows = int(step.working_set.size)
                traffic = int(
                    step.loads.size + step.stores.size + step.cached.size
                )
                duration = (
                    m.overhead_s(traffic) + m.forward_s(rows) + m.backward_s(rows)
                )
            elif node.kind == "adam":
                duration = m.adam_s(chunk_sizes[node.index])
                if workers:
                    duration += DISPATCH_OVERHEAD_S
                resource = lanes[lane % len(lanes)]
                lane += 1
            else:
                duration = m.critical_adam_s(int(plan.touched.size))
            # A fresh simulator numbers tasks in insertion order, so the
            # node list's positional deps are its task ids.
            sim.add(
                node.name, resource, duration, deps=node.deps, kind=node.kind
            )
        return sim

    # -- reporting -------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Flat summary for the CLI / bench ``extra`` payloads."""
        s = self.stats
        most_chosen = None
        if s.choices:
            most_chosen = max(
                s.choices.items(), key=lambda item: item[1]
            )[0].as_dict()
        return {
            "batches": s.batches,
            "explored_batches": s.explored_batches,
            "mean_rel_error": s.mean_rel_error,
            "predicted_s": s.predicted_s,
            "measured_s": s.measured_s,
            "candidates": self.space.size,
            "most_chosen": most_chosen,
            "model_observations": self.model.observations,
        }
