"""`repro.autotune` — simulator-driven configuration auto-tuning.

Closes the predict/measure loop ROADMAP item 5 calls for.  Two knobs
stay hand-tuned without this package: ``overlap_workers`` (the overlap
runtime) and the microbatch ordering (the planner).  The auto-tuner picks
both per batch (the kernel backend is never tuned, see
:mod:`repro.autotune.candidates`):

1. :class:`CostModel` holds seconds-per-unit rates for every pipeline op
   (assemble/forward/backward/Adam), seeded from ``hardware/specs``
   priors and calibrated online from measured per-op seconds (EMA);
2. :class:`CandidateSpace` enumerates candidate configurations;
3. :class:`AutoTuner.choose` builds one discrete-event
   :class:`repro.hardware.Simulator` DAG per candidate from the batch's
   :class:`~repro.planning.BatchPlan` and picks the argmin predicted
   makespan;
4. after the batch executes, :meth:`AutoTuner.observe` reconciles the
   prediction against the measured wall time
   (:func:`repro.planning.adam_overlap.reconcile_predicted_makespan`)
   and feeds the measured per-op rates back into the model.

Surfaced as ``EngineConfig.autotune`` / ``repro train --autotune`` /
``TrainingSession.tuner``; the chosen config and prediction error are
threaded through ``PerfCounters`` and ``BenchRecord`` (see the README's
"Adaptive runtime" section).
"""

from repro.autotune.candidates import CandidateSpace, TunedConfig
from repro.autotune.cost_model import CostModel
from repro.autotune.tuner import AutoTuner, MeasuredBatch, TunedChoice

__all__ = [
    "AutoTuner",
    "CandidateSpace",
    "CostModel",
    "MeasuredBatch",
    "TunedChoice",
    "TunedConfig",
]
