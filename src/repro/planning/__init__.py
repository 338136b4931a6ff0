"""repro.planning — the unified batch-planning layer (paper §4.2).

Every consumer of a training batch — the functional engines, the
discrete-event simulator, the benchmarks — derives its schedule from one
:class:`~repro.planning.plan.BatchPlan`, built by one
:class:`~repro.planning.planner.BatchPlanner`::

    from repro.planning import BatchPlanner

    planner = BatchPlanner(ordering="tsp", enable_cache=True)
    plan = planner.plan(sets, view_ids, cameras, num_gaussians=n)
    plan.steps          # ordered MicrobatchStep transfer plans
    plan.adam_chunks    # overlapped-Adam finalization sets
    plan.total_loads    # Figure 14 analytics

Module → paper mapping:

- :mod:`repro.planning.orders` — microbatch ordering strategies
  (§4.2.3, Table 4);
- :mod:`repro.planning.tsp_order` — the stochastic-local-search TSP
  solver behind the ``tsp`` strategy (§4.2.3, Appendix A.1);
- :mod:`repro.planning.caching` — precise Gaussian caching: the
  per-microbatch loads/cached/stores/carried partitions (§4.2.1);
- :mod:`repro.planning.adam_overlap` — finalization maps and eager CPU
  Adam chunks (§4.2.2, Figure 7);
- :mod:`repro.planning.plan` — the :class:`BatchPlan` product tying
  those together, with the Figure 14 analytics;
- :mod:`repro.planning.planner` — :class:`BatchPlanner`, which builds
  each batch's plan, and serving's :class:`PlanCache`: fingerprint-keyed
  memoization so a repeated request batch skips TSP and set algebra
  (tracked by :class:`PlannerCounters`);
- :mod:`repro.planning.lowering` — :func:`lower_batch`: the plan as the
  ``step`` / ``adam`` / ``critical_adam`` node list the CLM executors
  run and the auto-tuner prices (§4.2, Figure 6).
"""

from repro.planning.adam_overlap import (
    MakespanReconciliation,
    adam_chunks,
    finalization_positions,
    reconcile_predicted_makespan,
    touched_union,
)
from repro.planning.caching import (
    MicrobatchStep,
    build_transfer_plan,
    total_cached_count,
    total_load_count,
    total_store_count,
    validate_plan,
)
from repro.planning.lowering import BatchNode, lower_batch
from repro.planning.orders import IDENTITY, STRATEGIES, order_microbatches
from repro.planning.plan import BatchPlan
from repro.planning.planner import (
    BatchPlanner,
    PlanCache,
    PlannerCounters,
    plan_fingerprint,
    set_fingerprint,
)

__all__ = [
    "BatchPlan",
    "BatchNode",
    "lower_batch",
    "BatchPlanner",
    "PlanCache",
    "PlannerCounters",
    "plan_fingerprint",
    "set_fingerprint",
    "MicrobatchStep",
    "build_transfer_plan",
    "total_load_count",
    "total_store_count",
    "total_cached_count",
    "validate_plan",
    "order_microbatches",
    "STRATEGIES",
    "IDENTITY",
    "adam_chunks",
    "finalization_positions",
    "MakespanReconciliation",
    "reconcile_predicted_makespan",
    "touched_union",
]
