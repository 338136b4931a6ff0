"""Fault injection for elastic recovery (ROADMAP robustness track).

:mod:`repro.resilience.faults` is a schedule-replayable fail-stop
injector for the sharded engine: a device dies at a chosen batch and never
returns.  On a fail-stop the sharded engine restores the engine state it
captured after the last good batch
(:func:`repro.core.checkpoint.capture_engine_state`, the same snapshot a
checkpoint writes to disk) and re-shards over the survivors.

The serving-side counterpart (render retries, circuit breaker, degraded
LOD mode) lives in :mod:`repro.serving.resilience` next to the serving
loop it instruments.
"""

from repro.resilience.faults import (
    BatchFaultState,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "BatchFaultState",
]
