"""Fault injection for elastic recovery (ROADMAP robustness track).

:mod:`repro.resilience.faults` is a seeded, schedule-replayable fault
injector layered on :class:`repro.hardware.specs.DeviceTopology` and the
discrete-event simulator: device fail-stop at a chosen batch, transient
straggler slowdowns on ``gpu{k}.compute``, and lossy/slow PCIe links whose
retry + exponential-backoff cost rides ``transfer_time``.  On a fail-stop
the sharded engine restores the engine state it captured after the last
good batch (:func:`repro.core.checkpoint.capture_engine_state`, the same
snapshot a checkpoint writes to disk) and re-shards over the survivors.

The serving-side counterpart (render retries, circuit breaker, degraded
LOD mode) lives in :mod:`repro.serving.resilience` next to the serving
loop it instruments.
"""

from repro.resilience.faults import (
    FAIL_STOP,
    LINK_FAULT,
    STRAGGLER,
    BatchFaultState,
    DegradedTopology,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultStats,
)

__all__ = [
    "FAIL_STOP",
    "STRAGGLER",
    "LINK_FAULT",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "FaultStats",
    "BatchFaultState",
    "DegradedTopology",
]
