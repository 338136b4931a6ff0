"""Deterministic fail-stop injection over the simulated devices.

A :class:`FaultSchedule` is an explicit list of :class:`FaultEvent`
records: device ``device`` fail-stops at the start of batch ``batch`` and
never returns.  A :class:`FaultInjector` walks the schedule batch by batch
and keeps the events that fired in :attr:`~FaultInjector.event_log`, so the
same schedule replays the same failures at the same batches.

The engine detects a failure at the batch barrier, discards the torn
batch, and runs elastic recovery (see
:meth:`repro.engines.clm_sharded.ShardedCLMEngine._recover`).  The
injector's whole state is its failed devices; with the engine's batch
count, which a checkpoint carries with the alive devices, a resumed run
replays the schedule as the uninterrupted one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class FaultEvent:
    """Device ``device`` fail-stops at the start of training batch
    ``batch``."""

    batch: int
    device: int

    def __post_init__(self) -> None:
        if self.batch < 0:
            raise ValueError("batch must be >= 0")

    @classmethod
    def fail_stop(cls, batch: int, device: int) -> "FaultEvent":
        return cls(batch=batch, device=device)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault events.  The schedule is data, so the same
    schedule object replays the same faults forever."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # Canonical order: by batch, then device — so two schedules with
        # the same event *set* replay identically.
        ordered = tuple(sorted(self.events, key=lambda e: (e.batch, e.device)))
        object.__setattr__(self, "events", ordered)

    def events_at(self, batch: int) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.batch == batch)


@dataclass(frozen=True)
class BatchFaultState:
    """The faults affecting one batch, resolved by
    :meth:`FaultInjector.begin_batch`."""

    batch: int
    #: Devices that fail-stopped *this* batch (the engine loses their
    #: in-flight work and must recover).
    new_failures: Tuple[int, ...] = ()
    #: All devices dead so far, this batch's failures included.
    failed: Tuple[int, ...] = ()


class FaultInjector:
    """Walks a :class:`FaultSchedule` across training batches.

    One injector per engine run.  :meth:`begin_batch` fires the batch's
    events (a dead device cannot fail again), appends them to
    :attr:`event_log`, and returns the :class:`BatchFaultState` the engine
    recovers from.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.failed: set = set()
        #: The events that fired, in firing order.
        self.event_log: List[FaultEvent] = []

    def begin_batch(self, batch: int) -> BatchFaultState:
        new_failures: List[int] = []
        for event in self.schedule.events_at(batch):
            if event.device in self.failed:
                continue
            self.event_log.append(event)
            self.failed.add(event.device)
            new_failures.append(event.device)
        return BatchFaultState(
            batch=batch,
            new_failures=tuple(sorted(new_failures)),
            failed=tuple(sorted(self.failed)),
        )
