"""Deterministic fault injection over the simulated device topology.

A :class:`FaultSchedule` is an explicit, seed-reproducible list of
:class:`FaultEvent` records — *when* (batch index), *where* (device id or
link endpoint pair) and *what* (fail-stop, straggler slowdown, lossy
link).  A :class:`FaultInjector` walks the schedule batch by batch,
keeping an append-only :attr:`~FaultInjector.event_log` whose JSON
serialization is bit-identical across runs of the same schedule — the
replay contract ``tests/resilience`` pins.

Fault semantics:

- **fail-stop** (:data:`FAIL_STOP`): device ``k`` dies at the start of
  batch ``batch`` and never returns.  The engine detects the failure at
  the batch barrier, discards the torn batch, and runs elastic recovery
  (see :meth:`repro.engines.clm_sharded.ShardedCLMEngine._recover`).
- **straggler** (:data:`STRAGGLER`): for ``duration`` batches, every task
  on ``gpu{k}.compute`` runs ``factor``x slower in the simulated
  schedule (thermal throttling, a noisy neighbour).  Functional results
  are unaffected — the slowdown shows up in makespan/busy seconds.
- **link fault** (:data:`LINK_FAULT`): for ``duration`` batches the
  ``(device, peer)`` link runs ``factor``x slower and drops each
  transfer attempt with probability ``loss_prob``; every drop costs one
  retransmission plus exponential backoff, all costed through
  :meth:`DegradedTopology.transfer_time` and tallied in
  :class:`FaultStats`.

Nothing here mutates a :class:`~repro.hardware.specs.DeviceTopology`:
:class:`DegradedTopology` is a read-only view that re-costs
``transfer_time`` and delegates everything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.hardware.specs import HOST, DeviceTopology
from repro.utils.rng import SeedLike, make_rng

#: Fault kinds a :class:`FaultEvent` may carry.
FAIL_STOP = "fail_stop"
STRAGGLER = "straggler"
LINK_FAULT = "link_fault"

_KINDS = (FAIL_STOP, STRAGGLER, LINK_FAULT)

#: Retransmission attempts a faulty link makes before giving up on the
#: exponential backoff ladder (the transfer still completes — the final
#: attempt is assumed to get through; the ladder just bounds the cost).
MAX_LINK_RETRIES = 8

#: Base backoff of the first link retry; doubles per subsequent retry.
LINK_BACKOFF_S = 100e-6


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``batch`` is the training-batch index the fault fires at; ``device``
    the target device id (the link *source* for :data:`LINK_FAULT`, with
    ``peer`` the other endpoint — :data:`~repro.hardware.specs.HOST` for
    the host link).  ``factor`` is the slowdown multiplier (stragglers
    and degraded links), ``loss_prob`` the per-attempt drop probability
    of a lossy link, and ``duration`` how many batches a transient fault
    stays active (ignored by fail-stop, which is permanent).
    """

    kind: str
    batch: int
    device: int
    peer: int = HOST
    factor: float = 1.0
    loss_prob: float = 0.0
    duration: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        if self.batch < 0:
            raise ValueError("batch must be >= 0")
        if self.factor < 1.0:
            raise ValueError("fault factor must be >= 1 (a slowdown)")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if self.duration < 1:
            raise ValueError("duration must be >= 1 batch")

    # -- convenience constructors ---------------------------------------
    @classmethod
    def fail_stop(cls, batch: int, device: int) -> "FaultEvent":
        return cls(kind=FAIL_STOP, batch=batch, device=device)

    @classmethod
    def straggler(
        cls, batch: int, device: int, factor: float, duration: int = 1
    ) -> "FaultEvent":
        return cls(
            kind=STRAGGLER,
            batch=batch,
            device=device,
            factor=factor,
            duration=duration,
        )

    @classmethod
    def link_fault(
        cls,
        batch: int,
        device: int,
        peer: int = HOST,
        factor: float = 1.0,
        loss_prob: float = 0.0,
        duration: int = 1,
    ) -> "FaultEvent":
        return cls(
            kind=LINK_FAULT,
            batch=batch,
            device=device,
            peer=peer,
            factor=factor,
            loss_prob=loss_prob,
            duration=duration,
        )

    def as_dict(self) -> dict:
        """JSON-stable record of this event (the event-log entry body)."""
        return {
            "kind": self.kind,
            "batch": int(self.batch),
            "device": int(self.device),
            "peer": int(self.peer),
            "factor": float(self.factor),
            "loss_prob": float(self.loss_prob),
            "duration": int(self.duration),
        }


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault events plus the seed of the retry stream.

    The schedule itself is data — either written out explicitly or drawn
    once by :meth:`generate` — so the same schedule object replays the
    same faults forever.  ``seed`` additionally keys the injector's
    *retry* stream (the per-transfer drop draws of lossy links), keeping
    those deterministic per run too.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Canonical order: by batch, then kind, then endpoints — so two
        # schedules with the same event *set* log identically.
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.batch, e.kind, e.device, e.peer),
            )
        )
        object.__setattr__(self, "events", ordered)

    def events_at(self, batch: int) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.batch == batch)

    @property
    def fail_stop_count(self) -> int:
        return sum(1 for e in self.events if e.kind == FAIL_STOP)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_devices: int,
        num_batches: int,
        *,
        fail_stop_prob: float = 0.0,
        straggler_prob: float = 0.0,
        link_fault_prob: float = 0.0,
        straggler_factor: float = 2.0,
        link_factor: float = 2.0,
        link_loss_prob: float = 0.1,
        duration: int = 2,
        max_fail_stops: Optional[int] = None,
    ) -> "FaultSchedule":
        """Draw a random schedule — deterministically, from ``seed``.

        Each (batch, device) cell independently rolls the three fault
        kinds.  ``max_fail_stops`` caps permanent failures (default:
        ``num_devices - 1``, so at least one device always survives).
        """
        rng = make_rng(seed)
        if max_fail_stops is None:
            max_fail_stops = num_devices - 1
        events: List[FaultEvent] = []
        failed: set = set()
        for batch in range(num_batches):
            for device in range(num_devices):
                if device in failed:
                    continue
                if (
                    fail_stop_prob > 0.0
                    and len(failed) < max_fail_stops
                    and rng.random() < fail_stop_prob
                ):
                    events.append(FaultEvent.fail_stop(batch, device))
                    failed.add(device)
                    continue
                if straggler_prob > 0.0 and rng.random() < straggler_prob:
                    events.append(
                        FaultEvent.straggler(
                            batch, device, straggler_factor, duration
                        )
                    )
                if link_fault_prob > 0.0 and rng.random() < link_fault_prob:
                    events.append(
                        FaultEvent.link_fault(
                            batch,
                            device,
                            HOST,
                            factor=link_factor,
                            loss_prob=link_loss_prob,
                            duration=duration,
                        )
                    )
        return cls(events=tuple(events), seed=seed)


@dataclass
class FaultStats:
    """Cumulative injector tallies across a run."""

    fail_stops: int = 0
    stragglers: int = 0
    link_faults: int = 0
    #: Retransmissions drawn on lossy links, and the summed backoff cost.
    link_retries: int = 0
    retry_backoff_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "fail_stops": self.fail_stops,
            "stragglers": self.stragglers,
            "link_faults": self.link_faults,
            "link_retries": self.link_retries,
            "retry_backoff_s": self.retry_backoff_s,
        }


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
    #: Active straggler slowdown per device id (absent = 1.0).
    slowdowns: Mapping[int, float] = field(default_factory=dict)
    #: Active link faults keyed by (src, dst) endpoint pair.
    link_faults: Mapping[Tuple[int, int], FaultEvent] = field(
        default_factory=dict
    )

    def slowdown(self, device: int) -> float:
        return float(self.slowdowns.get(device, 1.0))

    @property
    def clean(self) -> bool:
        return not (self.new_failures or self.slowdowns or self.link_faults)


class FaultInjector:
    """Walks a :class:`FaultSchedule` across training batches.

    One injector per engine run.  :meth:`begin_batch` must be called once
    per batch in batch order; it activates this batch's events, expires
    transients, appends to the replayable :attr:`event_log`, and returns
    the :class:`BatchFaultState` the engine threads into simulation and
    recovery.
    """

    def __init__(
        self, schedule: FaultSchedule, seed: SeedLike = None
    ) -> None:
        self.schedule = schedule
        self._rng = make_rng(schedule.seed if seed is None else seed)
        self.failed: set = set()
        #: Active transient faults as (event, last_active_batch) pairs.
        self._active: List[Tuple[FaultEvent, int]] = []
        #: Append-only activation log; :meth:`log_json` serializes it
        #: canonically for the bit-identical replay assertion.
        self.event_log: List[dict] = []
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    def begin_batch(self, batch: int) -> BatchFaultState:
        self._active = [
            (event, last) for event, last in self._active if last >= batch
        ]
        new_failures: List[int] = []
        for event in self.schedule.events_at(batch):
            if event.device in self.failed:
                continue  # a dead device cannot fault again
            entry = event.as_dict()
            entry["activated_at"] = int(batch)
            self.event_log.append(entry)
            if event.kind == FAIL_STOP:
                self.failed.add(event.device)
                new_failures.append(event.device)
                self.stats.fail_stops += 1
            else:
                self._active.append((event, batch + event.duration - 1))
                if event.kind == STRAGGLER:
                    self.stats.stragglers += 1
                else:
                    self.stats.link_faults += 1
        slowdowns: Dict[int, float] = {}
        link_faults: Dict[Tuple[int, int], FaultEvent] = {}
        for event, _last in self._active:
            if event.device in self.failed:
                continue
            if event.kind == STRAGGLER:
                slowdowns[event.device] = max(
                    slowdowns.get(event.device, 1.0), event.factor
                )
            else:
                link_faults[(event.device, event.peer)] = event
        return BatchFaultState(
            batch=batch,
            new_failures=tuple(sorted(new_failures)),
            failed=tuple(sorted(self.failed)),
            slowdowns=slowdowns,
            link_faults=link_faults,
        )

    # ------------------------------------------------------------------
    def degraded_topology(
        self, topology: DeviceTopology, state: BatchFaultState
    ):
        """The topology this batch's schedule should cost transfers on —
        the base topology when no link fault is active, otherwise a
        :class:`DegradedTopology` view charging retry + backoff."""
        if not state.link_faults:
            return topology
        return DegradedTopology(topology, state.link_faults, self)

    def draw_link_retries(self, loss_prob: float) -> int:
        """Seeded geometric retry draw for one transfer on a lossy link."""
        retries = 0
        while retries < MAX_LINK_RETRIES and self._rng.random() < loss_prob:
            retries += 1
        return retries

    def log_json(self) -> str:
        """Canonical serialization of the event log (sorted keys, no
        whitespace variance) — byte-identical across replayed runs."""
        return json.dumps(self.event_log, sort_keys=True)


class DegradedTopology:
    """A read-only :class:`DeviceTopology` view with faulty links.

    Every attribute delegates to the base topology; only
    :meth:`transfer_time` differs — on a faulty link the base time is
    scaled by the fault's slowdown factor, and each seeded drop costs one
    retransmission at the degraded rate plus exponential backoff
    (``LINK_BACKOFF_S * 2**attempt``).  Retry counts and backoff seconds
    accumulate into the owning injector's :class:`FaultStats`.
    """

    def __init__(
        self,
        base: DeviceTopology,
        link_faults: Mapping[Tuple[int, int], FaultEvent],
        injector: FaultInjector,
    ) -> None:
        self._base = base
        self._link_faults = dict(link_faults)
        self._injector = injector

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def _fault_for(self, src: int, dst: int) -> Optional[FaultEvent]:
        return self._link_faults.get((src, dst)) or self._link_faults.get(
            (dst, src)
        )

    def transfer_time(
        self,
        src: int,
        dst: int,
        num_bytes: float,
        scattered: bool = False,
        direction: Optional[str] = None,
    ) -> float:
        base_s = self._base.transfer_time(
            src, dst, num_bytes, scattered=scattered, direction=direction
        )
        fault = self._fault_for(src, dst)
        if fault is None:
            return base_s
        total = base_s * fault.factor
        retries = self._injector.draw_link_retries(fault.loss_prob)
        backoff = 0.0
        for attempt in range(retries):
            backoff += LINK_BACKOFF_S * (2.0**attempt)
        if retries:
            self._injector.stats.link_retries += retries
            self._injector.stats.retry_backoff_s += backoff
        return total + retries * base_s * fault.factor + backoff
