"""Graceful degradation for the serving loop.

Production render serving fails in three characteristic ways the happy
path upstairs never sees: a render attempt faults transiently (a driver
hiccup, a preempted kernel), a view keeps faulting (a poisoned asset, a
broken replica), and offered load outruns capacity.  This module holds
one mechanism per failure shape, all deterministic and all surfaced in
the :class:`~repro.serving.metrics.ServingReport`:

- **retry with exponential backoff** — a transiently-failing render is
  retried up to ``retry_max`` times, each retry costing
  ``retry_backoff_s * 2**attempt`` on the virtual clock, so retries are
  *visible in the latency distribution* instead of free;
- **circuit breaker per fault domain** — ``breaker_threshold``
  consecutive exhausted-retry failures on one view open its breaker for
  ``breaker_cooldown_s`` of virtual time; while open, requests for that
  view fast-fail without burning render capacity (and without resetting
  the cooldown), then one probe is admitted half-open;
- **degraded mode** — when queue depth crosses
  ``degrade_high_watermark`` of capacity, every batch renders
  ``degrade_lod_bump`` LOD levels coarser than the camera's distance
  alone would choose, shrinking working sets until depth falls below
  ``degrade_low_watermark`` (hysteresis, so the mode doesn't flap).

Faults themselves come from :class:`RenderFaultInjector` — a seeded
attempt-level fault source, the serving-side sibling of
:class:`repro.resilience.faults.FaultInjector` — so every chaos run is
replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.utils.rng import make_rng


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the serving fault-handling path.

    The retry/breaker machinery is always armed (it is inert without
    faults); degraded mode is opt-in via ``enable_degrade`` because it
    intentionally trades image detail for latency.
    """

    #: Retries after the first failed attempt (total attempts = 1 + max).
    retry_max: int = 2
    #: Virtual seconds charged for attempt ``k``'s backoff:
    #: ``retry_backoff_s * 2**k``.
    retry_backoff_s: float = 2e-3
    #: Consecutive exhausted-retry failures that open a view's breaker.
    breaker_threshold: int = 3
    #: Virtual seconds an open breaker fast-fails before half-opening.
    breaker_cooldown_s: float = 0.25
    #: Queue depth (fraction of capacity) that *enters* degraded mode.
    degrade_high_watermark: float = 0.75
    #: Queue depth (fraction of capacity) that *leaves* degraded mode.
    degrade_low_watermark: float = 0.25
    #: Extra LOD levels applied to every render while degraded.
    degrade_lod_bump: int = 1
    enable_degrade: bool = False

    def __post_init__(self) -> None:
        if self.retry_max < 0:
            raise ValueError("retry_max must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if not 0.0 <= self.degrade_low_watermark <= self.degrade_high_watermark:
            raise ValueError(
                "watermarks must satisfy 0 <= low <= high "
                f"(got {self.degrade_low_watermark}, "
                f"{self.degrade_high_watermark})"
            )
        if self.degrade_lod_bump < 0:
            raise ValueError("degrade_lod_bump must be >= 0")


class RenderFaultInjector:
    """Seeded transient render faults, drawn per attempt.

    ``fault_rate`` is the probability any single render *attempt* fails;
    ``view_rates`` overrides it per view id (e.g. one poisoned view at
    rate 1.0 to exercise the breaker).  Draws come from one seeded
    stream *per view* — the n-th attempt a view ever makes draws the
    same verdict in every run, even though batch composition (and hence
    global attempt interleaving) depends on measured render seconds.
    """

    def __init__(
        self,
        fault_rate: float = 0.0,
        seed: int = 0,
        view_rates: Optional[Mapping[int, float]] = None,
    ) -> None:
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        self.fault_rate = float(fault_rate)
        self.view_rates = dict(view_rates or {})
        self.seed = int(seed)
        self._view_rngs: Dict[int, object] = {}
        #: Failed attempts injected so far.
        self.injected = 0

    def attempt_fails(self, view_id: int, attempt: int) -> bool:
        """Whether this render attempt faults (advances the view's RNG
        stream)."""
        rate = self.view_rates.get(view_id, self.fault_rate)
        if rate <= 0.0:
            return False
        rng = self._view_rngs.get(view_id)
        if rng is None:
            rng = make_rng((self.seed, view_id))
            self._view_rngs[view_id] = rng
        if rng.random() < rate:  # drawn even at rate 1.0: streams align
            self.injected += 1
            return True
        return False


@dataclass
class BreakerStats:
    """Cumulative circuit-breaker counters for one serving run."""

    trips: int = 0  # closed/half-open -> open transitions
    fast_fails: int = 0  # requests rejected while open

    def as_dict(self) -> dict:
        return {"trips": self.trips, "fast_fails": self.fast_fails}


class CircuitBreaker:
    """Per-domain consecutive-failure breaker over the virtual clock.

    A *domain* is the unit that fails together — here the served view id,
    the serving analogue of the trainer's per-device fault domain.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._failures: Dict[int, int] = {}
        self._open_until: Dict[int, float] = {}
        self.stats = BreakerStats()

    def allow(self, domain: int, now: float) -> bool:
        """Whether a request for ``domain`` may attempt a render at
        ``now``; an open breaker fast-fails it (counted), a past-cooldown
        breaker admits one half-open probe."""
        open_until = self._open_until.get(domain)
        if open_until is not None:
            if now < open_until:
                self.stats.fast_fails += 1
                return False
            # Half-open: admit this probe; its outcome decides the state.
            del self._open_until[domain]
        return True

    def record_success(self, domain: int) -> None:
        self._failures.pop(domain, None)
        self._open_until.pop(domain, None)

    def record_failure(self, domain: int, now: float) -> None:
        count = self._failures.get(domain, 0) + 1
        if count >= self.threshold:
            self._open_until[domain] = now + self.cooldown_s
            self._failures[domain] = 0  # re-arm for the half-open probe
            self.stats.trips += 1
        else:
            self._failures[domain] = count


class DegradationController:
    """Hysteresis switch between full-detail and degraded serving."""

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.degraded = False
        #: Batches dispatched while in degraded mode.
        self.degraded_batches = 0

    def update(self, queue_depth: int, capacity: int) -> int:
        """Advance the switch on the current queue depth; returns the LOD
        bump to apply to the next batch (0 when healthy/disabled)."""
        if not self.config.enable_degrade:
            return 0
        fill = queue_depth / max(1, capacity)
        if self.degraded:
            if fill <= self.config.degrade_low_watermark:
                self.degraded = False
        elif fill >= self.config.degrade_high_watermark:
            self.degraded = True
        return self.config.degrade_lod_bump if self.degraded else 0
