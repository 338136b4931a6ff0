"""A seeded generator of fail-stop schedules for the chaos tests.

``src/`` only replays schedules (:class:`repro.resilience.FaultSchedule`);
drawing one at random is test machinery, so it lives here.
"""

from typing import List, Optional

from repro.resilience import FaultEvent, FaultSchedule
from repro.utils.rng import make_rng


def generate_schedule(
    seed: int,
    num_devices: int,
    num_batches: int,
    fail_stop_prob: float,
    max_fail_stops: Optional[int] = None,
) -> FaultSchedule:
    """Draw a fail-stop schedule deterministically from ``seed``.

    Each (batch, device) cell of a live device fails with probability
    ``fail_stop_prob``; ``max_fail_stops`` caps the failures (default:
    ``num_devices - 1``, so at least one device always survives).
    """
    rng = make_rng(seed)
    if max_fail_stops is None:
        max_fail_stops = num_devices - 1
    events: List[FaultEvent] = []
    failed: set = set()
    for batch in range(num_batches):
        for device in range(num_devices):
            if (
                device not in failed
                and len(failed) < max_fail_stops
                and rng.random() < fail_stop_prob
            ):
                events.append(FaultEvent.fail_stop(batch, device))
                failed.add(device)
    return FaultSchedule(events=tuple(events))
