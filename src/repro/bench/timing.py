"""Wall-clock timing for the micro-benchmarks: warm-up, median of N, and
the spread beside it.  Simulator-derived records are deterministic and
stay single-shot; a record that times real code goes through
:func:`median_time`, so a slow or lucky repeat neither makes nor hides a
regression, and carries the spread in its ``extra`` — which the
:func:`repeats_agree` gate reads, so a disturbed run is reported as
unresolved instead of being held to a speed floor.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, Tuple

#: Past this the repeats nearest the median — the ones it is read from —
#: sit half of it apart.  (Quiet runs read up to 0.23, on the 0.2 ms
#: ``transfer_plan_b8`` timing; the rest stay under 0.15.)
MAX_SPREAD = 0.5


def median_time(thunk: Callable[[], Any], repeats: int = 5) -> Tuple:
    """Call ``thunk`` once untimed (first-use builds, cache fills), then
    ``repeats`` times timed: (median seconds, spread, last result)."""
    result = thunk()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        samples.append(time.perf_counter() - start)
    return (*median_spread(samples), result)


def median_spread(samples) -> Tuple[float, float]:
    """(median, spread) of timed samples, as :func:`median_time` reports
    them — for a benchmark that times several things inside one thunk."""
    median = statistics.median(samples)
    # The spread is the median absolute deviation over the median, which
    # breaks down where the median does: a stalled minority (a BLAS pool
    # waking up costs the first calls after another workload ~0.4 s each)
    # moves neither, a disturbed majority moves both.
    mad = statistics.median(abs(s - median) for s in samples)
    return median, mad / median if median else 0.0


def repeats_agree(records: Dict[str, Dict]) -> None:
    """Gate for a wall-clock benchmark, declared first: every ``spread`` /
    ``*_spread`` of its records is under :data:`MAX_SPREAD`."""
    for variant, record in records.items():
        for key, value in record.get("extra", {}).items():
            if key == "spread" or key.endswith("_spread"):
                assert value < MAX_SPREAD, (
                    f"{variant} {key} {value:.2f} >= {MAX_SPREAD}: the "
                    "repeats disagree, measurement unresolved"
                )
