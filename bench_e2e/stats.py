"""Summary statistics the benchmark reports.

Timings are reported as a median with quartiles and the sample count
beside it; a tail percentile is only reported when at least
`MIN_BEYOND` samples lie beyond it.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

import numpy as np

#: Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a timing sample."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def tail_percentile(num_samples: int) -> float:
    """The highest candidate percentile with >= `MIN_BEYOND` samples
    beyond it (the median when even p90 has too few)."""
    picked = TAIL_CANDIDATES[0]
    for q in TAIL_CANDIDATES:
        # In tenths of a percent, so that 100 * (1 - 0.9) is exactly 10.
        if num_samples * (1000 - round(q * 10)) >= MIN_BEYOND * 1000:
            picked = q
    return picked


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q / 100.0))


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure for one metric over repeated runs."""
    q1, _, q3 = statistics.quantiles([float(v) for v in values], n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")
