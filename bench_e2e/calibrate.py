"""Calibrated time: wall seconds divided by the machine's slowdown.

The sandbox this benchmark runs in is a shared 2-vCPU microVM whose speed
wanders by +-20% over seconds to minutes (a pure-Python spin loop shows
an inter-quartile spread of 11%; the same training batch re-run in a loop
takes 145-235 ms).  Medians over more samples do not remove a level that
moves for a whole run, so every end-to-end timing is paired with an
adjacent execution of a fixed *reference kernel* — NumPy and interpreter
work that is independent of the program under test — and reported as

    calibrated = wall / (reference_wall / REF_NOMINAL_S)

i.e. in seconds of a machine on which the reference takes its nominal
time.  A change to the program moves `wall` and not the reference, so it
shows in full; a slower or busier machine moves both and cancels.  On the
defining box this took the run-to-run spread of `B / median(batch wall)`
from 0.16-0.18 to 0.04 (README.md, "Steadiness").

Per-layer metrics stay in raw wall time; `calibration.slowdown` in the
traced pass says what the machine was doing while they were taken.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: What one `Reference.sample()` takes on the box the benchmark was
#: defined on, in its usual state.  Only sets the scale of calibrated
#: seconds; never changes which of two runs is faster.
REF_NOMINAL_S = 0.0135


class Reference:
    """The reference kernel: the instruction mix of the program's hot
    paths (elementwise transcendental, gather, segment sum, small BLAS,
    sort, interpreter loop) on fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random((6000, 16))
        self._index = rng.integers(0, 6000, size=20000)
        self._bins = self._index % 512
        self._square = rng.random((64, 64))
        self._keys = rng.random(50_000)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns (and records) its wall seconds."""
        start = time.perf_counter()
        acc = 0.0
        for _ in range(6):
            falloff = np.exp(-self._table * self._table)
            gathered = falloff[self._index]
            acc += float(
                np.bincount(
                    self._bins, weights=gathered[:, 0], minlength=512
                ).sum()
            )
            for _ in range(20):
                self._square @ self._square
            np.sort(self._keys)
            for i in range(3000):
                acc += i * 0.5
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def median_slowdown(self) -> float:
        """The machine's slowdown over everything sampled so far."""
        return statistics.median(self.samples) / REF_NOMINAL_S


def slowdown(*reference_walls: float) -> float:
    """Machine slowdown from the reference samples adjacent to a
    measurement (their mean over the nominal time)."""
    return sum(reference_walls) / len(reference_walls) / REF_NOMINAL_S
