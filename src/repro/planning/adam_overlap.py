"""Overlapped CPU Adam planning (paper §4.2.2).

For a scheduled batch ``S_1 .. S_B``, a Gaussian ``g``'s *finalization
microbatch* is ``L_g = max{i : g in S_i}`` — after microbatch ``L_g``
completes, ``g``'s accumulated gradient can never change again within the
batch, so its Adam update may run immediately on the CPU thread, hidden
under the GPU compute of microbatches ``L_g+1 .. B``.  Only the chunk
``F_B`` (Gaussians last touched by the final microbatch) cannot overlap
(Figure 7).

``adam_chunks`` returns ``F_1 .. F_B``; untouched Gaussians (``F_0`` in the
paper's notation) receive no gradient and — under sparse-Adam semantics —
no update, so they are not scheduled at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


def _last_touch(sets: Sequence[np.ndarray]) -> "tuple[np.ndarray, np.ndarray]":
    """``(touched, last)``: the union of ``sets`` and, row for row of it, the
    1-based position of the last set holding that row — from one stable
    sort of what the batch touches (the sets are sorted runs; ``np.unique``
    hashes instead, at seven times the cost), never of the model."""
    rows = np.concatenate([np.empty(0, dtype=np.int64), *sets])
    order = np.argsort(rows, kind="stable")  # equal rows: latest set last
    rows = rows[order]
    # Last entry of each run of equal rows (the slice: no entry, no run).
    ends = np.append(rows[1:] != rows[:-1], True)[: rows.size]
    positions = np.repeat(np.arange(1, len(sets) + 1), [s.size for s in sets])
    return rows[ends], positions[order][ends]


def touched_union(sets: Sequence[np.ndarray]) -> np.ndarray:
    """All Gaussians any microbatch of the batch touches."""
    if len(sets) == 1:  # every single-view serving plan: the set itself
        return sets[0].copy()
    return _last_touch(sets)[0]


def finalization_positions(
    sets: Sequence[np.ndarray], num_gaussians: int
) -> np.ndarray:
    """``L_g`` per Gaussian: 1-based position of its last touching
    microbatch, 0 for untouched Gaussians."""
    touched, last = _last_touch(sets)
    dense = np.zeros(num_gaussians, dtype=np.int64)
    dense[touched] = last
    return dense


def adam_chunks(
    sets: Sequence[np.ndarray], num_gaussians: int
) -> List[np.ndarray]:
    """Per-microbatch finalized sets ``F_1 .. F_B`` (sorted index arrays).

    Invariants (property-tested): the chunks are pairwise disjoint, their
    union is the union of all ``S_i``, and chunk ``j`` is a subset of
    ``S_j``.
    """
    touched, last = _last_touch(sets)
    if touched.size and touched[-1] >= num_gaussians:
        raise IndexError(f"row {touched[-1]} of {num_gaussians} Gaussians")
    return [touched[last == position] for position in range(1, len(sets) + 1)]


@dataclass(frozen=True)
class MakespanReconciliation:
    """One batch's predicted vs measured end-to-end makespan.

    Compares the full schedule — the discrete-event makespan the
    auto-tuner predicted for the chosen configuration against the wall
    time the batch actually took.  ``relative_error`` is what the tuner
    feeds back (and what ``PerfCounters``/``BenchRecord`` report): under
    a calibrated cost model it should be small; right after construction
    (specs priors only) it is legitimately large.
    """

    predicted_s: float
    measured_s: float

    @property
    def error_s(self) -> float:
        """Signed prediction error (positive = batch ran slower than
        predicted)."""
        return self.measured_s - self.predicted_s

    @property
    def relative_error(self) -> float:
        """``|predicted - measured| / measured`` (0 for unmeasured)."""
        if self.measured_s <= 0.0:
            return 0.0
        return abs(self.error_s) / self.measured_s

    def within(self, tolerance: float) -> bool:
        return self.relative_error <= tolerance


def reconcile_predicted_makespan(
    predicted_s: float, measured_s: float
) -> MakespanReconciliation:
    """Reconcile a simulator-predicted batch makespan against the
    measured wall time (the auto-tuner's per-batch feedback signal)."""
    return MakespanReconciliation(
        predicted_s=float(predicted_s), measured_s=float(measured_s)
    )
