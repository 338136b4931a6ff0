"""`BatchPlan` — the product of the batch-planning layer.

One plan captures everything the paper derives from a batch's culling
results before any kernel runs (§4.2): the scheduled microbatch order
(§4.2.3), the precise-caching transfer plan (§4.2.1), the overlapped-Adam
finalization chunks (§4.2.2), and the analytics the evaluation figures
read off (load/store/cached counts — Figure 14).

The same plan object drives both execution modes:

- the functional engines iterate :attr:`BatchPlan.steps` and
  :attr:`BatchPlan.adam_chunks` to move real NumPy arrays
  (:mod:`repro.engines.clm`);
- the simulator DAG builder (:func:`repro.core.pipeline.add_clm_batch`)
  emits one load/forward/backward/store/adam task group per step.

Because both consume the identical steps, simulated and functional
transfer volumes reconcile by construction — asserted by
``tests/planning/test_reconciliation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.planning import adam_overlap
from repro.planning.caching import (
    MicrobatchStep,
    total_cached_count,
    total_load_count,
    total_store_count,
    validate_plan,
)


@dataclass(frozen=True)
class BatchPlan:
    """The full schedule of one training batch, derived once, reused by
    every consumer.

    Field → paper mapping:

    - ``order`` / ``strategy`` — the microbatch permutation (§4.2.3,
      Table 4);
    - ``steps`` — per-microbatch loads/cached/stores/carried partitions
      of each working set ``S_i`` (§4.2.1);
    - ``adam_chunks`` — the finalized sets ``F_1 .. F_B`` eligible for
      eager CPU Adam (§4.2.2, Figure 7);
    - ``touched`` — the union of all ``S_i`` (the sparse-Adam row set);
    - ``total_loads`` / ``total_stores`` / ``total_cached`` — the Figure 14
      analytics.
    """

    strategy: str
    enable_cache: bool
    num_gaussians: int
    #: Permutation applied to the caller's batch: slot k ran view
    #: ``view_ids[k]`` which was input position ``order[k]``.
    order: Tuple[int, ...]
    #: View ids in scheduled order (``steps[k].view_id == view_ids[k]``).
    view_ids: Tuple[int, ...]
    steps: Tuple[MicrobatchStep, ...]
    touched: np.ndarray
    #: The finalized sets ``F_1 .. F_B`` (§4.2.2): chunk ``j`` holds the
    #: rows whose last touching microbatch is ``j``, sorted.
    adam_chunks: Tuple[np.ndarray, ...]

    # -- shape ----------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return len(self.steps)

    @property
    def adam_chunk_sizes(self) -> List[int]:
        return [int(c.size) for c in self.adam_chunks]

    # -- Figure 14 analytics --------------------------------------------
    @property
    def total_loads(self) -> int:
        """Gaussians fetched CPU->GPU over the whole batch."""
        return total_load_count(self.steps)

    @property
    def total_stores(self) -> int:
        """Gradient rows offloaded GPU->CPU over the whole batch."""
        return total_store_count(self.steps)

    @property
    def total_cached(self) -> int:
        """GPU->GPU cache copies (no PCIe traffic)."""
        return total_cached_count(self.steps)

    # -- invariants -----------------------------------------------------
    def validate(self) -> None:
        """Assert every §4.2 invariant; raises AssertionError on violation.

        Checks the per-step partitions (loads ∪ cached = stores ∪ carried
        = ``S_i``), that the Adam chunks are pairwise disjoint with union
        ``touched`` and ``F_j ⊆ S_j``, and that every touched Gaussian is
        stored exactly once *after its final microbatch* — the property
        that makes overlapped CPU Adam safe (§4.2.2).
        """
        assert len(self.adam_chunks) == len(self.steps)
        assert sorted(self.order) == list(range(len(self.steps)))
        validate_plan(self.steps)
        sets = [s.working_set for s in self.steps]
        last = adam_overlap.finalization_positions(sets, self.num_gaussians)
        seen = np.empty(0, dtype=np.int64)
        for position, (step, chunk) in enumerate(
            zip(self.steps, self.adam_chunks), start=1
        ):
            assert step.position == position - 1
            assert np.intersect1d(chunk, seen).size == 0, (
                f"Adam chunk {position} overlaps an earlier chunk"
            )
            assert np.isin(chunk, step.working_set).all(), (
                f"Adam chunk {position} is not a subset of S_{position}"
            )
            assert (last[chunk] == position).all(), (
                f"chunk {position} holds rows finalized elsewhere"
            )
            # Final store of each Gaussian is its finalization microbatch.
            assert (last[step.stores] >= position).all()
            finalized_here = step.stores[last[step.stores] == position]
            assert np.array_equal(np.sort(finalized_here), np.sort(chunk)), (
                f"rows finalized at {position} not stored there"
            )
            seen = np.union1d(seen, chunk)
        assert np.array_equal(seen, self.touched), (
            "Adam chunks do not partition the touched union"
        )

