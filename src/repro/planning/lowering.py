"""`lower_batch` — one CLM batch as a node list (paper §4.2, Figure 6).

A batch is a linear chain of microbatches with one finalized Adam chunk
hanging off each.  Only three kinds of work can be scheduled
independently, so only three node kinds exist:

- ``step`` — one whole microbatch (assemble, forward, backward, retire).
  The spine is linear by construction — consecutive steps share the
  double-buffered working set and gradient accumulation is
  order-sensitive — so ``step.i`` depends on ``step.i-1`` and nothing
  else;
- ``adam`` — the CPU Adam of one non-empty finalized chunk ``F_i``
  (§4.2.2).  Chunks are pairwise disjoint, so no edge joins two of them;
  ``adam.i`` waits for ``step.i`` when Adam is overlapped and for the
  last ``step`` under the batch-end ablation;
- ``critical_adam`` — the GPU-side update of the resident critical
  attributes, after the last ``step``.

List order is a valid inline schedule (dependencies only point
backwards), and it is the order the executors, the auto-tuner's
prediction and the tests all read.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.planning.plan import BatchPlan


class BatchNode(NamedTuple):
    """One schedulable unit of a lowered batch."""

    name: str
    #: ``"step"``, ``"adam"`` or ``"critical_adam"``.
    kind: str
    #: Microbatch position (``plan.steps[index]`` / ``plan.adam_chunks
    #: [index]``); -1 for ``critical_adam``.
    index: int
    #: Positions in the node list that must complete first.
    deps: Tuple[int, ...]


def lower_batch(plan: BatchPlan, overlap_adam: bool) -> List[BatchNode]:
    """Lower ``plan`` to its node list (empty for an empty batch)."""
    nodes: List[BatchNode] = []
    chunk_sizes = plan.adam_chunk_sizes
    last_step = -1

    def add(kind: str, index: int, dep: int) -> None:
        name = kind if index < 0 else f"{kind}.{index}"
        nodes.append(BatchNode(name, kind, index, (dep,) if dep >= 0 else ()))

    for i in range(plan.batch_size):
        add("step", i, last_step)
        last_step = len(nodes) - 1
        if overlap_adam and chunk_sizes[i]:
            add("adam", i, last_step)
    if last_step < 0:
        return nodes
    if not overlap_adam:
        for i, size in enumerate(chunk_sizes):
            if size:
                add("adam", i, last_step)
    add("critical_adam", -1, last_step)
    return nodes
