"""`repro.runtime` — the asynchronous execution runtime.

The paper's headline optimization (§4.2.2, §5.4) *hides* the CPU Adam of
finalized chunks behind the GPU compute of later microbatches.  Before
this package existed the repo only simulated that: the "overlapped" chunk
ran inline on the calling thread.  :class:`OverlapExecutor` makes the
overlap real — a small worker pool with a double-buffered task queue runs
the finalized-chunk CPU Adam (and store writeback staging) concurrently
with the next microbatch's forward/backward.  NumPy/BLAS release the GIL
inside their kernels, so this yields genuine wall-clock overlap on stock
CPython, and a batch-end barrier guarantees results remain bit-identical
to sequential execution (chunks touch pairwise-disjoint rows, so no
ordering between them is observable).

Both executors run the same description of a batch:
:func:`repro.planning.lower_batch` lowers a plan to ``step`` (one whole
microbatch), ``adam`` (one finalized chunk) and ``critical_adam`` nodes.
The engine either walks that list inline, handing ``adam`` nodes to
:meth:`OverlapExecutor.submit`, or binds it into a dependency
:class:`TaskGraph` for :class:`GraphExecutor`, whose worker pool may run
ready nodes in any dependency-respecting order — bit-identical by the
same disjointness argument, pinned by
``tests/runtime/test_graph_equivalence.py``.
"""

from repro.runtime.executor import ExecutorStats, OverlapExecutor, WorkerError
from repro.runtime.graph import GraphExecutor, GraphStats, GraphTask, TaskGraph

__all__ = [
    "OverlapExecutor",
    "ExecutorStats",
    "WorkerError",
    "TaskGraph",
    "GraphTask",
    "GraphExecutor",
    "GraphStats",
]
