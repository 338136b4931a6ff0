"""Dependency task-graph executor — the general form of the overlap
runtime.

:class:`OverlapExecutor` hard-codes one pattern: a producer thread renders
while workers drain a queue of independent CPU-Adam chunks.  Here a batch
is a *dependency graph*, and any dependency-respecting execution order
must produce bit-identical arrays.

:class:`TaskGraph` declares the nodes (plain callables with integer-id
dependencies); :class:`GraphExecutor` runs a graph either inline
(``workers=0``: deterministic topological order on the calling thread) or
on a persistent worker pool (``workers>=1``: ready nodes execute in any
order, lowest node id first when several are ready).  Correctness never
depends on the schedule: callers only hand the executor graphs whose
concurrently-runnable nodes touch disjoint state.  The CLM engine binds
the node list of :func:`repro.planning.lower_batch` — ``step`` nodes (one
whole microbatch each) in a linear chain, because consecutive microbatches
share the working buffers and gradient accumulation is order-sensitive;
``adam`` nodes hanging off them with no edges between chunks, disjoint by
§4.2.2; ``critical_adam`` after the last step (see
``tests/runtime/test_graph_equivalence.py``).

Accounting (:class:`GraphStats`) mirrors :class:`ExecutorStats` where the
concepts coincide (``tasks``, ``task_s``, ``busy_span_s``, ``cancelled``)
and differs where the execution model does: in graph mode the producer
thread blocks in :meth:`GraphExecutor.run` for the whole graph, so
"hidden" seconds are the wall-clock span during which **two or more**
nodes genuinely ran concurrently (e.g. an ``adam`` chunk under the next
``step``) — 0 inline, 0 with one worker, and never larger
than the elapsed wall time.  ``kind_s`` sums execution seconds per node
kind; the engine reads a batch's non-critical Adam seconds from
``kind_s["adam"]``.

Fail-fast matches the overlap executor: once any node raises, every node
not yet started is cancelled (counted, never executed), the drain
completes, and :meth:`GraphExecutor.run` re-raises the first error
wrapped in :class:`WorkerError` — shared state stays exactly as the
completed nodes left it.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.executor import WorkerError


@dataclass(frozen=True)
class GraphTask:
    """One node of a :class:`TaskGraph` (immutable once added)."""

    task_id: int
    name: str
    kind: str
    fn: Callable
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    deps: Tuple[int, ...]


@dataclass(frozen=True)
class GraphStats:
    """Accounting of one :meth:`GraphExecutor.run` call."""

    #: Nodes that executed (cancelled nodes excluded).
    tasks: int
    #: Summed node execution seconds (concurrent workers' seconds add up).
    task_s: float
    #: Wall-clock span during which >= 1 node was executing.
    busy_span_s: float
    #: Wall-clock span during which >= 2 nodes executed concurrently —
    #: the seconds the graph genuinely overlapped work (0 inline / with
    #: one worker, since the producer blocks in ``run`` and contributes
    #: no compute of its own).
    hidden_s: float
    #: Wall-clock duration of the whole ``run`` call.
    wall_s: float
    #: Nodes cancelled by fail-fast after an earlier node crashed.
    cancelled: int = 0
    #: Execution seconds summed per node ``kind``.
    kind_s: Dict[str, float] = field(default_factory=dict)


class TaskGraph:
    """An append-only DAG of callables.

    Dependencies reference earlier node ids, so the graph is acyclic by
    construction; :meth:`GraphExecutor.run` still validates via Kahn's
    algorithm (defense against future mutation APIs).
    """

    def __init__(self, name: str = "batch") -> None:
        self.name = name
        self._tasks: List[GraphTask] = []

    def add(
        self,
        fn: Callable,
        *args: Any,
        name: Optional[str] = None,
        kind: str = "generic",
        deps: Tuple[int, ...] = (),
        **kwargs: Any,
    ) -> int:
        """Add ``fn(*args, **kwargs)`` as a node; returns its id.

        ``deps`` are ids of previously added nodes that must complete
        first; ``kind`` labels the node for :attr:`GraphStats.kind_s`.
        """
        task_id = len(self._tasks)
        dep_tuple = tuple(int(d) for d in deps)
        for d in dep_tuple:
            if not 0 <= d < task_id:
                raise ValueError(
                    f"dependency {d} of node {name or task_id} does not "
                    f"reference an earlier node"
                )
        self._tasks.append(
            GraphTask(
                task_id=task_id,
                name=name or f"{kind}.{task_id}",
                kind=kind,
                fn=fn,
                args=args,
                kwargs=kwargs,
                deps=dep_tuple,
            )
        )
        return task_id

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def tasks(self) -> Tuple[GraphTask, ...]:
        return tuple(self._tasks)


class GraphExecutor:
    """Executes :class:`TaskGraph` instances on a persistent worker pool.

    One executor serves many graphs (one per training batch); the worker
    threads outlive individual :meth:`run` calls, so graph execution adds
    no thread start/join cost to the batch.  ``workers=0`` executes every
    graph inline on the calling thread in deterministic topological order
    (ties broken by node id), making it the reference schedule that the
    pooled schedules must match bit-for-bit.
    """

    def __init__(self, workers: int = 0, name: str = "graph") -> None:
        self.workers = max(0, int(workers))
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        # Per-run state, loaded under the lock by run().
        self._tasks: Tuple[GraphTask, ...] = ()
        self._ready: List[int] = []
        self._remaining: Dict[int, int] = {}
        self._successors: Dict[int, List[int]] = {}
        self._pending = 0
        self._errors: List[BaseException] = []
        self._cancelled = 0
        self._done = 0
        self._task_s = 0.0
        self._kind_s: Dict[str, float] = {}
        # Concurrency spans: count of running nodes, busy (>=1) and
        # overlapped (>=2) interval starts.
        self._running = 0
        self._busy_since = 0.0
        self._busy_span_s = 0.0
        self._multi_since = 0.0
        self._hidden_s = 0.0
        self._threads: List[threading.Thread] = []
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, daemon=True, name=f"{name}-{i}"
            )
            t.start()
            self._threads.append(t)

    # -- public API ------------------------------------------------------
    def run(self, graph: TaskGraph) -> GraphStats:
        """Execute every node of ``graph``; returns the run's stats.

        Blocks until the graph drained.  The first node exception is
        re-raised as :class:`WorkerError` (original chained) after the
        fail-fast drain — never on a worker thread.
        """
        if self._closed:
            raise RuntimeError("run() on a closed GraphExecutor")
        tasks = graph.tasks
        self._validate_acyclic(tasks)
        start_wall = time.perf_counter()
        if self.workers == 0:
            stats = self._run_inline(tasks, start_wall)
        else:
            stats = self._run_pooled(tasks, start_wall)
        if self._errors:
            errors, self._errors = self._errors, []
            raise WorkerError(
                f"{len(errors)} graph node(s) failed: {errors[0]!r}"
            ) from errors[0]
        return stats

    @property
    def failed(self) -> bool:
        with self._lock:
            return bool(self._errors)

    def close(self) -> None:
        """Stop the worker threads (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "GraphExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared machinery ------------------------------------------------
    @staticmethod
    def _validate_acyclic(tasks: Tuple[GraphTask, ...]) -> None:
        # TaskGraph.add only accepts backward edges, so this is a cheap
        # invariant re-check rather than a real cycle hunt.
        for task in tasks:
            for d in task.deps:
                if d >= task.task_id:
                    raise ValueError(f"cycle through node {task.name}")

    def _run_inline(
        self, tasks: Tuple[GraphTask, ...], start_wall: float
    ) -> GraphStats:
        remaining = {t.task_id: len(t.deps) for t in tasks}
        successors: Dict[int, List[int]] = {t.task_id: [] for t in tasks}
        for t in tasks:
            for d in t.deps:
                successors[d].append(t.task_id)
        ready = [tid for tid, n in remaining.items() if n == 0]
        heapq.heapify(ready)
        done = 0
        cancelled = 0
        task_s = 0.0
        kind_s: Dict[str, float] = {}
        while ready:
            tid = heapq.heappop(ready)
            task = tasks[tid]
            if self._errors:
                cancelled += 1
            else:
                t0 = time.perf_counter()
                try:
                    task.fn(*task.args, **task.kwargs)
                except Exception as exc:  # surfaced by run()
                    self._errors.append(exc)
                duration = time.perf_counter() - t0
                task_s += duration
                kind_s[task.kind] = kind_s.get(task.kind, 0.0) + duration
                done += 1
            for succ in successors[tid]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    heapq.heappush(ready, succ)
        return GraphStats(
            tasks=done,
            task_s=task_s,
            busy_span_s=task_s,
            hidden_s=0.0,
            wall_s=time.perf_counter() - start_wall,
            cancelled=cancelled,
            kind_s=kind_s,
        )

    def _run_pooled(
        self, tasks: Tuple[GraphTask, ...], start_wall: float
    ) -> GraphStats:
        with self._cond:
            if self._pending:
                raise RuntimeError("GraphExecutor.run() is not reentrant")
            self._tasks = tasks
            self._remaining = {t.task_id: len(t.deps) for t in tasks}
            self._successors = {t.task_id: [] for t in tasks}
            for t in tasks:
                for d in t.deps:
                    self._successors[d].append(t.task_id)
            self._ready = [
                tid for tid, n in self._remaining.items() if n == 0
            ]
            heapq.heapify(self._ready)
            self._pending = len(tasks)
            self._done = 0
            self._cancelled = 0
            self._task_s = 0.0
            self._kind_s = {}
            self._busy_span_s = 0.0
            self._hidden_s = 0.0
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._pending == 0)
            stats = GraphStats(
                tasks=self._done,
                task_s=self._task_s,
                busy_span_s=self._busy_span_s,
                hidden_s=self._hidden_s,
                wall_s=time.perf_counter() - start_wall,
                cancelled=self._cancelled,
                kind_s=dict(self._kind_s),
            )
            self._tasks = ()
        return stats

    # -- the worker side -------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._ready or self._closed)
                if not self._ready:
                    if self._closed:
                        return
                    continue
                tid = heapq.heappop(self._ready)
                task = self._tasks[tid]
                if self._errors:  # fail-fast drain
                    self._cancelled += 1
                    self._complete_locked(tid)
                    continue
                now = time.perf_counter()
                if self._running == 0:
                    self._busy_since = now
                elif self._running == 1:
                    self._multi_since = now
                self._running += 1
            t0 = time.perf_counter()
            error: Optional[BaseException] = None
            try:
                task.fn(*task.args, **task.kwargs)
            except Exception as exc:  # noqa: BLE001 — surfaced by run()
                error = exc
            duration = time.perf_counter() - t0
            with self._cond:
                now = time.perf_counter()
                self._running -= 1
                if self._running == 0:
                    self._busy_span_s += now - self._busy_since
                elif self._running == 1:
                    self._hidden_s += now - self._multi_since
                self._done += 1
                self._task_s += duration
                self._kind_s[task.kind] = (
                    self._kind_s.get(task.kind, 0.0) + duration
                )
                if error is not None:
                    self._errors.append(error)
                self._complete_locked(tid)

    def _complete_locked(self, tid: int) -> None:
        """Resolve ``tid``'s successors and wake waiters (lock held)."""
        for succ in self._successors[tid]:
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                heapq.heappush(self._ready, succ)
        self._pending -= 1
        self._cond.notify_all()
