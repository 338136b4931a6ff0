"""Deterministic discrete-event scheduler over serial resources.

A :class:`Task` names a resource (e.g. ``"gpu0.compute"``, ``"gpu0.comm"``,
``"cpu0.adam"``), a duration, and dependencies.  Each resource runs one task
at a time — exactly the semantics of a CUDA stream or a dedicated CPU
thread.  Dependencies model CUDA events / the pinned-memory signal buffer of
paper §5.3–5.4.  Priorities break ties among tasks that are ready on the
same resource at the same instant, which is how we reproduce the paper's
"communication stream priority" observation (§5.3).

The scheduler is event-driven: a heap of task completions advances the
clock; whenever a resource frees (or a dependency resolves), the
highest-priority ready task on that resource starts.  Ties resolve by
insertion order, making runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (specs -> pcie only)
    from repro.hardware.specs import DeviceTopology


@dataclass
class Task:
    """One unit of simulated work."""

    task_id: int
    name: str
    resource: str
    duration: float
    deps: Tuple[int, ...] = ()
    priority: int = 0
    kind: str = "generic"
    payload: dict = field(default_factory=dict)


@dataclass
class TaskRecord:
    """Scheduled placement of a task."""

    task: Task
    start: float
    end: float


@dataclass(frozen=True)
class ResourceUtilization:
    """Per-resource busy summary of a schedule.

    ``busy_s`` maps resource name -> busy seconds; fractions are relative
    to the schedule makespan.  Produced by :meth:`ScheduleResult.utilization`
    so consumers stop recomputing this from ``busy_time``/``intervals`` by
    hand.
    """

    makespan: float
    busy_s: Mapping[str, float]

    def fraction(self, resource: str) -> float:
        """Busy fraction of ``resource`` in [0, 1]."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_s.get(resource, 0.0) / self.makespan

    @property
    def busy_fraction(self) -> Dict[str, float]:
        """Resource -> busy fraction in [0, 1]."""
        return {res: self.fraction(res) for res in self.busy_s}

    def summary(self) -> Dict[str, float]:
        """Flat dict for logging/benchmark ``extra`` payloads."""
        out = {"makespan": self.makespan}
        for res, busy in sorted(self.busy_s.items()):
            out[f"busy.{res}"] = busy
            out[f"util.{res}"] = self.fraction(res)
        return out


@dataclass
class ScheduleResult:
    """Outcome of a simulation run."""

    records: Dict[int, TaskRecord]
    makespan: float

    def record(self, task_id: int) -> TaskRecord:
        return self.records[task_id]

    def end_of(self, task_id: int) -> float:
        return self.records[task_id].end

    def intervals(self, resource: str, kind: Optional[str] = None) -> List[Tuple[float, float]]:
        """Sorted busy intervals of ``resource`` (optionally one task kind)."""
        out = [
            (r.start, r.end)
            for r in self.records.values()
            if r.task.resource == resource
            and (kind is None or r.task.kind == kind)
            and r.end > r.start
        ]
        out.sort()
        return out

    def busy_time(self, resource: str, kind: Optional[str] = None) -> float:
        return sum(e - s for s, e in self.intervals(resource, kind))

    def tasks_of_kind(self, kind: str) -> List[TaskRecord]:
        recs = [r for r in self.records.values() if r.task.kind == kind]
        recs.sort(key=lambda r: r.start)
        return recs

    def resources(self) -> Tuple[str, ...]:
        """Every resource that appears in the schedule, sorted."""
        return tuple(sorted({r.task.resource for r in self.records.values()}))

    def utilization(
        self, resources: Optional[Iterable[str]] = None
    ) -> ResourceUtilization:
        """Per-resource busy seconds + fractions over the makespan.

        With ``resources`` given, the summary is restricted to those names
        (absent ones report 0.0 busy) — e.g. a topology's
        ``compute_resources()`` for a per-device GPU utilization table.
        """
        busy: Dict[str, float] = {}
        for rec in self.records.values():
            if rec.end > rec.start:
                res = rec.task.resource
                busy[res] = busy.get(res, 0.0) + (rec.end - rec.start)
        if resources is not None:
            busy = {res: busy.get(res, 0.0) for res in resources}
        return ResourceUtilization(makespan=self.makespan, busy_s=busy)


class Simulator:
    """Builds a task DAG and schedules it.

    Typical use::

        sim = Simulator()
        load = sim.add("LD 1", "gpu0.comm", 2e-3, priority=1, kind="load")
        fwd = sim.add("FWD 1", "gpu0.compute", 5e-3, deps=[load], kind="forward")
        result = sim.run()

    With a :class:`~repro.hardware.specs.DeviceTopology`, resource names
    are validated against it — tasks land on ``gpu{k}.compute`` /
    ``gpu{k}.comm`` / ``cpu{k}.adam`` / ``cpu.sched`` and any other name
    raises.  Without one (the default), any string is a valid serial
    resource.
    """

    def __init__(self, topology: Optional["DeviceTopology"] = None) -> None:
        self._tasks: Dict[int, Task] = {}
        self._counter = itertools.count()
        self._topology = topology

    @property
    def topology(self) -> Optional["DeviceTopology"]:
        return self._topology

    def add(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: Iterable[int] = (),
        priority: int = 0,
        kind: str = "generic",
        **payload,
    ) -> int:
        """Register a task; returns its id for use as a dependency."""
        if duration < 0:
            raise ValueError(f"negative duration for task {name}")
        if self._topology is not None:
            resource = self._topology.canonicalize(resource)
        task_id = next(self._counter)
        dep_tuple = tuple(deps)
        for d in dep_tuple:
            if d not in self._tasks:
                raise KeyError(f"unknown dependency {d} for task {name}")
        self._tasks[task_id] = Task(
            task_id=task_id,
            name=name,
            resource=resource,
            duration=duration,
            deps=dep_tuple,
            priority=priority,
            kind=kind,
            payload=dict(payload),
        )
        return task_id

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def run(self) -> ScheduleResult:
        """Schedule every registered task; returns placements and makespan."""
        tasks = self._tasks
        successors: Dict[int, List[int]] = {tid: [] for tid in tasks}
        remaining: Dict[int, int] = {}
        for tid, task in tasks.items():
            remaining[tid] = len(task.deps)
            for dep in task.deps:
                successors[dep].append(tid)

        # Per-resource ready queues ordered by (-priority, insertion id).
        pending: Dict[str, list] = {}
        running: Dict[str, Optional[int]] = {}
        free_at: Dict[str, float] = {}

        def push_ready(tid: int) -> None:
            res = tasks[tid].resource
            pending.setdefault(res, [])
            running.setdefault(res, None)
            free_at.setdefault(res, 0.0)
            heapq.heappush(pending[res], (-tasks[tid].priority, tid))

        records: Dict[int, TaskRecord] = {}
        completion: list = []  # heap of (end, seq, resource, task_id)
        seq = itertools.count()

        def try_start(res: str, now: float) -> None:
            if running.get(res) is not None or not pending.get(res):
                return
            _, tid = heapq.heappop(pending[res])
            task = tasks[tid]
            start = max(now, free_at.get(res, 0.0))
            end = start + task.duration
            records[tid] = TaskRecord(task=task, start=start, end=end)
            running[res] = tid
            free_at[res] = end
            heapq.heappush(completion, (end, next(seq), res, tid))

        for tid in tasks:
            if remaining[tid] == 0:
                push_ready(tid)
        for res in list(pending):
            try_start(res, 0.0)

        makespan = 0.0
        while completion:
            now = completion[0][0]
            finished_resources = set()
            # Drain all completions at this instant before dispatching, so
            # same-time priorities are honoured deterministically.
            while completion and completion[0][0] == now:
                _, _, res, tid = heapq.heappop(completion)
                running[res] = None
                finished_resources.add(res)
                makespan = max(makespan, now)
                for succ in successors[tid]:
                    remaining[succ] -= 1
                    if remaining[succ] == 0:
                        push_ready(succ)
                        finished_resources.add(tasks[succ].resource)
            for res in finished_resources:
                try_start(res, now)

        if len(records) != len(tasks):
            unscheduled = [tasks[t].name for t in tasks if t not in records]
            raise RuntimeError(
                f"dependency cycle: {len(unscheduled)} tasks never ran "
                f"(e.g. {unscheduled[:5]})"
            )
        return ScheduleResult(records=records, makespan=makespan)
