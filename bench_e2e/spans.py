"""Span recording from outside the program.

The tracer lives entirely in the benchmark: a `Recorder` keeps spans in
memory, `installed()` swaps *public* callables of each layer for
recording proxies and restores the originals on exit, and the renderer /
serving render function are wrapped through the hooks the public API
already offers (`EngineConfig(renderer=...)`, `ServingSession(render_fn=)`).
No `_`-prefixed name is wrapped and nothing under `src/` changes.

Span arithmetic: a span's *self time* is its duration minus the union of
its children's intervals.  Children are the spans opened on the same
thread while it was open; a span opened on a worker thread is a root of
that thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: A span name, or a callable of the wrapped call's arguments giving one.
SpanName = Union[str, Callable[..., str]]


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional["Span"] = None
    tid: int = 0
    #: Batch or request-stream id the span belongs to (-1: none).
    item: int = -1
    #: Work count recorded at the boundary (rows, requests, ...).
    rows: float = 0.0
    children: List["Span"] = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store.  Proxies record only while `enabled`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        #: Stamped onto every span opened while it is set.
        self.item = -1
        #: `id(object) -> label`, for proxies on a method shared by
        #: several instances that should read as different spans.
        self.aliases: Dict[int, str] = {}
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=parent,
            tid=threading.get_ident(),
            item=self.item,
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, rows: float = 0.0) -> Iterator[Span]:
        span = self.begin(name)
        span.rows = rows
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(
        self,
        name: SpanName,
        fn: Callable,
        rows: Optional[Callable[..., float]] = None,
    ) -> Callable:
        """A proxy for `fn` that records one span per call while the
        recorder is enabled and is a plain pass-through otherwise.

        `name` may be a callable of the call's arguments; `rows`, when
        given, is called as `rows(result, *args, **kwargs)`.
        """

        def proxy(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if rows is not None:
                span.rows = float(rows(result, *args, **kwargs))
            return result

        proxy.__wrapped__ = fn
        proxy.__name__ = getattr(fn, "__name__", "proxy")
        return proxy

    # -- export -----------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Chrome trace-event ("X" complete events), Perfetto-loadable."""
        if not self.spans:
            return []
        origin = min(s.start for s in self.spans)
        index = {id(s): i for i, s in enumerate(self.spans)}
        tids = {t: i for i, t in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        return [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": tids[s.tid],
                "args": {
                    "id": index[id(s)],
                    "parent": index[id(s.parent)] if s.parent else -1,
                    "item": s.item,
                    "rows": s.rows,
                },
            }
            for s in self.spans
        ]

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events()}, fh)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by `intervals` (overlaps counted once)."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_time(span: Span) -> float:
    """Duration minus the part its children cover."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in span.children
    )
    return span.duration - covered


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + self_time(span)
    return totals


def total_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def rows_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.rows
    return totals


def named_gaps(root: Span) -> Dict[str, float]:
    """The root's unattributed time, split into the gaps between its
    consecutive children and named `before->after`.

    Overlapping children cannot occur on one thread, so a sorted sweep is
    exact; the gap values sum to `self_time(root)`.
    """
    gaps: Dict[str, float] = {}
    cursor = root.start
    previous = "start"
    for child in sorted(root.children, key=lambda s: s.start):
        if child.start > cursor:
            key = f"{previous}->{child.name}"
            gaps[key] = gaps.get(key, 0.0) + (child.start - cursor)
        cursor = max(cursor, child.end)
        previous = child.name
    if root.end > cursor:
        key = f"{previous}->end"
        gaps[key] = gaps.get(key, 0.0) + (root.end - cursor)
    return gaps


def descendants(span: Span) -> Iterator[Span]:
    for child in span.children:
        yield child
        yield from descendants(child)


# ---------------------------------------------------------------------------
# Proxy installation
# ---------------------------------------------------------------------------
def _len_of_arg(position: int) -> Callable[..., float]:
    """Row counter: the length of the positional argument at `position`
    (0 is `self`)."""

    def rows(_result, *args, **_kwargs) -> float:
        return float(len(args[position]))

    return rows


def proxy_targets(recorder: Recorder) -> List[Tuple[type, str, SpanName, Optional[Callable]]]:
    """`(owner class, attribute, span name, rows)` for every class-level
    proxy.  Imported lazily so this module loads without `repro`."""
    from repro.autotune import AutoTuner
    from repro.core.stores import (
        GpuCriticalStore,
        GpuWorkingSet,
        PinnedParameterStore,
    )
    from repro.engines.base import EngineBase
    from repro.gaussians.spatial import CullingGrid
    from repro.optim.packed_adam import PackedSparseAdam
    from repro.optim.sparse_adam import SparseAdam
    from repro.planning.planner import BatchPlanner
    from repro.runtime import GraphExecutor, OverlapExecutor
    from repro.serving.batcher import ServingBatcher
    from repro.serving.lod import LodSelector

    def packed_adam_name(self, *_args, **_kwargs) -> str:
        return "optim.adam_" + recorder.aliases.get(id(self), "packed")

    def culled_rows(_result, self, view_ids) -> float:
        return float(self.num_gaussians * len(view_ids))

    return [
        (EngineBase, "cull_views", "gaussians.cull", culled_rows),
        (BatchPlanner, "plan", "planning.plan",
         lambda plan, *_a, **_k: float(plan.total_loads)),
        (GpuWorkingSet, "assemble", "core.assemble", _len_of_arg(1)),
        (GpuWorkingSet, "add_grads", "core.add_grads", None),
        (GpuWorkingSet, "retire", "core.retire", _len_of_arg(1)),
        (PinnedParameterStore, "zero_grads", "core.zero_grads", _len_of_arg(1)),
        (GpuCriticalStore, "zero_grads", "core.zero_grads", _len_of_arg(1)),
        (PackedSparseAdam, "step_packed", packed_adam_name, _len_of_arg(3)),
        (SparseAdam, "step_rows", "optim.adam_sparse", _len_of_arg(3)),
        (OverlapExecutor, "submit", "runtime.submit", None),
        (OverlapExecutor, "barrier", "runtime.barrier", None),
        (GraphExecutor, "run", "runtime.graph_run",
         lambda _stats, _self, graph: float(graph.num_tasks)),
        (AutoTuner, "choose", "autotune.choose", None),
        (AutoTuner, "observe", "autotune.observe", None),
        (CullingGrid, "query", "serving.cull",
         lambda result, *_a, **_k: float(result.size)),
        (LodSelector, "apply", "serving.lod",
         lambda result, *_a, **_k: float(result.size)),
        (ServingBatcher, "plan_requests", "serving.plan_requests", _len_of_arg(1)),
        (ServingBatcher, "execute", "serving.execute", _len_of_arg(1)),
    ]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Install every class-level proxy and enable `recorder`; on exit the
    original attributes are put back and the recorder is disabled."""
    saved: List[Tuple[type, str, object]] = []
    try:
        for owner, attr, name, rows in proxy_targets(recorder):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, rows))
        recorder.enabled = True
        yield recorder
    finally:
        recorder.enabled = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_renderers(recorder: Recorder) -> Tuple[Callable, Callable]:
    """`(renderer, renderer_backward)` for `EngineConfig`: the library's
    own render pair behind recording proxies."""
    from repro.gaussians.render import render, render_backward

    forward = recorder.wrap(
        "gaussians.forward", render,
        rows=lambda result, *_a, **_k: float(result.num_rendered),
    )
    backward = recorder.wrap("gaussians.backward", render_backward)
    return forward, backward
