import json
import threading

import pytest

from bench_e2e import spans as sp


def make(name, start, end, parent=None, tid=0):
    span = sp.Span(name=name, start=start, end=end, parent=parent, tid=tid)
    if parent is not None:
        parent.children.append(span)
    return span


def test_union_counts_overlaps_once():
    assert sp.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert sp.union_length([(0, 10), (2, 3), (4, 5)]) == pytest.approx(10.0)
    assert sp.union_length([]) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    root = make("root", 0.0, 10.0)
    child = make("child", 1.0, 6.0, root)
    make("grandchild", 2.0, 5.0, child)
    make("sibling", 7.0, 9.0, root)
    assert sp.self_time(root) == pytest.approx(10.0 - 5.0 - 2.0)
    assert sp.self_time(child) == pytest.approx(5.0 - 3.0)
    totals = sp.self_time_by_name([root, *sp.descendants(root)])
    assert sum(totals.values()) == pytest.approx(10.0)


def test_worker_thread_spans_are_their_own_roots():
    """A task on a worker overlaps the training thread's spans in time but
    must not be subtracted from the batch root's self time."""
    root = make("batch", 0.0, 10.0, tid=1)
    make("forward", 1.0, 9.0, root, tid=1)
    worker = make("adam", 2.0, 8.0, tid=2)
    assert worker.parent is None
    assert sp.self_time(root) == pytest.approx(2.0)
    assert sp.self_time(worker) == pytest.approx(6.0)


def test_named_gaps_sum_to_the_root_self_time():
    root = make("batch", 0.0, 10.0)
    make("cull", 1.0, 2.0, root)
    make("forward", 2.5, 5.0, root)
    make("backward", 6.0, 9.0, root)
    gaps = sp.named_gaps(root)
    assert gaps == pytest.approx({
        "start->cull": 1.0,
        "cull->forward": 0.5,
        "forward->backward": 1.0,
        "backward->end": 1.0,
    })
    assert sum(gaps.values()) == pytest.approx(sp.self_time(root))


def test_recorder_nests_per_thread_and_stamps_items():
    rec = sp.Recorder()
    rec.enabled = True
    rec.item = 7
    inner_fn = rec.wrap("inner", lambda rows: len(rows), rows=lambda r, *a: r)
    seen = {}

    def on_worker():
        with rec.span("worker-task") as span:
            seen["worker"] = span

    with rec.span("outer") as outer:
        assert inner_fn([1, 2, 3]) == 3
        thread = threading.Thread(target=on_worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    inner = outer.children[0]
    assert (inner.name, inner.parent, inner.rows, inner.item) == ("inner", outer, 3.0, 7)
    assert seen["worker"].parent is None and seen["worker"].tid != outer.tid
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_disabled_recorder_is_a_pass_through():
    rec = sp.Recorder()
    fn = rec.wrap("x", lambda v: v + 1)
    assert fn(1) == 2 and rec.spans == []


def test_chrome_trace_is_loadable_json(tmp_path):
    rec = sp.Recorder()
    rec.enabled = True
    with rec.span("outer"):
        with rec.span("inner", rows=5):
            pass
    path = tmp_path / "trace.json"
    rec.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    assert events[1]["args"]["rows"] == 5
