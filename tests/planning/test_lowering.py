"""``lower_batch``: the one node list behind the CLM executors and the
auto-tuner's prediction.

Property-checked over planner-built plans of generated models (the shared
``batch_plans`` strategy): a linear ``step`` spine in plan order, one
``adam`` node per non-empty finalized chunk hanging off its own step
(overlap on) or off the last one (the batch-end ablation), and
``critical_adam`` closing the batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import batch_plans

from repro.planning import BatchPlanner, lower_batch


@given(plan=batch_plans(), overlap_adam=st.booleans())
@settings(max_examples=150, deadline=None)
def test_node_list_shape(plan, overlap_adam):
    nodes = lower_batch(plan, overlap_adam)
    assert len({n.name for n in nodes}) == len(nodes)
    for position, node in enumerate(nodes):
        assert all(0 <= dep < position for dep in node.deps)

    steps = [k for k, n in enumerate(nodes) if n.kind == "step"]
    assert [nodes[k].index for k in steps] == list(range(plan.batch_size))
    assert nodes[steps[0]].deps == ()
    for prev, this in zip(steps, steps[1:]):
        assert nodes[this].deps == (prev,)

    adams = [n for n in nodes if n.kind == "adam"]
    assert [n.index for n in adams] == [
        i for i, size in enumerate(plan.adam_chunk_sizes) if size
    ]
    for node in adams:
        assert node.deps == ((steps[node.index] if overlap_adam else steps[-1]),)

    assert nodes[-1].kind == "critical_adam"
    assert nodes[-1].deps == (steps[-1],)
    assert len(nodes) == len(steps) + len(adams) + 1


@given(plan=batch_plans())
@settings(max_examples=50, deadline=None)
def test_list_order_is_the_inline_schedule(plan):
    """Overlap on: every ``adam.i`` sits right after ``step.i``, so an
    inline walk submits chunk ``F_i`` before microbatch ``i+1`` starts."""
    nodes = lower_batch(plan, True)
    for position, node in enumerate(nodes):
        if node.kind == "adam":
            assert nodes[position - 1].kind == "step"
            assert nodes[position - 1].index == node.index
    kinds = [n.kind for n in lower_batch(plan, False)]
    assert kinds == sorted(
        kinds, key=("step", "adam", "critical_adam").index
    )


def test_empty_batch_lowers_to_nothing():
    plan = BatchPlanner(seed=0).plan([], [], num_gaussians=5)
    assert lower_batch(plan, True) == []
    assert lower_batch(plan, False) == []
