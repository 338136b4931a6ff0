"""A batch's plan in C against the NumPy reference.

``plan_batch`` is the planner's kernel op: from a batch's in-frustum sets to
the order (searched for ``tsp``, given for every other strategy), each
step's working set and loads / cached / stores / carried, the touched union
and the Adam chunks.  The reference composes the planning modules;
``native`` is one C call writing one plan-owned buffer.  Both run the same
search, move for move, with restarts drawn from the planner's generator in
Python, so wherever the search runs to convergence (at most
``UNTIMED_NODES`` sets, or a budget that cannot bind) every array of the
two plans is ``np.array_equal``, orders included.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernels import ENV_VAR, get_backend
from repro.planning import BatchPlanner, tsp_order
from repro.utils import setops

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

BACKENDS = ("numpy", "native")
STRATEGIES = ("tsp", "identity", "random", "gs_count", "camera")
index_sets = st.lists(st.integers(0, 79), max_size=30).map(setops.as_index_set)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def cameras_at(xs):
    """Stand-ins for the ``camera`` ordering, which reads only centres."""
    return [types.SimpleNamespace(center=np.array([x, 0.5 * x * x, 1.0])) for x in xs]


def plan_on(backend, sets, strategy="tsp", seed=0, cameras=None, n=80, **planner):
    """One plan on ``backend`` and the generator's next draw after it."""
    rng = np.random.default_rng(seed)
    p = BatchPlanner(ordering=strategy, seed=rng, kernel_backend=backend, **planner)
    plan = p.plan(sets, [10 + k for k in range(len(sets))], cameras, num_gaussians=n)
    return plan, rng.random()


def assert_same_plan(a, b):
    assert (a.order, a.view_ids, a.strategy, a.enable_cache) == (
        b.order, b.view_ids, b.strategy, b.enable_cache,
    )
    assert len(a.steps) == len(b.steps) == len(a.adam_chunks) == len(b.adam_chunks)
    for x, y in zip(a.steps, b.steps):
        assert (x.position, x.view_id) == (y.position, y.view_id)
        for field in ("working_set", "loads", "cached", "stores", "carried"):
            u, v = getattr(x, field), getattr(y, field)
            assert u.dtype == v.dtype == np.int64
            assert np.array_equal(u, v), field
    assert np.array_equal(a.touched, b.touched)
    for u, v in zip(a.adam_chunks, b.adam_chunks):
        assert np.array_equal(u, v)


@given(
    sets=st.lists(index_sets, max_size=tsp_order.UNTIMED_NODES),
    strategy=st.sampled_from(STRATEGIES),
    enable_cache=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_every_field_matches_the_reference(sets, strategy, enable_cache, seed):
    assume(sets or strategy != "camera")  # no axis through no cameras
    cams = cameras_at(np.random.default_rng(seed).uniform(-5, 5, len(sets)))
    (a, draw_a), (b, draw_b) = (
        plan_on(name, sets, strategy, seed, cams, enable_cache=enable_cache)
        for name in BACKENDS
    )
    assert_same_plan(a, b)
    assert draw_a == draw_b  # the same draws from the planner's stream
    b.validate()


@given(
    sets=st.lists(index_sets, min_size=tsp_order.UNTIMED_NODES + 1, max_size=12),
    enable_cache=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_above_the_untimed_size_a_budget_that_cannot_bind_gives_one_order(
    sets, enable_cache, seed
):
    (a, _), (b, _) = (
        plan_on(name, sets, "tsp", seed, tsp_time_limit_s=math.inf, enable_cache=enable_cache)
        for name in BACKENDS
    )
    assert_same_plan(a, b)


@pytest.mark.parametrize("limit", [0.0, -math.inf])
def test_a_budget_spent_at_the_start_keeps_the_first_restart(limit):
    """Above ``UNTIMED_NODES`` a budget that has passed when the first
    restart ends stops the search there, on both clocks."""
    sets = batch_of_views(tsp_order.UNTIMED_NODES + 4, seed=1)
    (a, _), (b, _) = (
        plan_on(name, sets, "tsp", 7, n=1000, tsp_time_limit_s=limit) for name in BACKENDS
    )
    assert_same_plan(a, b)
    d = tsp_order.distance_matrix(sets)
    first = tsp_order.nearest_neighbor_path(d, int(np.random.default_rng(7).permutation(len(sets))[0]))
    while True:  # the first restart by hand
        first, improved2 = tsp_order.two_opt_pass(d, first)
        first, improved3 = tsp_order.or_opt_pass(d, first)
        if not (improved2 or improved3):
            break
    assert list(a.order) == first


@pytest.mark.parametrize("enable_cache", [True, False])
@pytest.mark.parametrize("sizes", [(), (0,), (5,), (0, 0), (0, 4, 0), (3, 0, 3)])
def test_empty_batches_and_sets(sizes, enable_cache):
    sets = [np.arange(3 * k, 3 * k + n, dtype=np.int64) for k, n in enumerate(sizes)]
    (a, _), (b, _) = (
        plan_on(name, sets, "tsp", enable_cache=enable_cache) for name in BACKENDS
    )
    assert_same_plan(a, b)
    b.validate()


def batch_of_views(n, seed):
    """``n`` overlapping index sets, shuffled: a culled batch's shape."""
    rng = np.random.default_rng(seed)
    return [
        setops.as_index_set(rng.integers(40 * i, 40 * i + 400, size=130))
        for i in rng.permutation(n)
    ]


@pytest.mark.parametrize("n", [2, 5, 8, 10, 12])
def test_the_search_reaches_the_held_karp_optimum(n):
    """Appendix A.1's claim, certified against the exact DP on both
    backends (above ``UNTIMED_NODES`` with a budget that cannot bind): on
    six batches each backend finds the same path length, the optimum on
    all but at most one (a local search, it may miss: at B = 12 it misses
    ``batch_of_views(12, 12)``'s by one row)."""
    optimal = 0
    for seed in (0, 1, 2, 3, 4, n):
        sets = batch_of_views(n, seed)
        d = tsp_order.distance_matrix(sets)
        costs = {
            tsp_order.path_cost(d, plan_on(name, sets, "tsp", n=1000, tsp_time_limit_s=math.inf)[0].order)
            for name in BACKENDS
        }
        assert len(costs) == 1
        optimal += costs == {tsp_order.path_cost(d, tsp_order.held_karp_path(d))}
    assert optimal >= 5


def test_the_native_plan_is_one_buffer_the_plan_owns():
    sets = batch_of_views(6, seed=3)
    plan, _ = plan_on("native", sets, n=1000)
    arrays = [plan.touched, *plan.adam_chunks] + [
        getattr(s, f) for s in plan.steps
        for f in ("working_set", "loads", "cached", "stores", "carried")
    ]
    base = plan.touched.base
    assert base is not None and base.dtype == np.int64
    assert all(arr.base is base and arr.flags.writeable for arr in arrays)
    assert not any(np.shares_memory(arr, s) for arr in arrays for s in sets)


def test_the_order_search_is_timed_apart_from_the_rest():
    for name in BACKENDS:
        p = BatchPlanner(kernel_backend=name)
        p.plan(batch_of_views(5, 0), list(range(5)), num_gaussians=1000)
        assert 0.0 < p.counters.order_time_s < p.counters.build_time_s
        p.plan([np.arange(4)] * 3, [0, 1, 2], num_gaussians=80, strategy="identity")
        assert p.counters.plans_built == 2


# ---------------------------------------------------------------------------
# Malformed sets: one ValueError naming the set and the position, either side
# ---------------------------------------------------------------------------
def arr(*values):
    return np.asarray(values, dtype=np.int64)


MALFORMED = [
    # (sets, the message's start)
    ([arr(5, 3, 9), arr(3, 4, 5)], "set 0: index 3 at position 1 follows 5"),
    ([arr(1, 2, 2)], "set 0: index 2 at position 2 follows 2"),
    ([arr(0, 1), arr(), arr(7, 7)], "set 2: index 7 at position 1 follows 7"),
    ([arr(-1, 3)], "set 0: index -1 at position 0 out of range"),
    ([arr(), arr(2, 80)], "set 1: index 80 at position 1 out of range for num_gaussians=80"),
    ([arr(4, 9), arr(3, 6), arr(8, 2)], "set 2: index 2 at position 1 follows 8"),
]


@pytest.mark.parametrize("strategy", ["tsp", "identity"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sets,message", MALFORMED)
def test_malformed_sets_are_refused(sets, message, backend, strategy):
    with pytest.raises(ValueError) as caught:
        plan_on(backend, sets, strategy)
    assert str(caught.value).startswith(message)
    messages = set()
    for name in BACKENDS:
        with pytest.raises(ValueError) as caught:
            plan_on(name, sets, strategy)
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_the_op_refuses_an_order_that_is_not_one():
    op = get_backend("native").compile("plan_batch")
    for order in ([0, 0], [1], [1, 0, 2], [0, 2]):
        with pytest.raises(ValueError, match="is not an order"):
            op([arr(1), arr(2)], [0, 1], order, None, 1e-3, True, 80)
