"""TSP pipeline-order optimization (§4.2.3, Appendix A.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planning import tsp_order as scheduler
from repro.utils import setops

index_sets = st.lists(
    st.integers(min_value=0, max_value=50), max_size=25
).map(setops.as_index_set)


def arr(*v):
    return np.asarray(v, dtype=np.int64)


def random_metric_instance(n, seed):
    """Random points -> Euclidean distances (a metric, like |S_i ^ S_j|)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def test_distance_matrix_symmetric_zero_diag():
    sets = [arr(1, 2), arr(2, 3), arr(5)]
    d = scheduler.distance_matrix(sets)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert d[0, 1] == 2  # {1}^{3}
    assert d[0, 2] == 3


def test_path_cost():
    d = np.array([[0, 1, 4], [1, 0, 2], [4, 2, 0]], dtype=float)
    assert scheduler.path_cost(d, [0, 1, 2]) == 3.0
    assert scheduler.path_cost(d, [0, 2, 1]) == 6.0
    assert scheduler.path_cost(d, [1]) == 0.0


def test_nearest_neighbor_valid_permutation():
    d = random_metric_instance(8, 0)
    order = scheduler.nearest_neighbor_path(d, start=3)
    assert sorted(order) == list(range(8))
    assert order[0] == 3


def test_two_opt_never_worsens():
    d = random_metric_instance(10, 1)
    order = list(np.random.default_rng(2).permutation(10))
    before = scheduler.path_cost(d, order)
    improved, _ = scheduler.two_opt_pass(d, order)
    assert scheduler.path_cost(d, improved) <= before + 1e-9


def test_or_opt_never_worsens():
    d = random_metric_instance(10, 3)
    order = list(np.random.default_rng(4).permutation(10))
    before = scheduler.path_cost(d, order)
    improved, _ = scheduler.or_opt_pass(d, order)
    assert scheduler.path_cost(d, improved) <= before + 1e-9


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_sls_matches_held_karp_optimum(n):
    """Appendix A.1's claim: 1 ms SLS reaches the exact optimum at the
    paper's batch sizes.  Certified against the DP oracle."""
    d = random_metric_instance(n, seed=n)
    sls = scheduler.stochastic_local_search(d, time_limit_s=5e-3, seed=0)
    exact = scheduler.held_karp_path(d)
    assert scheduler.path_cost(d, sls) == pytest.approx(
        scheduler.path_cost(d, exact), rel=1e-9
    )


def test_held_karp_known_instance():
    # Three cities on a line: optimal path visits them in order (cost 2).
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    order = scheduler.held_karp_path(d)
    assert scheduler.path_cost(d, order) == 2.0


def test_held_karp_rejects_large():
    with pytest.raises(ValueError):
        scheduler.held_karp_path(np.zeros((20, 20)))


def test_tsp_order_groups_overlapping_views():
    """Two clusters of views: the TSP path must not alternate clusters."""
    a = arr(*range(0, 20))
    b = arr(*range(1, 21))
    c = arr(*range(100, 120))
    d = arr(*range(101, 121))
    order = scheduler.tsp_order([a, c, b, d], seed=0)
    pos = {v: i for i, v in enumerate(order)}
    # a(0) adjacent to b(2); c(1) adjacent to d(3)
    assert abs(pos[0] - pos[2]) == 1
    assert abs(pos[1] - pos[3]) == 1


def test_trivial_sizes():
    assert scheduler.stochastic_local_search(np.zeros((0, 0))) == []
    assert scheduler.stochastic_local_search(np.zeros((1, 1))) == [0]


def test_deterministic_under_seed():
    sets = [setops.as_index_set(np.random.default_rng(i).integers(0, 50, 12))
            for i in range(8)]
    a = scheduler.tsp_order(sets, seed=5)
    b = scheduler.tsp_order(sets, seed=5)
    assert a == b


@given(sets=st.lists(index_sets, min_size=2, max_size=7))
@settings(max_examples=30, deadline=None)
def test_sls_returns_valid_permutation(sets):
    order = scheduler.tsp_order(sets, time_limit_s=2e-3, seed=0)
    assert sorted(order) == list(range(len(sets)))


@given(sets=st.lists(index_sets, min_size=2, max_size=6))
@settings(max_examples=25, deadline=None)
def test_sls_no_worse_than_identity_order(sets):
    d = scheduler.distance_matrix(sets)
    order = scheduler.stochastic_local_search(d, time_limit_s=2e-3, seed=0)
    assert scheduler.path_cost(d, order) <= scheduler.path_cost(
        d, list(range(len(sets)))
    ) + 1e-9


def batch_of_views(n, seed):
    """``n`` overlapping index sets (integer distances, like a culled batch)."""
    rng = np.random.default_rng(seed)
    return [
        setops.as_index_set(rng.integers(40 * i, 40 * i + 400, size=130))
        for i in rng.permutation(n)
    ]


class Clock:
    """A ``perf_counter`` that reads 0 until ``expires_after`` reads, then
    far past any deadline."""

    def __init__(self, expires_after):
        self.reads = 0
        self.expires_after = expires_after

    def __call__(self):
        self.reads += 1
        return 0.0 if self.reads <= self.expires_after else 1e9


# Batches whose first restart does not find the best order: a search the
# clock cut short would return another one.
@pytest.mark.parametrize("seed", [14, 17, 24, 38])
def test_order_is_the_best_of_all_restarts_whatever_the_clock_says(
    monkeypatch, seed
):
    """At B <= 8 every restart runs to convergence: a clock past the
    deadline from the first look on leaves the order as it is, and the
    order is the exact optimum."""
    d = scheduler.distance_matrix(batch_of_views(8, seed))
    order = scheduler.stochastic_local_search(d, time_limit_s=1e-3, seed=3)
    assert sorted(order) == list(range(8))
    late = Clock(expires_after=1)  # the deadline is set, then it has passed
    monkeypatch.setattr(scheduler.time, "perf_counter", late)
    assert scheduler.stochastic_local_search(d, time_limit_s=1e-3, seed=3) == order
    assert scheduler.path_cost(d, order) == scheduler.path_cost(
        d, scheduler.held_karp_path(d)
    )


def test_above_eight_views_the_deadline_ends_the_search(monkeypatch):
    """Past :data:`UNTIMED_NODES` the budget binds: expired from the start,
    the search stops after its first restart, which costs no less."""
    n = scheduler.UNTIMED_NODES + 1
    d = scheduler.distance_matrix(batch_of_views(n, 0))
    never = Clock(expires_after=10**9)
    monkeypatch.setattr(scheduler.time, "perf_counter", never)
    order = scheduler.stochastic_local_search(d, time_limit_s=1e-3, seed=3)
    cut_short = Clock(expires_after=1)
    monkeypatch.setattr(scheduler.time, "perf_counter", cut_short)
    first_only = scheduler.stochastic_local_search(d, time_limit_s=1e-3, seed=3)
    assert sorted(first_only) == list(range(n))
    assert cut_short.reads < never.reads
    assert scheduler.path_cost(d, order) <= scheduler.path_cost(d, first_only)


@given(sets=st.lists(index_sets, min_size=2, max_size=7),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_moves_priced_by_edge_deltas_are_priced_right(sets, seed):
    """Each pass, from a random order: what it reports as an improvement
    is one, by the full path cost — on the ndarray and on plain rows."""
    d = scheduler.distance_matrix(sets)
    order = list(np.random.default_rng(seed).permutation(len(sets)))
    before = scheduler.path_cost(d, order)
    for one_pass in (scheduler.two_opt_pass, scheduler.or_opt_pass):
        after, improved = one_pass(d, order)
        assert sorted(after) == sorted(order)
        assert (scheduler.path_cost(d, after) < before) == improved
        assert improved or after == order
        assert one_pass(d.tolist(), order) == (after, improved)
