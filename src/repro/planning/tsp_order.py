"""TSP-based microbatch order optimization (paper §4.2.3 + Appendix A.1).

This is the planning-layer *order optimizer* consumed by
:func:`repro.planning.orders.order_microbatches` — not to be confused with
the discrete-event :class:`repro.hardware.simulator.Simulator` that
schedules task DAGs onto device resources.

Microbatches are nodes; the distance between views ``i`` and ``j`` is the
symmetric difference ``|S_i ^ S_j|`` of their in-frustum sets — the number
of Gaussians that would have to move if the two views ran back-to-back.
The schedule that maximizes consecutive overlap is the shortest Hamiltonian
*path* through this graph (no return edge: the last microbatch of a batch
has no successor).

The distance is a metric (symmetric, triangle inequality — verified by a
property test), so stochastic local search converges fast in practice.
Following Appendix A.1 we implement:

- nearest-neighbour construction from a random start,
- 2-opt (segment reversal) and 3-opt-style or-opt (segment relocation)
  improvement moves,
- restarts until a wall-clock budget (default 1 ms, as in the paper) or
  convergence — at most :data:`UNTIMED_NODES` nodes, every restart, so the
  order there does not depend on the clock,
- an exact Held-Karp dynamic program for small instances, used by tests to
  certify that SLS finds optimal tours at the paper's batch sizes.

This module is the reference of the search inside the ``plan_batch`` kernel
op (:func:`repro.planning.planner.plan_batch`).  The ``native`` backend runs
the same search in C, move for move and tie for tie, with moves priced in
exact integers, its restarts drawn in Python from the same generator —
so wherever both run to convergence their orders are identical.  On a
2-vCPU x86-64 host a B = 8 search over ``bench_e2e`` ``sparse`` sets costs
about a millisecond in this module and a few tens of microseconds in C.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.utils import setops
from repro.utils.rng import SeedLike, make_rng

#: Up to this many nodes :func:`stochastic_local_search` has no deadline: it
#: runs every restart to convergence.
UNTIMED_NODES = 8


def distance_matrix(sets: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise ``|S_i ^ S_j|`` (int64, symmetric, zero diagonal)."""
    return setops.symmetric_difference_matrix(list(sets))


def path_cost(dist: np.ndarray, order: Sequence[int]) -> float:
    """Total edge weight of an open path."""
    order = np.asarray(order)
    if order.size <= 1:
        return 0.0
    return float(dist[order[:-1], order[1:]].sum())


def _as_rows(dist) -> List[list]:
    """``dist`` as nested Python lists.  The local search prices a move by
    the handful of edges it changes; reading those from an ndarray costs
    more in scalar boxing than the arithmetic, so a search converts once
    and its passes take the rows as they are."""
    return dist.tolist() if isinstance(dist, np.ndarray) else dist


def nearest_neighbor_path(dist, start: int = 0) -> List[int]:
    """Greedy construction: repeatedly hop to the closest unvisited node
    (the lowest-numbered one on ties)."""
    d = _as_rows(dist)
    n = len(d)
    visited = [False] * n
    order = [start]
    visited[start] = True
    for _ in range(n - 1):
        row = d[order[-1]]
        nxt = min(
            (j for j in range(n) if not visited[j]), key=row.__getitem__
        )
        order.append(nxt)
        visited[nxt] = True
    return order


def two_opt_pass(dist, order: List[int]) -> "tuple[List[int], bool]":
    """One full 2-opt sweep; returns (order, improved)."""
    d = _as_rows(dist)
    n = len(order)
    improved = False
    arr = list(order)
    for i in range(0, n - 1):
        # The node before the reversed span stays put for the whole row.
        before_span = d[arr[i - 1]] if i > 0 else None
        for j in range(i + 1, n):
            # Reversing arr[i..j] changes at most two path edges.
            head, tail = arr[i], arr[j]
            delta = 0.0
            if before_span is not None:
                delta += before_span[tail] - before_span[head]
            if j < n - 1:
                after_span = d[arr[j + 1]]
                delta += after_span[head] - after_span[tail]
            if delta + 1e-12 < 0.0:
                arr[i : j + 1] = arr[i : j + 1][::-1]
                improved = True
    return arr, improved


def or_opt_pass(
    dist, order: List[int], max_segment: int = 3
) -> "tuple[List[int], bool]":
    """Relocate short segments (the 3-opt-style move of Appendix A.1).

    Every segment start in turn: the segment moves to the position that
    shortens the path most (the first such position on ties), if any does.
    A relocation changes at most three edges where the segment leaves and
    three where it lands, so a candidate is priced by those edges, not by
    re-summing the path.
    """
    d = _as_rows(dist)
    n = len(order)
    improved = False
    arr = list(order)
    for seg_len in range(1, min(max_segment, n - 1) + 1):
        for i in range(n - seg_len + 1):
            segment = arr[i : i + seg_len]
            rest = arr[:i] + arr[i + seg_len :]
            # Distances are symmetric: a row serves as a column.
            to_first, from_last = d[segment[0]], d[segment[-1]]
            # Change in path length from splicing the segment in before
            # rest[pos], for every pos: the two ends, then the interior.
            splice = [from_last[rest[0]]]
            splice += [
                to_first[a] + from_last[b] - d[a][b]
                for a, b in zip(rest, rest[1:])
            ]
            splice.append(to_first[rest[-1]])
            # Where it sits now is not a move; cutting it out undoes that
            # very splice.
            cut = -splice[i]
            splice[i] = np.inf
            gain = min(splice)
            if cut + gain + 1e-12 < 0.0:
                pos = splice.index(gain)
                arr = rest[:pos] + segment + rest[pos:]
                improved = True
    return arr, improved


def stochastic_local_search(
    dist: np.ndarray,
    time_limit_s: float = 1e-3,
    seed: SeedLike = 0,
) -> List[int]:
    """SLS over Hamiltonian paths: NN starts + 2-opt/or-opt improvement.

    One restart from every start node, in a seeded random order, keeping
    the best path found (the earliest on ties).  Above
    :data:`UNTIMED_NODES` nodes the time budget may expire first, which
    ends the search after the restart in progress.  Up to it every restart
    runs to convergence whatever the clock says, so the order does not
    depend on how fast the machine is — in Python a B = 8 search can
    outlast the 1 ms default, which would otherwise cut its last restart.
    With the paper's batch sizes (<= 64 nodes) the search
    routinely reaches the Held-Karp optimum (the claim of Appendix A.1,
    certified by our tests at B <= 12).
    """
    n = dist.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [0]
    rng = make_rng(seed)
    deadline = (
        time.perf_counter() + time_limit_s if n > UNTIMED_NODES else np.inf
    )
    d = _as_rows(dist)
    best: Optional[List[int]] = None
    best_cost = np.inf
    for start in rng.permutation(n):
        order = nearest_neighbor_path(d, start=int(start))
        # Alternate the two passes until neither improves.  An or-opt pass
        # that found nothing is not repeated on the order it left behind.
        or_settled = False
        while True:
            order, improved2 = two_opt_pass(d, order)
            improved3 = False
            if improved2 or not or_settled:
                order, improved3 = or_opt_pass(d, order)
                or_settled = not improved3
            if not (improved2 or improved3):
                break
            if time.perf_counter() > deadline and best is not None:
                break
        cost = sum(d[a][b] for a, b in zip(order, order[1:]))
        if cost < best_cost:
            best_cost = cost
            best = order
        if time.perf_counter() > deadline:
            break
    assert best is not None
    return best


def held_karp_path(dist: np.ndarray) -> List[int]:
    """Exact shortest Hamiltonian path by dynamic programming.

    O(n^2 2^n); intended for n <= 13 (test oracle for the SLS solver).
    """
    n = dist.shape[0]
    if n == 0:
        return []
    if n > 16:
        raise ValueError("Held-Karp oracle limited to n <= 16")
    full = 1 << n
    inf = np.inf
    dp = np.full((full, n), inf)
    parent = np.full((full, n), -1, dtype=np.int64)
    for v in range(n):
        dp[1 << v, v] = 0.0
    for mask in range(full):
        for last in range(n):
            cost = dp[mask, last]
            if not np.isfinite(cost):
                continue
            for nxt in range(n):
                if mask & (1 << nxt):
                    continue
                nmask = mask | (1 << nxt)
                ncost = cost + dist[last, nxt]
                if ncost < dp[nmask, nxt]:
                    dp[nmask, nxt] = ncost
                    parent[nmask, nxt] = last
    end = int(np.argmin(dp[full - 1]))
    order = [end]
    mask = full - 1
    while parent[mask, order[-1]] >= 0:
        prev = int(parent[mask, order[-1]])
        mask ^= 1 << order[-1]
        order.append(prev)
    return order[::-1]


def tsp_order(
    sets: Sequence[np.ndarray],
    time_limit_s: float = 1e-3,
    seed: SeedLike = 0,
) -> List[int]:
    """The CLM ordering: shortest-overlap-path permutation of a batch."""
    dist = distance_matrix(sets)
    return stochastic_local_search(dist, time_limit_s=time_limit_s, seed=seed)
