"""`BatchPlanner` — one place where culling results become a `BatchPlan`.

Planning is CLM's CPU-side schedule (§4.2): the microbatch order (the TSP
search of §4.2.3, whose budget is 1 ms per batch above
:data:`~repro.planning.tsp_order.UNTIMED_NODES` views), four set
operations per microbatch for the transfer plan (§4.2.1; two membership
partitions) and the touched union with its finalization chunks (§4.2.2).
All of it is one kernel op, ``plan_batch``, run on the planner's kernel
backend: :func:`plan_batch` below is its reference, the composition of
the planning modules, and ``native`` runs it as one C call.  The
planner memoizes whole plans in a :class:`PlanCache` keyed by a
content fingerprint of the in-frustum sets — a repeated batch over an
unchanged model (steady-state simulation, repeated evaluation renders,
plan-driven experiments) skips the op entirely, observable
through :class:`PlannerCounters`.  The ``random`` ordering is exempt: a
memoized shuffle would replay itself on a repeated batch, so random plans
always rebuild (and always consume one RNG draw, keeping seeded streams
independent of the cache configuration).

The fingerprint hashes each sorted index set *once per view* (an O(total
set size) pass), never per pair — the same trick
:func:`repro.utils.setops.intersection_matrix` uses for the TSP distance
matrix.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.registry import OpDispatch
from repro.planning import adam_overlap, orders, tsp_order
from repro.planning.caching import MicrobatchStep, build_transfer_plan
from repro.planning.plan import BatchPlan, freeze_array
from repro.utils.rng import SeedLike, make_rng

_FINGERPRINT_DIGEST_SIZE = 16


def set_fingerprint(index_set: np.ndarray) -> bytes:
    """Content digest of one sorted index set, computed in a single pass."""
    data = np.ascontiguousarray(index_set, dtype=np.int64)
    return hashlib.blake2b(
        data.tobytes(), digest_size=_FINGERPRINT_DIGEST_SIZE
    ).digest()


def plan_fingerprint(
    sets: Sequence[np.ndarray],
    view_ids: Sequence[int],
    strategy: str,
    num_gaussians: int,
    cameras=None,
) -> Tuple:
    """The :class:`PlanCache` key: per-view set digests plus every input
    that can change the resulting plan between two ``plan()`` calls on one
    planner.  What a planner fixes when it is built (``enable_cache``, its
    kernel backend) stays out: each :class:`PlanCache` belongs to one
    planner.

    ``cameras`` only enters the key when given — callers pass it for the
    strategies that read camera geometry (``camera``), so a moved camera
    with unchanged in-frustum sets still misses the cache.
    """
    camera_digest = None
    if cameras is not None:
        centers = np.ascontiguousarray(
            [c.center for c in cameras], dtype=np.float64
        )
        camera_digest = hashlib.blake2b(
            centers.tobytes(), digest_size=_FINGERPRINT_DIGEST_SIZE
        ).digest()
    return (
        strategy,
        int(num_gaussians),
        camera_digest,
        tuple(int(v) for v in view_ids),
        tuple(set_fingerprint(s) for s in sets),
    )


class PlannedBatch(NamedTuple):
    """What the ``plan_batch`` op returns: the order (input positions in
    scheduled order), the :class:`MicrobatchStep` of each slot, the touched
    union, the Adam chunks ``F_1 .. F_B`` (all read-only) and the seconds
    the order search took (0 when the order was given)."""

    order: Tuple[int, ...]
    steps: Tuple[MicrobatchStep, ...]
    touched: np.ndarray
    adam_chunks: Tuple[np.ndarray, ...]
    search_s: float


def malformed(rows: np.ndarray, offsets: np.ndarray, at: int, num_gaussians: int) -> ValueError:
    """The error for entry ``at`` of ``rows``, the concatenated index sets
    (set ``k`` is ``rows[offsets[k]:offsets[k + 1]]``), which is outside
    ``[0, num_gaussians)`` or does not increase."""
    k = int(np.searchsorted(offsets, at, side="right")) - 1
    where = f"set {k}: index {int(rows[at])} at position {at - int(offsets[k])}"
    if 0 <= rows[at] < num_gaussians:
        return ValueError(
            f"{where} follows {int(rows[at - 1])}: index sets are sorted and "
            "duplicate-free"
        )
    return ValueError(f"{where} out of range for num_gaussians={num_gaussians}")


def plan_batch(
    sets: Sequence[np.ndarray],
    view_ids: Sequence[int],
    order: Optional[Sequence[int]],
    rng: SeedLike,
    time_limit_s: float,
    enable_cache: bool,
    num_gaussians: int,
) -> PlannedBatch:
    """The ``plan_batch`` kernel op's reference: one batch's plan from its
    in-frustum sets.

    ``order`` is the schedule as input positions, or ``None`` to search
    it (:func:`~repro.planning.tsp_order.tsp_order`, its restarts drawn
    from ``rng``); then :func:`~repro.planning.caching.build_transfer_plan`,
    :func:`~repro.planning.adam_overlap.touched_union` and
    :func:`~repro.planning.adam_overlap.adam_chunks` over plan-owned copies
    of the sets in that order.  Every set must be a vector of integers
    (else ``IndexError``, as ``native`` refuses it), sorted, duplicate-free
    and inside ``[0, num_gaussians)``: the first entry that is not raises
    :func:`malformed`'s ``ValueError``.
    """
    from repro.kernels.numpy_backend import index_rows

    rows = index_rows(np.concatenate(sets) if len(sets) else (), None, "plan_batch")
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=offsets[1:])
    rising = np.ones(rows.size, dtype=bool)
    rising[1:] = np.diff(rows) > 0
    rising[offsets[:-1][offsets[:-1] < rows.size]] = True  # a set's first entry
    bad = ~rising | (rows < 0) | (rows >= num_gaussians)
    if bad.any():
        raise malformed(rows, offsets, int(bad.argmax()), num_gaussians)
    search_s = 0.0
    if order is None:
        start = time.perf_counter()
        order = tsp_order.tsp_order(sets, time_limit_s=time_limit_s, seed=rng)
        search_s = time.perf_counter() - start
    # Plan-owned copies: the working sets are frozen below, and doing
    # that to the caller's arrays (e.g. a long-lived CullingIndex)
    # would leak read-only flags into caller state.
    ordered = [np.array(sets[k], dtype=np.int64, copy=True) for k in order]
    steps = build_transfer_plan(
        ordered, [int(view_ids[k]) for k in order], enable_cache=enable_cache
    )
    for step in steps:
        for arr in (step.working_set, step.loads, step.cached, step.stores, step.carried):
            freeze_array(arr)
    chunks = adam_overlap.adam_chunks(ordered, num_gaussians)
    return PlannedBatch(
        order=tuple(int(k) for k in order),
        steps=tuple(steps),
        touched=freeze_array(adam_overlap.touched_union(ordered)),
        adam_chunks=tuple(freeze_array(c) for c in chunks),
        search_s=search_s,
    )


@dataclass
class PlannerCounters:
    """Cumulative planner statistics (the planner-bench metrics).

    ``plans_built`` counts cache misses (full TSP + set-algebra runs);
    ``cache_hits`` counts plans served without recomputation.  The
    acceptance test for the cache asserts ``plans_built`` stays flat
    across a repeated batch while ``requests`` advances.
    """

    requests: int = 0
    plans_built: int = 0
    cache_hits: int = 0
    build_time_s: float = 0.0
    order_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.cache_hits / self.requests


class PlanCache:
    """A small LRU of finished :class:`BatchPlan` objects.

    Keys are :func:`plan_fingerprint` tuples; capacity 0 disables caching
    (every request rebuilds).  Plans are immutable (frozen dataclass,
    read-only derived arrays), so handing the same object to several
    consumers is safe.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = int(capacity)
        self._plans: "OrderedDict[Tuple, BatchPlan]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: Tuple) -> Optional[BatchPlan]:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
        return plan

    def put(self, key: Tuple, plan: BatchPlan) -> None:
        if self.capacity <= 0:
            return
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._plans.clear()


class BatchPlanner:
    """Turn culling results into a :class:`BatchPlan`, with memoization.

    One planner per engine / simulated run; ``seed`` may be an integer or
    a shared ``numpy.random.Generator`` (the engines thread their own RNG
    through so the ``random`` ordering stays on the engine's stream).
    """

    def __init__(
        self,
        ordering: str = "tsp",
        enable_cache: bool = True,
        cache_size: int = 8,
        seed: SeedLike = 0,
        tsp_time_limit_s: float = 1e-3,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.ordering = ordering
        self.enable_cache = enable_cache
        self.tsp_time_limit_s = tsp_time_limit_s
        self._rng = make_rng(seed)
        #: Runs ``plan_batch`` on ``kernel_backend`` (``auto`` when None).
        self._ops = OpDispatch(kernel_backend)
        self.cache = PlanCache(cache_size)
        self.counters = PlannerCounters()

    @classmethod
    def from_engine_config(
        cls,
        config,
        seed: SeedLike = None,
        kernel_backend: Optional[str] = None,
    ) -> "BatchPlanner":
        """Planner configured from an :class:`repro.core.config.EngineConfig`
        (or anything with ``ordering`` / ``enable_cache`` /
        ``plan_cache_size`` attributes).  ``kernel_backend`` is the
        engine's resolved backend name, which runs ``plan_batch``."""
        return cls(
            ordering=config.ordering,
            enable_cache=config.enable_cache,
            cache_size=getattr(config, "plan_cache_size", 8),
            seed=config.seed if seed is None else seed,
            kernel_backend=kernel_backend,
        )

    # ------------------------------------------------------------------
    def plan(
        self,
        sets: Sequence[np.ndarray],
        view_ids: Sequence[int],
        cameras=None,
        *,
        num_gaussians: int,
        strategy: Optional[str] = None,
    ) -> BatchPlan:
        """Plan one batch: order, transfer steps, Adam chunks, analytics.

        ``sets[k]`` is the in-frustum set of ``view_ids[k]``; ``cameras``
        (aligned with ``sets``) is only needed by the ``camera`` ordering.
        ``num_gaussians`` is the model size the indices refer to: each set
        must be sorted, duplicate-free and inside ``[0, num_gaussians)``,
        and the first entry that is not raises a ``ValueError`` naming its
        set and position.  ``strategy`` overrides the planner's
        configured ordering — the non-pipelined engines pass
        ``"identity"`` to keep the sampled batch order.  The returned
        plan owns read-only copies of the input sets; the caller's arrays
        are never touched.
        """
        if len(sets) != len(view_ids):
            raise ValueError("sets and view_ids must align")
        if cameras is not None and len(cameras) != len(sets):
            raise ValueError("sets and cameras must align")
        strategy = self.ordering if strategy is None else strategy
        self.counters.requests += 1
        # A memoized 'random' plan would replay an earlier shuffle (and
        # skip the RNG draw), changing the ablation's semantics — random
        # orderings always replan.  With the cache disabled, skip the
        # fingerprint pass too.
        use_cache = self.cache.capacity > 0 and strategy != "random"
        key = None
        if use_cache:
            key = plan_fingerprint(
                sets, view_ids, strategy, num_gaussians,
                cameras=cameras if strategy == "camera" else None,
            )
            cached = self.cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                return cached

        start = time.perf_counter()
        order = None  # the op searches the 'tsp' order itself
        if strategy != "tsp":
            order = orders.order_microbatches(strategy, sets, cameras, seed=self._rng)
        order_s = time.perf_counter() - start
        planned = self._ops("plan_batch")(
            sets, view_ids, order, self._rng, self.tsp_time_limit_s,
            self.enable_cache, num_gaussians,
        )
        self.counters.order_time_s += order_s + planned.search_s
        plan = BatchPlan(
            strategy=strategy,
            enable_cache=self.enable_cache,
            num_gaussians=int(num_gaussians),
            order=planned.order,
            view_ids=tuple(int(view_ids[k]) for k in planned.order),
            steps=planned.steps,
            touched=planned.touched,
            adam_chunks=planned.adam_chunks,
        )
        self.counters.plans_built += 1
        self.counters.build_time_s += time.perf_counter() - start
        if use_cache:
            self.cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    def plan_sharded(
        self,
        sets: Sequence[np.ndarray],
        view_ids: Sequence[int],
        assignment,
        cameras=None,
        *,
        num_gaussians: int,
        strategy: Optional[str] = None,
        work_stealing: bool = True,
    ):
        """Plan one batch and split it across the devices of a
        :class:`repro.sharding.ShardAssignment`.

        The global plan comes from the ordinary :meth:`plan` call — same
        RNG draws, same cache, same ordering — and the per-device split is
        a deterministic derivation on top (see
        :func:`repro.sharding.build_sharded_plan`), which is what keeps
        the K=1 configuration bit-identical to single-device planning.
        Returns a :class:`repro.sharding.ShardedBatchPlan`.
        """
        # Lazy import: repro.sharding builds on this module.
        from repro.sharding.plan import build_sharded_plan

        plan = self.plan(
            sets,
            view_ids,
            cameras=cameras,
            num_gaussians=num_gaussians,
            strategy=strategy,
        )
        return build_sharded_plan(
            plan, assignment, work_stealing=work_stealing,
            plan_batch=self._ops("plan_batch"),
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counter snapshot for reporting (CLI, benchmarks, serving).

        ``evictions``/``cache_size`` come from the :class:`PlanCache`
        itself: under capacity churn (the serving workload) the eviction
        count is what distinguishes "cold misses" from "cache too small".
        """
        c = self.counters
        return {
            "requests": c.requests,
            "plans_built": c.plans_built,
            "cache_hits": c.cache_hits,
            "hit_rate": c.hit_rate,
            "build_time_s": c.build_time_s,
            "order_time_s": c.order_time_s,
            "evictions": float(self.cache.evictions),
            "cache_size": float(len(self.cache)),
        }
