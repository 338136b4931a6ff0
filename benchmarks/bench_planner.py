"""Batch-planning layer microbenchmarks (§4.2 scheduling cost).

Three claims backed by records in ``BENCH_results.json``:

(a) building a :class:`repro.planning.BatchPlan` (the ``plan_batch``
    kernel op on the planner's backend: TSP + set algebra) fits the
    paper's per-batch scheduling budget at batch-scale inputs;
(b) a :class:`repro.planning.PlanCache` hit is orders of magnitude cheaper
    than a rebuild — steady-state consumers skip TSP and set algebra;
(c) the NumPy reference's vectorized one-pass ``intersection_matrix``
    (universe + columns from a single ``np.unique``, elements hashed once
    per view) beats the pairwise ``intersect1d`` construction it replaced;
(d) the reference's set algebra is linear in what the batch touches: two
    membership partitions a microbatch beat the four ``intersect1d`` /
    ``setdiff1d`` calls they replaced (``transfer_plan_b8``), and the Adam
    chunks of 8 sets of 2 500 rows no longer cost eight scans of a
    400 000-row model (``adam_chunks_n400k``).

Every time is warm-up + median-of-N (:func:`repro.bench.median_time`) with
its spread in ``extra``; the declared gates hold the spreads to
:func:`repro.bench.repeats_agree` and (d) to its claim.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.bench import median_time, register_benchmark, repeats_agree
from repro.planning import BatchPlanner, adam_overlap
from repro.planning.caching import build_transfer_plan
from repro.utils import setops
from repro.utils.setops import as_index_set


def clustered_view_sets(batch, universe, size, seed):
    """Consecutive 'regions' share most elements, like a scene's views.

    The window center random-walks by a fraction of the window width, so
    adjacent sets overlap heavily — the consecutive-view-overlap workload
    precise caching and the TSP ordering exploit.
    """
    rng = np.random.default_rng(seed)
    sets = []
    center = int(rng.integers(0, universe))
    for _ in range(batch):
        center = (center + int(rng.integers(0, size // 2))) % universe
        sets.append(as_index_set(
            (center + rng.integers(0, size, size)) % universe
        ))
    return sets


def pairwise_intersection_matrix(sets):
    """The pre-vectorization reference: B^2 ``intersect1d`` calls."""
    n = len(sets)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[i, j] = np.intersect1d(
                sets[i], sets[j], assume_unique=True
            ).size
    return out


def four_setop_transfer_plan(sets):
    """The pre-partition reference: four sorting set operations a step."""
    empty = np.empty(0, dtype=np.int64)
    steps = []
    for i, current in enumerate(sets):
        prev_set = sets[i - 1] if i > 0 else empty
        next_set = sets[i + 1] if i + 1 < len(sets) else empty
        steps.append((
            np.setdiff1d(current, prev_set, assume_unique=True),
            np.intersect1d(current, prev_set, assume_unique=True),
            np.setdiff1d(current, next_set, assume_unique=True),
            np.intersect1d(current, next_set, assume_unique=True),
        ))
    return steps


def dense_adam_chunks(sets, num_gaussians):
    """The O(B·N) reference: one ``num_gaussians``-long scan a microbatch."""
    last = np.zeros(num_gaussians, dtype=np.int64)
    for position, s in enumerate(sets, start=1):
        last[s] = position
    return [
        np.nonzero(last == position)[0].astype(np.int64)
        for position in range(1, len(sets) + 1)
    ]


def set_algebra_beats_what_it_replaced(records):
    """The linear set algebra must stay ahead of the constructions it
    replaced — the margin is why the replaced code is gone."""
    for variant in ("transfer_plan_b8", "adam_chunks_n400k"):
        speedup = records[variant]["extra"]["speedup"]
        assert speedup > 1.0, (
            f"{variant} is no faster than its reference ({speedup:.2f}x)"
        )


@register_benchmark(
    "planner", figure="§4.2 planning layer", tags=("micro", "planning"),
    variants=("plan_build_b16", "plan_cache_hit_b16",
              "distance_matrix_vectorized_b32", "transfer_plan_b8",
              "adam_chunks_n400k"),
    gates=(repeats_agree, set_algebra_beats_what_it_replaced),
)
def compute(ctx):
    """BatchPlan build time, PlanCache hit speedup, distance-matrix cost."""
    rows = []
    batch = 16
    sets = clustered_view_sets(batch, 20_000, 600, seed=7)
    view_ids = list(range(batch))

    def build_fresh():
        """Cold build: fresh planner per repeat so no attempt cache-hits
        (the median on both sides keeps the speedup ratio honest)."""
        p = BatchPlanner(ordering="tsp", enable_cache=True, cache_size=4,
                         seed=0)
        return p, p.plan(sets, view_ids, num_gaussians=20_000)

    build_s, build_spread, (planner, plan) = median_time(build_fresh)
    hit_s, hit_spread, plan2 = median_time(
        lambda: planner.plan(sets, view_ids, num_gaussians=20_000)
    )
    assert plan2 is plan, "expected a cache hit on the repeated batch"
    hit_rate = planner.counters.hit_rate
    rows.append(["plan build (B=16)", build_s * 1e3, float("nan")])
    rows.append(["plan cache hit (B=16)", hit_s * 1e3, build_s / hit_s])
    ctx.record(variant="plan_build_b16", wall_time_s=build_s,
               spread=build_spread, total_loads=plan.total_loads,
               order_time_s=planner.counters.order_time_s)
    ctx.record(variant="plan_cache_hit_b16", wall_time_s=hit_s,
               spread=hit_spread, speedup=build_s / hit_s,
               cache_hit_rate=hit_rate)

    # The NumPy reference's distance matrix vs the pairwise construction
    # it replaced (the records below time the reference's functions, so
    # they name its backend; the plan records above inherit ``auto``).
    dsets = clustered_view_sets(32, 20_000, 600, seed=11)
    vec_s, vec_spread, vec = median_time(
        lambda: setops.intersection_matrix(dsets))
    ref_s, _, ref = median_time(lambda: pairwise_intersection_matrix(dsets))
    np.testing.assert_array_equal(vec, ref)
    rows.append(["distance matrix vectorized (B=32)", vec_s * 1e3,
                 ref_s / vec_s])
    ctx.record(variant="distance_matrix_vectorized_b32", kernel_backend="numpy",
               wall_time_s=vec_s,
               spread=vec_spread, speedup=ref_s / vec_s,
               reference_wall_time_s=ref_s)

    # The set algebra behind a plan, against the constructions it replaced.
    tsets = clustered_view_sets(8, 20_000, 600, seed=13)
    part_s, part_spread, steps = median_time(
        lambda: build_transfer_plan(tsets), repeats=7)
    four_s, _, reference = median_time(
        lambda: four_setop_transfer_plan(tsets), repeats=7)
    for step, (loads, cached, stores, carried) in zip(steps, reference):
        np.testing.assert_array_equal(step.loads, loads)
        np.testing.assert_array_equal(step.cached, cached)
        np.testing.assert_array_equal(step.stores, stores)
        np.testing.assert_array_equal(step.carried, carried)
    rows.append(["transfer plan (B=8)", part_s * 1e3, four_s / part_s])
    ctx.record(variant="transfer_plan_b8", kernel_backend="numpy",
               wall_time_s=part_s,
               spread=part_spread, speedup=four_s / part_s,
               reference_wall_time_s=four_s)

    big_n = 400_000
    csets = clustered_view_sets(8, big_n, 7_500, seed=17)
    csets = [s[:2_500] for s in csets]
    chunk_s, chunk_spread, chunks = median_time(
        lambda: adam_overlap.adam_chunks(csets, big_n), repeats=7)
    dense_s, _, dense = median_time(
        lambda: dense_adam_chunks(csets, big_n), repeats=7)
    for got, want in zip(chunks, dense):
        np.testing.assert_array_equal(got, want)
    rows.append(["adam chunks (B=8, N=400k)", chunk_s * 1e3, dense_s / chunk_s])
    ctx.record(variant="adam_chunks_n400k", kernel_backend="numpy",
               wall_time_s=chunk_s,
               spread=chunk_spread, speedup=dense_s / chunk_s,
               reference_wall_time_s=dense_s,
               num_gaussians=big_n, rows_per_set=2_500)

    ctx.emit(
        "Batch-planning microbenchmarks (speedup: vs rebuild / vs "
        "pairwise reference)",
        format_table(["operation", "time ms", "speedup x"], rows,
                     floatfmt="{:.3f}"),
    )
    ctx.log_raw("planner", {"rows": rows})
    return rows


def test_planner_microbench(benchmark, bench_ctx):
    bench_ctx.drain_records()
    rows = benchmark.pedantic(compute, args=(bench_ctx,), rounds=1,
                              iterations=1)
    build_ms, hit_ms = rows[0][1], rows[1][1]
    assert hit_ms < build_ms, "a cache hit must be cheaper than a rebuild"
    assert rows[1][2] > 1.0
    # The vectorized distance matrix should comfortably beat B^2
    # intersect1d calls at B=32.
    assert rows[2][2] > 1.0
    # Two partitions beat four set operations; chunks from the touched rows
    # beat eight scans of the model — the declared gate.
    set_algebra_beats_what_it_replaced(
        {p["variant"]: p for p in bench_ctx.drain_records()}
    )
