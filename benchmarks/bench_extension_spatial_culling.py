"""§8 extension ablation: grid-accelerated vs linear frustum culling.

The paper flags linear culling as a future bottleneck ("its time complexity
scales linearly with the number of Gaussians") and proposes spatial
structures.  This benchmark quantifies the win on a city-scale cloud: the
grid classifies whole cells against the frustum, so per-Gaussian support
tests only run on the boundary shell.

Measured ratio, grid over linear: ~2x on the quick tier's 50 000-Gaussian
cloud (1.6-3.2x per view) and ~3x on the full tier's 200 000 (2.2-4.7x).
It was 16-22x and 40-250x while the linear cull put every row through the
exact ellipsoid test; since the linear cull became two-level (a
bounding-sphere GEMM ahead of the exact test, see
:mod:`repro.gaussians.frustum`) the rows the grid skips cost it ~30 ns
each, and what is left of the grid's win is skipping that O(N) pass.

Thin wrapper: the comparison itself lives in
:func:`repro.serving.lod.grid_culling_report` (the serving layer culls
every request through the same grid), this module just sizes the scene
and emits the records.
"""

from repro.analysis.reporting import format_table
from repro.bench import register_benchmark
from repro.bench.params import SCENE_SEED
from repro.scenes.datasets import build_scene
from repro.serving.lod import grid_culling_report


@register_benchmark("extension_spatial_culling", figure="§8 extension",
                    tags=("micro", "culling"))
def compute(ctx):
    """Grid-accelerated vs linear frustum culling on a city-scale cloud."""
    # Builds its own larger cloud: culling cost only becomes visible well
    # above the tier's default scene scale.
    scene = build_scene("bigcity", scale=ctx.tier.spatial_scale,
                        num_views=2 * ctx.tier.spatial_views,
                        seed=SCENE_SEED)
    rows, summary = grid_culling_report(
        scene.model, scene.cameras[:ctx.tier.spatial_views],
        target_cells_per_axis=24,
    )
    linear_total = sum(row[2] for row in rows) * 1e-3
    grid_total = sum(row[3] for row in rows) * 1e-3
    ctx.record(scene="bigcity", variant="grid-vs-linear",
               wall_time_s=linear_total + grid_total,
               speedup=summary[2], num_gaussians=scene.model.num_gaussians)
    ctx.emit(
        f"§8 extension — spatial culling on a {summary[0]:,}-Gaussian "
        f"BigCity cloud ({summary[1]} cells); overall speedup "
        f"{summary[2]:.1f}x",
        format_table(
            ["view", "|S|", "linear ms", "grid ms", "speedup",
             "exact-tested %"],
            rows, floatfmt="{:.2f}",
        ),
    )
    ctx.log_raw("extension_spatial_culling",
                {"rows": rows, "summary": summary})
    return rows, summary


def test_extension_spatial_culling(benchmark, bench_ctx):
    rows, summary = benchmark.pedantic(compute, args=(bench_ctx,), rounds=1,
                                       iterations=1)
    # Exactness was asserted inside grid_culling_report(); on a sparse
    # city-scale scene the grid must still beat the (two-level) linear
    # cull — by ~2x here, see the module docstring.
    assert summary[2] > 1.0
    for row in rows:
        assert row[5] < 50.0  # most Gaussians never reach the exact test
