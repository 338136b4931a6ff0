"""Timed experiment runner: the §6.3 performance shapes, in miniature."""

import pytest

from repro.core.config import TimingConfig
from repro.core.timed import communication_volume_per_batch, run_timed
from repro.hardware.specs import RTX2080TI_TESTBED, RTX4090_TESTBED


@pytest.fixture(scope="module")
def bigcity(index_cache):
    # module-scoped alias; index_cache itself is session-scoped
    return index_cache


def cfg(**kwargs):
    defaults = dict(testbed=RTX4090_TESTBED, paper_num_gaussians=15e6,
                    num_batches=3, seed=0)
    defaults.update(kwargs)
    return TimingConfig(**defaults)


def test_unknown_system_rejected(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    with pytest.raises(ValueError):
        run_timed("bogus", scene, index, cfg())


def test_throughput_positive_all_systems(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    for system in ("baseline", "enhanced", "naive", "clm"):
        res = run_timed(system, scene, index, cfg())
        assert res.images_per_second > 0
        assert res.num_batches == 3


def test_enhanced_faster_than_baseline(index_cache):
    """Figure 12's pre-rendering-culling gain on a low-rho scene."""
    scene, index = index_cache("bigcity", 1e-4, 80)
    base = run_timed("baseline", scene, index, cfg())
    enh = run_timed("enhanced", scene, index, cfg())
    assert enh.images_per_second > 1.5 * base.images_per_second


def test_clm_faster_than_naive(index_cache):
    """Figure 11: CLM beats naive offloading; the gap is widest on the
    slower GPU (paper: 1.92x on the 2080 Ti BigCity)."""
    scene, index = index_cache("bigcity", 1e-4, 80)
    config = cfg(testbed=RTX2080TI_TESTBED, paper_num_gaussians=20.6e6,
                 num_batches=6)
    naive = run_timed("naive", scene, index, config)
    clm = run_timed("clm", scene, index, config)
    # The win must be robust at any sampled rho; the full 1.4-1.9x factor
    # is reproduced at benchmark scale (bench_fig11_throughput_vs_naive).
    assert clm.images_per_second > 1.1 * naive.images_per_second
    assert clm.adam_trailing_s < naive.adam_trailing_s


def test_clm_overhead_vs_enhanced_bounded(index_cache):
    """Figure 12: CLM reaches a large fraction of enhanced throughput."""
    scene, index = index_cache("bigcity", 1e-4, 80)
    enh = run_timed("enhanced", scene, index, cfg(num_batches=4))
    clm = run_timed("clm", scene, index, cfg(num_batches=4))
    ratio = clm.images_per_second / enh.images_per_second
    assert 0.4 < ratio <= 1.05


def test_overlap_better_on_slower_gpu(index_cache):
    """§6.3: offloading overhead hides better on the 2080 Ti."""
    scene, index = index_cache("bigcity", 1e-4, 80)
    ratios = {}
    for tb in (RTX4090_TESTBED, RTX2080TI_TESTBED):
        enh = run_timed("enhanced", scene, index,
                        cfg(testbed=tb, paper_num_gaussians=7e6))
        clm = run_timed("clm", scene, index,
                        cfg(testbed=tb, paper_num_gaussians=7e6))
        ratios[tb.name] = clm.images_per_second / enh.images_per_second
    assert ratios["rtx2080ti"] >= ratios["rtx4090"] - 0.05


def test_naive_volume_is_59_floats_per_gaussian(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    res = run_timed("naive", scene, index, cfg(paper_num_gaussians=10e6))
    assert res.load_bytes_per_batch == pytest.approx(10e6 * 59 * 4)


def test_clm_volume_far_below_naive(index_cache):
    """Figure 14: selective loading alone slashes communication."""
    scene, index = index_cache("bigcity", 1e-4, 80)
    naive = run_timed("naive", scene, index, cfg())
    clm = run_timed("clm", scene, index, cfg())
    # Lower bound set by geometry: B * rho_mean * 49/59 of the full model.
    assert clm.load_bytes_per_batch < 0.45 * naive.load_bytes_per_batch


def test_comm_volume_helper_matches_ordering(index_cache):
    """TSP <= random in per-batch load volume (Figure 14's ordering)."""
    scene, index = index_cache("bicycle", 1e-4, 48)
    vol = {}
    for ordering in ("random", "tsp"):
        vol[ordering] = communication_volume_per_batch(
            scene, index, cfg(ordering=ordering, num_batches=6,
                              batch_size=4),
        )
    assert vol["tsp"] <= vol["random"] * 1.001


def test_no_cache_increases_volume(index_cache):
    scene, index = index_cache("bicycle", 1e-4, 48)
    cached = communication_volume_per_batch(
        scene, index, cfg(num_batches=4, batch_size=4))
    uncached = communication_volume_per_batch(
        scene, index, cfg(num_batches=4, batch_size=4, enable_cache=False))
    assert cached < uncached


def test_adam_trailing_time_nonnegative(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    res = run_timed("clm", scene, index, cfg())
    assert res.adam_trailing_s >= 0.0


def test_utilization_clm_above_naive(index_cache):
    """Figure 15 / Table 7: CLM keeps the GPU busier."""
    from repro.hardware.metrics import average_gpu_utilization

    scene, index = index_cache("bigcity", 1e-4, 80)
    naive = run_timed("naive", scene, index, cfg(paper_num_gaussians=40e6))
    clm = run_timed("clm", scene, index, cfg(paper_num_gaussians=40e6))
    assert average_gpu_utilization(clm.schedule) > average_gpu_utilization(
        naive.schedule
    )


def test_idle_cdf_readable(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    res = run_timed("clm", scene, index, cfg())
    rates, cdf = res.idle_cdf(sample_rate_hz=2000)
    assert rates.size > 0
    assert cdf[-1] == pytest.approx(1.0)


def test_batch_size_defaults_to_scene_spec(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    res = run_timed("clm", scene, index,
                    TimingConfig(paper_num_gaussians=15e6, num_batches=1))
    assert res.batch_size == scene.spec.batch_size


def test_too_few_views_rejected(index_cache):
    scene, index = index_cache("bigcity", 1e-4, 80)
    with pytest.raises(ValueError):
        run_timed("clm", scene, index, cfg(batch_size=1000))


@pytest.mark.parametrize("num_batches", [0, -1])
@pytest.mark.parametrize(
    "entry", ["run_timed", "communication_volume_per_batch", "run_sharded_timed"]
)
def test_fewer_than_one_batch_rejected(index_cache, entry, num_batches):
    """Each per-batch average divides by the batch count: an empty run is
    refused by name instead of dividing by zero."""
    from repro.sharding.timed import run_sharded_timed

    scene, index = index_cache("bigcity", 1e-4, 80)
    config = cfg(num_batches=num_batches)
    run = {
        "run_timed": lambda: run_timed("clm", scene, index, config),
        "communication_volume_per_batch": lambda: communication_volume_per_batch(
            scene, index, config
        ),
        "run_sharded_timed": lambda: run_sharded_timed(
            scene, index=index, config=config, num_devices=2
        ),
    }[entry]
    with pytest.raises(ValueError, match="num_batches"):
        run()
