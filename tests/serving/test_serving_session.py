"""ServingSession end-to-end: accounting, locality hits, coalescing,
admission control, LOD reduction."""

import numpy as np
import pytest

from repro.gaussians.model import GaussianModel
from repro.serving import (
    LodConfig,
    RenderRequest,
    ServingConfig,
    ServingSession,
    bursty_stream,
    ring_cameras,
    trajectory_stream,
)
from repro.serving.metrics import STATUS_DONE

LOD = LodConfig(distance_edges=(2.0, 5.0), keep_fractions=(0.5, 0.25))


@pytest.fixture(scope="module")
def model():
    return GaussianModel.random(150, extent=1.0, sh_degree=1, seed=4)


@pytest.fixture(scope="module")
def cams():
    return ring_cameras(views_per_ring=4, radii=(2.2, 5.5, 12.0),
                        width=32, height_px=24)


def test_serve_accounts_for_every_request(model, cams):
    n = 80
    stream = bursty_stream(cams, n, rate_rps=600.0, burst_size=10, seed=2)
    sess = ServingSession(model, ServingConfig(
        max_batch=4, queue_capacity=8, lod=LOD, seed=0))
    report = sess.serve(stream)
    assert len(report.records) == n
    assert [r.request_id for r in report.records] == list(range(n))
    assert len(report.completed) + report.shed_count \
        + report.expired_count == n
    assert report.queue_stats["offered"] == n
    # A burst of 10 lands within microseconds on a queue of 8: admission
    # control sheds rather than serving everything late.
    assert report.shed_count + report.expired_count > 0
    # Served requests carry a full latency breakdown.
    for r in report.completed:
        assert r.done_s >= r.arrival_s
        assert r.latency_s >= r.queue_s >= 0.0
        assert r.batch_id >= 0 and r.working_set > 0
    assert 0.0 <= report.slo_violation_rate <= 1.0


def test_trajectory_locality_hits_plan_cache(model, cams):
    # dwell aligned to max_batch + a saturating rate: batch compositions
    # repeat every lap, so laps 2..k are mostly cache hits.
    dwell, laps = 8, 2
    n = len(cams) * dwell * laps
    stream = trajectory_stream(cams, n, rate_rps=5000.0, dwell=dwell,
                               seed=0)
    sess = ServingSession(model, ServingConfig(
        max_batch=4, queue_capacity=n, lod=LOD, seed=0))
    report = sess.serve(stream)
    assert len(report.completed) == n  # nothing sheds at capacity n
    assert report.plan_cache_hit_rate > 0.3
    assert report.planner_stats["cache_hits"] >= len(cams)


def test_same_view_requests_coalesce_into_one_render(model, cams):
    cam = cams[0]
    requests = [
        RenderRequest(request_id=i, view_id=cam.view_id, camera=cam,
                      arrival_s=0.0, slo_s=1.0)
        for i in range(6)
    ]
    sess = ServingSession(model, ServingConfig(
        max_batch=8, queue_capacity=8, lod=LOD, seed=0))
    report = sess.serve(requests)
    assert len(report.completed) == 6
    assert sess.batcher.counters.renders == 1
    assert sess.batcher.counters.coalesce_rate == pytest.approx(5 / 6)
    # All six share one batch and one rendered image's timing.
    assert len({r.batch_id for r in report.records}) == 1


def test_drop_expired_requests_at_dispatch(model, cams):
    # Everything arrives at t=0 with a ~zero budget: whatever misses the
    # first batch is already expired by the time it would dispatch.
    requests = [
        RenderRequest(request_id=i, view_id=cams[i % 4].view_id,
                      camera=cams[i % 4], arrival_s=0.0, slo_s=1e-9)
        for i in range(12)
    ]
    sess = ServingSession(model, ServingConfig(
        max_batch=4, queue_capacity=16, drop_expired=True, lod=LOD,
        seed=0))
    report = sess.serve(requests)
    assert len(report.completed) >= 1
    assert report.expired_count >= 1
    assert report.slo_violation_rate == 1.0  # the budget was impossible
    assert len(report.completed) + report.expired_count == 12


def test_lod_reduces_far_view_compositing(model, cams):
    sess = ServingSession(model, ServingConfig(lod=LOD, seed=0))
    far = [c for c in cams if c.view_id >= 8]
    full = sess.mean_composited(far, use_lod=False)
    culled = sess.mean_composited(far, use_lod=True)
    assert 0.0 < culled < full
    # Serving a far view composites the culled count.
    req = RenderRequest(request_id=0, view_id=far[0].view_id,
                        camera=far[0], arrival_s=0.0, slo_s=1.0)
    report = sess.serve([req])
    record = report.records[0]
    assert record.status == STATUS_DONE
    assert record.lod_level == 2
    assert record.working_set < model.num_gaussians


def test_no_lod_config_serves_full_detail(model, cams):
    sess = ServingSession(model, ServingConfig(lod=None, seed=0))
    assert sess.lod is None
    far = cams[-1]
    req = RenderRequest(request_id=0, view_id=far.view_id, camera=far,
                        arrival_s=0.0, slo_s=1.0)
    report = sess.serve([req])
    assert report.records[0].lod_level == 0
    assert report.lod_subset_sizes == {}


def test_empty_stream(model):
    report = ServingSession(model, ServingConfig(seed=0)).serve([])
    assert len(report.records) == 0
    assert report.throughput_rps == 0.0
    assert np.isnan(report.p50_ms)
