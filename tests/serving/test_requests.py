"""Request model + arrival processes: determinism, ordering, shapes."""

import numpy as np
import pytest

from repro.serving import requests as req


@pytest.fixture(scope="module")
def cams():
    return req.ring_cameras(views_per_ring=4, radii=(2.0, 6.0))


def test_ring_cameras_ids_and_geometry(cams):
    assert len(cams) == 8
    assert [c.view_id for c in cams] == list(range(8))
    # Ring-major: the far ring is farther from the origin.
    near = np.linalg.norm(cams[0].center)
    far = np.linalg.norm(cams[4].center)
    assert far > near
    # Deterministic without consuming any RNG stream.
    again = req.ring_cameras(views_per_ring=4, radii=(2.0, 6.0))
    for a, b in zip(cams, again):
        assert np.array_equal(a.center, b.center)


@pytest.mark.parametrize("kind", req.STREAMS)
def test_streams_deterministic_and_sorted(cams, kind):
    one = req.build_stream(kind, cams, 50, rate_rps=100.0, seed=9)
    two = req.build_stream(kind, cams, 50, rate_rps=100.0, seed=9)
    other = req.build_stream(kind, cams, 50, rate_rps=100.0, seed=10)
    assert len(one) == 50
    assert [r.arrival_s for r in one] == [r.arrival_s for r in two]
    assert [r.view_id for r in one] == [r.view_id for r in two]
    if kind != "trajectory":  # trajectory views are seed-independent
        assert [r.arrival_s for r in one] != [r.arrival_s for r in other]
    arrivals = [r.arrival_s for r in one]
    assert arrivals == sorted(arrivals)
    assert [r.request_id for r in one] == list(range(50))
    assert all(0 <= r.view_id < len(cams) for r in one)


def test_trajectory_dwell_structure(cams):
    stream = req.trajectory_stream(cams, 40, rate_rps=50.0, dwell=5, seed=0)
    views = [r.view_id for r in stream]
    # 5 requests per view, stepping through the camera list in order.
    assert views == [(i // 5) % len(cams) for i in range(40)]


def test_bursty_stream_clusters_arrivals(cams):
    stream = req.bursty_stream(cams, 60, rate_rps=100.0, burst_size=10,
                               seed=3)
    gaps = np.diff([r.arrival_s for r in stream])
    # Within-burst gaps are ~1000x tighter than between-burst gaps.
    assert np.quantile(gaps, 0.5) < np.quantile(gaps, 0.95) / 10.0


def test_deadline_and_span(cams):
    stream = req.poisson_stream(cams, 10, rate_rps=100.0, slo_s=0.1,
                                seed=1, start_s=2.0)
    r = stream[0]
    assert r.deadline_s == pytest.approx(r.arrival_s + 0.1)
    assert 2.0 < stream[0].arrival_s <= stream[-1].arrival_s


def test_build_stream_rejects_unknown_kind(cams):
    with pytest.raises(ValueError, match="unknown stream"):
        req.build_stream("steady", cams, 5, rate_rps=1.0)
