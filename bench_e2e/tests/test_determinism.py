import numpy as np
import pytest

from bench_e2e import workloads as wl


def stream_bytes(requests) -> bytes:
    return repr(
        [(r.request_id, r.view_id, r.arrival_s.hex(), r.slo_s) for r in requests]
    ).encode()


@pytest.mark.parametrize("name", ["dense", "sparse"])
def test_batch_schedule_is_a_function_of_the_seed(name):
    spec = wl.get_workload(name).train
    a = wl.batch_schedule(spec, 3, 20)
    assert repr(a).encode() == repr(wl.batch_schedule(spec, 3, 20)).encode()
    assert a != wl.batch_schedule(spec, 4, 20)
    assert a[:8] == wl.batch_schedule(spec, 3, 8)  # a longer run extends it
    for batch in a:
        assert len(batch) == len(set(batch)) == spec.batch_size
        assert all(0 <= v < spec.num_views for v in batch)


@pytest.mark.parametrize("name", ["dense", "sparse"])
@pytest.mark.parametrize("phase", ["warmup.lo", "sat", "lo", "hi", "traced"])
def test_request_streams_are_a_function_of_the_seed(name, phase):
    spec = wl.get_workload(name, smoke=True).serve
    cameras = wl.build_serve_inputs(spec).cameras
    a = wl.request_stream(spec, cameras, phase, 50, 3)
    assert stream_bytes(a) == stream_bytes(
        wl.request_stream(spec, cameras, phase, 50, 3)
    )
    assert stream_bytes(a) != stream_bytes(
        wl.request_stream(spec, cameras, phase, 50, 4)
    )
    assert [r.request_id for r in a] == list(range(50))


def test_phases_draw_from_independent_streams():
    spec = wl.get_workload("sparse", smoke=True).serve
    cameras = wl.build_serve_inputs(spec).cameras
    lo = wl.request_stream(spec, cameras, "lo", 50, 0)
    traced = wl.request_stream(spec, cameras, "traced", 50, 0)
    assert [r.view_id for r in lo] != [r.view_id for r in traced]


@pytest.mark.parametrize("name", ["dense", "sparse"])
def test_the_scene_is_fixed_and_the_seed_draws_the_traffic(name):
    spec = wl.get_workload(name, smoke=True).train
    a, b, c = (wl.build_train_inputs(spec, s) for s in (1, 1, 2))
    for other in (b, c):
        assert all(
            x.tobytes() == y.tobytes()
            for x, y in zip(a.scene.images, other.scene.images)
        )
    if a.initial_model is None:
        return
    same = [
        np.array_equal(v, b.initial_model.parameters()[k])
        for k, v in a.initial_model.parameters().items()
    ]
    moved = [
        not np.array_equal(v, c.initial_model.parameters()[k])
        for k, v in a.initial_model.parameters().items()
    ]
    assert all(same) and any(moved)


def test_sizes_scale_with_seconds_and_never_below_the_floor():
    base = wl.Sizes.for_seconds(30)
    assert (base.measured_batches, base.phase_requests) == (18, 400)
    floor = wl.Sizes.for_seconds(1)
    assert (floor.measured_batches, floor.phase_requests) == (12, 200)
    assert floor.sat_requests >= 200
    double = wl.Sizes.for_seconds(60)
    assert (double.measured_batches, double.phase_requests) == (36, 800)
    for sizes in (base, floor, double):
        assert sizes.phase_requests % sizes.segment_requests == 0
        assert sizes.sat_requests % sizes.segment_requests == 0
