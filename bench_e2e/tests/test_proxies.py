import pytest

from bench_e2e import spans as sp


def class_attributes(recorder):
    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _name, _rows in sp.proxy_targets(recorder)
    }


def test_only_public_names_are_wrapped():
    for owner, attr, _name, _rows in sp.proxy_targets(sp.Recorder()):
        assert not attr.startswith("_"), (owner, attr)
        assert not owner.__name__.startswith("_")
        assert owner.__module__.startswith("repro.")


def test_every_proxy_is_removed_on_exit():
    recorder = sp.Recorder()
    before = class_attributes(recorder)
    with sp.installed(recorder):
        during = class_attributes(recorder)
        assert recorder.enabled
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    assert not recorder.enabled
    assert class_attributes(recorder) == before
    assert all(class_attributes(recorder)[k] is before[k] for k in before)


def test_proxies_are_removed_when_the_body_raises():
    recorder = sp.Recorder()
    before = class_attributes(recorder)
    with pytest.raises(RuntimeError):
        with sp.installed(recorder):
            raise RuntimeError("boom")
    assert not recorder.enabled
    assert all(class_attributes(recorder)[k] is before[k] for k in before)


def test_installed_proxies_record_a_real_batch():
    from bench_e2e import training, workloads

    workload = workloads.get_workload("dense", smoke=True)
    inputs = workloads.build_train_inputs(workload.train, seed=0)
    recorder = sp.Recorder()
    sess = training.make_session(
        "clm", workload.train, inputs, renderers=sp.traced_renderers(recorder)
    )
    try:
        sess.train_batch([0, 1, 2, 3])
        assert recorder.spans == []  # nothing installed, nothing recorded
        with sp.installed(recorder):
            with recorder.span("batch") as root:
                sess.train_batch([0, 1, 2, 3])
    finally:
        training.close_session(sess)
    names = {s.name for s in sp.descendants(root)}
    assert {
        "gaussians.cull", "planning.plan", "core.assemble",
        "gaussians.forward", "gaussians.backward", "core.add_grads",
        "core.retire", "core.zero_grads", "runtime.submit", "runtime.barrier",
    } <= names
    forward = [s for s in sp.descendants(root) if s.name == "gaussians.forward"]
    assert len(forward) == 4 and all(s.rows > 0 for s in forward)
    assert 0.0 <= sp.self_time(root) < root.duration
