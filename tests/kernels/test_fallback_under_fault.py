"""Kernel-backend fault tolerance: a backend that *claims* support but
crashes at compile time mid-run must degrade per-op to the NumPy
reference — identical numerics, a RuntimeWarning, and the post-fallback
backend identity stamped into ``PerfCounters.kernel_backend``."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import CLMEngine
from repro.gaussians.model import GaussianModel
from repro.kernels import (
    KernelBackend,
    adam_spec,
    compile_with_fallback,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.kernels.registry import KERNEL_OPS

BATCH = [0, 1, 2, 3]


@pytest.fixture()
def flaky_backend():
    """A registered backend that passes every capability check, then
    blows up in ``_compile`` — the shape of a JIT toolchain breaking
    under a running job."""

    @register_backend("flaky")
    class FlakyBackend(KernelBackend):
        priority = 50  # would beat the reference if it worked
        description = "claims everything, compiles nothing"

        def capabilities(self):
            return frozenset(KERNEL_OPS)

        def _compile(self, spec):
            raise RuntimeError("JIT toolchain fault")

    yield get_backend("flaky")
    unregister_backend("flaky")


def _setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {c.view_id: img for c, img in
               zip(trainable_scene.cameras, trainable_scene.images)}
    return init, targets


def test_compile_failure_falls_back_per_op(flaky_backend):
    ops = [np.zeros((8, 10)) for _ in range(4)]
    with pytest.warns(RuntimeWarning, match="failed to compile"):
        fn, used = compile_with_fallback(flaky_backend, adam_spec(*ops))
    assert used.name == "numpy"
    fn(*ops, np.zeros(8, dtype=np.int64), np.arange(8), np.full(10, 1e-2),
       0.9, 0.999, 1e-8)


def test_reference_compile_failure_still_raises(flaky_backend, monkeypatch):
    """Only the reference backend has nothing to fall back to."""
    reference = get_backend("numpy")
    monkeypatch.setattr(
        type(reference), "_compile",
        lambda self, spec: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    monkeypatch.setattr(reference, "_compiled", {})
    with pytest.raises(RuntimeError, match="boom"):
        compile_with_fallback(reference, adam_spec(np.zeros((4, 3))))


def test_engine_trains_through_flaky_backend_identically(
    flaky_backend, trainable_scene
):
    """A full training batch on the crashing backend produces the exact
    parameters of a numpy run, and the perf counters report the backend
    actually used after the fallback — not the configured one."""
    init, targets = _setup(trainable_scene)
    reference = CLMEngine(
        init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="numpy"),
    )
    reference.train_batch(BATCH, targets)

    faulty = CLMEngine(
        init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="flaky"),
    )
    assert faulty.kernel_backend == "flaky"  # resolved as configured
    with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
        faulty.train_batch(BATCH, targets)
    assert faulty.perf.kernel_backend == "numpy"  # post-fallback identity

    a, b = reference.snapshot_model(), faulty.snapshot_model()
    for name in a.parameters():
        np.testing.assert_array_equal(
            a.parameters()[name], b.parameters()[name], err_msg=name
        )
