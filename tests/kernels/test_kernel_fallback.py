"""Graceful degradation and engine threading of the kernel backends.

The native backend must register but report unavailable on a host without
a C compiler (simulated by making its compiler lookup find nothing), and
every resolution path must land on the NumPy reference — with a warning
when the backend was asked for by name, silently under ``auto``.  Where
it is available, no driver path hands an op to the reference.  The
engine layer must thread the backend identity everywhere it has to be
visible: PerfCounters (what composited the renders), RasterSettings /
RenderContext, PackedSparseAdam, and plan fingerprints.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.model import GaussianModel
from repro.kernels import (
    ENV_VAR,
    compile_with_fallback,
    get_backend,
    resolve_backend,
)
from repro.kernels import native_backend
from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam

BATCH = [0, 1, 2, 3]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture()
def no_compiler(monkeypatch):
    """Simulate a host without a C compiler, whatever is installed: the
    compiler lookup finds nothing and the backend starts from scratch."""
    backend = get_backend("native")
    monkeypatch.setattr(native_backend, "find_compiler", lambda: None)
    monkeypatch.setattr(backend, "_library", None)
    monkeypatch.setattr(backend, "_compiled", {})
    return backend


def _engine_setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {c.view_id: img for c, img in
               zip(trainable_scene.cameras, trainable_scene.images)}
    return init, targets


# ----------------------------------------------------------------------
# compiler-absence degradation
# ----------------------------------------------------------------------


def test_native_registers_unavailable_without_compiler(no_compiler):
    assert no_compiler.available() is False
    assert no_compiler.version() is None
    assert "no C compiler" in no_compiler.detail()


def test_explicit_native_request_falls_back_with_warning(no_compiler):
    with pytest.warns(RuntimeWarning, match="not available"):
        backend = resolve_backend("native")
    assert backend.name == "numpy"


def test_auto_skips_unavailable_native(no_compiler, recwarn):
    assert resolve_backend(None).name == "numpy"
    assert resolve_backend("auto").name == "numpy"
    assert not recwarn.list  # nothing to say: auto just lands on the reference


def test_env_requested_native_falls_back(no_compiler, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "native")
    with pytest.warns(RuntimeWarning, match="not available"):
        backend = resolve_backend(None)
    assert backend.name == "numpy"


def test_compile_with_fallback_hands_ops_to_reference(no_compiler):
    fn, used = compile_with_fallback(no_compiler, "zero_rows")
    assert used.name == "numpy"
    assert fn is get_backend("numpy").compile("zero_rows")


def test_optimizer_runs_and_reports_reference_under_fallback(no_compiler):
    rng = np.random.default_rng(0)
    params = rng.standard_normal((64, 10))
    opt = PackedSparseAdam(
        {"packed": (10,)}, 64, config=AdamConfig(lr=1e-2),
        kernel_backend="native",
    )
    with pytest.warns(RuntimeWarning, match="not available"):
        opt.step_packed(params, rng.standard_normal((64, 10)),
                        np.arange(64))
    assert opt.active_kernel_backend == "numpy"


# ----------------------------------------------------------------------
# engine threading of the resolved backend identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", available_engines())
def test_engines_stamp_backend_into_perf(name, trainable_scene):
    init, targets = _engine_setup(trainable_scene)
    engine = create_engine(
        name, init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="numpy"),
    )
    assert engine.kernel_backend == "numpy"
    assert engine.perf.kernel_backend == "numpy"
    engine.train_batch(BATCH, targets)
    assert engine.perf.kernel_backend == "numpy"


#: Every driver path that trains: each registered engine, and the two CLM
#: runtime configurations the benchmark trains, as ``(engine, overrides)``.
DRIVERS = {
    **{name: (name, {}) for name in available_engines()},
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("driver", [*DRIVERS, "serving"])
def test_perf_reports_the_backend_that_composited_the_renders(
    driver, trainable_scene, monkeypatch
):
    """No driver path hands an op to the reference: with ``native``
    available, every op any engine, runtime configuration or served session
    resolves is ``native``'s, and what ``PerfCounters``, each optimizer and
    each render context name is ``native`` — the backend the batch's
    renders, the dominant cost, ran on."""
    from repro.kernels import registry
    from repro.serving import RenderRequest, ServingSession

    if not get_backend("native").available():
        pytest.skip("no C compiler on this host")
    compiled, compile_op = set(), registry.KernelBackend.compile

    def recording(backend, *args):
        compiled.add(backend.name)
        return compile_op(backend, *args)

    monkeypatch.setattr(registry.KernelBackend, "compile", recording)
    init, targets = _engine_setup(trainable_scene)
    engine_name, overrides = DRIVERS.get(driver, ("clm", {}))
    engine = create_engine(
        engine_name, init, trainable_scene.cameras,
        EngineConfig(batch_size=4, **overrides),
    )
    engine.train_batch(BATCH, targets)
    if driver == "serving":
        session = ServingSession.from_engine(engine)
        camera = trainable_scene.cameras[0]
        session.render_request(RenderRequest(0, camera.view_id, camera, 0.0, 1.0))
    else:
        assert engine.perf.kernel_backend == "native"
        optimizers = [
            getattr(engine, name) for name in ("adam_critical", "adam_noncritical", "optimizer")
            if hasattr(engine, name)
        ]
        assert optimizers
        for optimizer in optimizers:
            assert optimizer.active_kernel_backend == "native"
        for camera in trainable_scene.cameras[:2]:
            assert engine.render_view(camera.view_id).ctx.kernel_backend == "native"
    assert compiled == {"native"}


def test_engine_env_override_resolves_at_construction(
    trainable_scene, monkeypatch
):
    monkeypatch.setenv(ENV_VAR, "numpy")
    init, _ = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras, EngineConfig(batch_size=4)
    )
    assert engine.kernel_backend == "numpy"


def test_explicit_config_pins_raster_settings(trainable_scene):
    init, _ = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="numpy"),
    )
    assert engine.raster_settings.kernel_backend == "numpy"
    # The shared config object is never mutated.
    assert engine.config.raster.kernel_backend is None


def test_auto_config_keeps_live_settings_identity(trainable_scene):
    init, _ = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras, EngineConfig(batch_size=4)
    )
    assert engine.raster_settings is engine.config.raster


def test_render_context_reports_executing_backend(trainable_scene):
    init, _ = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="numpy"),
    )
    result = engine.render_view(trainable_scene.cameras[0].view_id)
    assert result.ctx.kernel_backend == "numpy"


def test_clm_threads_backend_into_both_optimizers(trainable_scene):
    init, targets = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras,
        EngineConfig(batch_size=4, kernel_backend="numpy"),
    )
    assert engine.adam_critical.kernel_backend == "numpy"
    assert engine.adam_noncritical.kernel_backend == "numpy"
    engine.train_batch(BATCH, targets)
    assert engine.adam_critical.active_kernel_backend == "numpy"
    assert engine.adam_noncritical.active_kernel_backend == "numpy"
