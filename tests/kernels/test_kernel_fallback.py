"""Graceful degradation and engine threading of the kernel backends.

The native backend must register but report unavailable on a host without
a C compiler (simulated by making its compiler lookup find nothing), and
every resolution path must land on the NumPy reference — with a warning
when the backend was asked for by name, silently under ``auto``.  The
engine layer must thread the backend identity everywhere it has to be
visible: PerfCounters (what composited the renders), RasterSettings /
RenderContext, PackedSparseAdam, and plan fingerprints.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.kernels import (
    ENV_VAR,
    adam_spec,
    compile_with_fallback,
    get_backend,
    resolve_backend,
    rows_spec,
    view_spec,
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
    spec = rows_spec("zero_rows", np.zeros((4, 10)))
    fn, used = compile_with_fallback(no_compiler, spec)
    assert used.name == "numpy"
    assert fn is get_backend("numpy").compile(spec)


def test_float32_operands_decline_the_jit_backend():
    """Even where a compiler IS found, a float32 blend state stays on the
    reference: the kernels built at first use index raw float64 buffers."""
    backend = get_backend("native")
    model = GaussianModel.random(4, sh_degree=1, seed=0)
    spec32 = view_spec(np.float32, model)
    assert backend.supports(view_spec(np.float64, model))
    assert backend.supports(spec32) is False
    fn, used = compile_with_fallback(backend, spec32)
    assert used.name == "numpy"


def test_float32_gradients_send_adam_to_the_reference():
    """``native`` runs ``adam_rows`` over float64 buffers; float32 gradient
    staging is handed to NumPy per op, without a warning."""
    backend = get_backend("native")
    ops = [np.zeros((8, 10)) for _ in range(4)]
    staged = [ops[0], ops[1].astype(np.float32), ops[2], ops[3]]
    assert backend.supports(adam_spec(*ops))
    assert backend.supports(adam_spec(*staged)) is False
    fn, used = compile_with_fallback(backend, adam_spec(*staged))
    assert used.name == "numpy"
    fn(*staged, np.zeros(8, dtype=np.int64), np.arange(8), np.full(10, 1e-2),
       0.9, 0.999, 1e-8)


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


def test_perf_reports_the_backend_that_composited_the_renders(
    trainable_scene,
):
    """What ``PerfCounters`` names is the backend the batch's renders — the
    dominant cost — ran on; the optimizers report their own."""
    if not get_backend("native").available():
        pytest.skip("no C compiler on this host")
    init, targets = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras, EngineConfig(batch_size=4)
    )
    engine.train_batch(BATCH, targets)
    assert engine.perf.kernel_backend == "native"
    assert engine.adam_critical.active_kernel_backend == "native"


def test_perf_reports_numpy_when_float32_state_is_declined(trainable_scene):
    """Float32 blend state is declined per op: the renders run on NumPy
    and the counters must not claim the configured backend."""
    init, targets = _engine_setup(trainable_scene)
    engine = create_engine(
        "clm", init, trainable_scene.cameras,
        EngineConfig(batch_size=4, raster=RasterSettings(dtype="float32")),
    )
    engine.train_batch(BATCH, targets)
    view = engine.render_view(trainable_scene.cameras[0].view_id)
    assert view.ctx.kernel_backend == "numpy"
    assert engine.perf.kernel_backend == "numpy"


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
