"""The kernel backend registry: registration, selection, compile caching.

Selection precedence (explicit name > env override > auto priority) is the
contract every engine relies on; the fallback paths (unknown env name,
registered-but-unavailable backend) must degrade to the NumPy reference
with a warning, never crash.  An op is compiled, cached and dispatched by
its name alone.
"""

import numpy as np
import pytest

from repro.kernels import (
    ENV_VAR,
    KERNEL_OPS,
    KernelBackend,
    OpDispatch,
    UnknownBackendError,
    UnsupportedKernelError,
    available_backends,
    backend_descriptions,
    backend_status,
    compile_with_fallback,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    unregister_backend,
)


class _FakeBackend(KernelBackend):
    priority = 99
    description = "test-only backend"
    is_available = True

    def available(self):
        return self.is_available

    def capabilities(self):
        return frozenset(KERNEL_OPS)

    def _compile(self, op):
        return lambda *a, **k: None


@pytest.fixture()
def fake_backend():
    name = "fake_test_backend"
    backend = register_backend(name)(_FakeBackend)
    try:
        yield get_backend(name)
    finally:
        unregister_backend(name)
    assert backend is _FakeBackend  # decorator returns the class


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def test_builtin_backends_registered():
    names = available_backends()
    assert names == ("numpy", "native")  # exactly two backends ship
    assert get_backend("numpy").available()  # reference always works
    descriptions = backend_descriptions()
    assert all(descriptions[n] for n in names)


def test_backend_status_rows():
    rows = {s["name"]: s for s in backend_status()}
    assert rows["numpy"]["available"] is True
    assert rows["numpy"]["version"] == np.__version__
    assert rows["numpy"]["priority"] == 0
    assert set(rows["native"]) == {
        "name", "available", "version", "priority", "description", "detail"
    }
    assert rows["native"]["priority"] > rows["numpy"]["priority"]


def test_unknown_backend_raises():
    with pytest.raises(UnknownBackendError):
        get_backend("no_such_backend")
    with pytest.raises(UnknownBackendError):
        resolve_backend("no_such_backend")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("numpy")(_FakeBackend)


def test_builtin_unregistration_rejected():
    with pytest.raises(ValueError, match="built-in"):
        unregister_backend("numpy")


def test_explicit_name_wins_over_env(fake_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fake_test_backend")
    assert resolve_backend_name("numpy") == "numpy"


def test_env_override_applies_to_auto(fake_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert resolve_backend_name(None) == "numpy"
    assert resolve_backend_name("auto") == "numpy"
    assert resolve_backend_name("") == "numpy"


def test_unknown_env_name_warns_and_auto_selects(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "bogus")
    with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
        name = resolve_backend_name(None)
    assert name in available_backends()


def test_auto_prefers_highest_priority_available(fake_backend):
    assert resolve_backend(None) is fake_backend  # priority 99
    fake_backend.is_available = False
    assert resolve_backend(None) is not fake_backend


def test_unavailable_backend_falls_back_with_warning(fake_backend):
    fake_backend.is_available = False
    with pytest.warns(RuntimeWarning, match="not available"):
        backend = resolve_backend("fake_test_backend")
    assert backend.name == "numpy"


def test_compile_is_cached_per_op():
    backend = get_backend("numpy")
    assert backend.compile("zero_rows") is backend.compile("zero_rows")


def test_compile_rejects_unsupported_op():
    backend = get_backend("numpy")
    with pytest.raises(UnsupportedKernelError):
        backend.compile("no_such_op")


def test_compile_with_fallback_degrades_per_op(fake_backend):
    fn, used = compile_with_fallback(fake_backend, "adam_rows")
    assert used is fake_backend
    fake_backend.is_available = False
    fn, used = compile_with_fallback(fake_backend, "adam_rows")
    assert used.name == "numpy"


def test_op_dispatch_keys_on_the_op_name_alone(fake_backend):
    """One resolution an op, whatever arrays the call is then handed."""
    ops = OpDispatch("fake_test_backend")
    assert ops.active is None
    zero = ops("zero_rows")
    assert ops("zero_rows") is zero and ops.active == "fake_test_backend"
    assert list(ops._compiled) == ["zero_rows"]
