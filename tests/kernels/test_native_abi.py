"""The ``native`` kernel ABI, declared once: mutants of either side fail by name.

Python owns the block layout (``_FIELDS``), the ``params`` vector
(``_PARAMS``), the status codes (``_STATUS``) and the constants the C shares
with the NumPy reference; ``native_backend.header()`` generates their C,
which is prepended to ``native_kernels.c`` before the text is hashed, parsed
and compiled.  The C owns the entry points' parameter lists: argtypes are
read from its prototypes.  Each case builds a temporary copy of the source
(at ``-O0``, into a private cache) with one side changed and checks that the
mismatch is an :class:`~repro.kernels.native_backend.AbiError`, a rebuild or
a raised status — never a library loaded stale or a call that reads past its
arguments.
"""

import ctypes
import re
from importlib import resources

import numpy as np
import pytest
from test_compute_bins import generated_model

from repro.gaussians import rasterizer, sh
from repro.gaussians.rasterizer import RasterSettings
from repro.kernels import get_backend, native_backend
from repro.kernels.native_backend import AbiError, NativeLibrary, kernel_source

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

SOURCE = (
    resources.files("repro.kernels").joinpath(native_backend.SOURCE).read_text("utf-8")
)


@pytest.fixture()
def quick(monkeypatch, tmp_path):
    """Builds at ``-O0`` into a cache of the test's own."""
    flags = tuple("-O0" if f == "-O3" else f for f in native_backend.CFLAGS)
    monkeypatch.setattr(native_backend, "CFLAGS", flags)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro-kernels"


def mutant(old: str, new: str) -> str:
    assert SOURCE.count(old) == 1, old
    return SOURCE.replace(old, new)


def enums(text: str) -> dict:
    return {name: int(value) for name, value in re.findall(r"\b(\w+) = (-?\d+)\b", text)}


# ---------------------------------------------------------------------------
# The C side
# ---------------------------------------------------------------------------
def test_the_parsed_prototypes_are_the_thirteen_entry_points_python_calls():
    signatures = native_backend.prototypes(kernel_source())
    assert set(signatures) == set(native_backend._RAISES) == {
        "exact_cull", "grid_build", "grid_refit", "grid_cull",
        "view_project", "view_composite", "view_backward",
        "assemble_rows", "zero_rows", "adam_rows", "photometric_loss",
        "plan_batch", "train_step",
    }
    assert [ctype for _, ctype in signatures["zero_rows"]] == [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64,
    ]
    assert [arg for arg, _ in signatures["photometric_loss"]][:3] == ["h", "w", "channels"]


def test_a_dropped_parameter_fails_at_its_first_call(quick):
    """``zero_rows`` without ``count`` (the body keeps a local of that
    name): the binding passes five arguments to a four-parameter prototype,
    which ctypes alone would accept."""
    lib = NativeLibrary(mutant(
        "const int64_t *rows, int64_t count)\n{",
        "const int64_t *rows)\n{\n    const int64_t count = 0;",
    )).load()
    zero_rows = native_backend._bind_rows(lib, "zero_rows")
    buffer = np.ones((4, 3))
    with pytest.raises(AbiError, match="zero_rows takes 4 arguments, got 5"):
        zero_rows(buffer, np.array([1, 2]))
    assert (buffer == 1.0).all()  # nothing was called


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("const double *t, int64_t size", "const float *t, int64_t size", "const float \\*t"),
        ("const double *t, int64_t size", "const double *t, int32_t size", "int32_t size"),
    ],
)
def test_a_parameter_of_an_undeclared_type_fails_at_load(quick, old, new, named):
    source = mutant(old, new)
    with pytest.raises(AbiError, match=f"photometric_loss: parameter `{named}`"):
        native_backend.prototypes(kernel_source(source))
    library = NativeLibrary(source)
    with pytest.raises(RuntimeError, match=f"AbiError: photometric_loss: parameter `{named}`"):
        library.load()
    assert not quick.exists() or not list(quick.glob("*.so"))  # refused before building


def test_a_missing_entry_point_fails_at_load():
    source = SOURCE.replace("int zero_rows(", "static int zero_rows(")
    with pytest.raises(AbiError, match="no prototype for zero_rows"):
        native_backend.prototypes(kernel_source(source))


def test_a_nonzero_status_from_view_project_raises(quick):
    """``view_project``'s one failure of its own is a working-set row outside
    the model (``IndexError``); every status it returns is checked, so a
    mutant that returns another fails the render."""
    lib = NativeLibrary(mutant(
        "    work.head[4] = area;\n    return STATUS_OK;",
        "    work.head[4] = area;\n    return STATUS_NO_MEMORY;",
    )).load()
    cam, model = generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)
    forward = native_backend._bind_view(lib, "native")
    with pytest.raises(RuntimeError, match="native view_project returned status NO_MEMORY"):
        forward(cam, model, RasterSettings())


def test_the_source_declares_none_of_the_shared_abi():
    """No hand-written offsets, slots, codes or shared constants in the C,
    and no status returned as a number."""
    assert not re.search(r"\b[FPW]_[A-Z_0-9]+\s*=", SOURCE)
    assert not re.search(r"#define\s+(FOOTPRINT_MARGIN|SH_C\d)", SOURCE)
    assert not re.search(r"SH_C\d\s*\[\d*\]\s*=", SOURCE)
    for name, body in re.findall(r"^int (\w+)\(.*?\n\{(.*?)\n\}", SOURCE, re.M | re.S):
        assert not re.search(r"return \d", body), name


# ---------------------------------------------------------------------------
# The Python side
# ---------------------------------------------------------------------------
def test_the_generated_offsets_are_the_cumulative_field_widths():
    generated = enums(native_backend.header())
    at = 0
    for name, shape in native_backend._FIELDS + native_backend._SCRATCH_FIELDS:
        width = int(np.prod(shape))
        assert generated[f"F_{name.upper()}"] == at
        assert generated[f"W_{name.upper()}"] == width
        at += width
        if name == native_backend._FIELDS[-1][0]:
            assert generated["F_RETAINED"] == at == native_backend._RETAINED == 52
    assert generated["F_SCRATCH"] == at == native_backend._SCRATCH == 57
    assert [generated[f"STATUS_{s}"] for s in native_backend._STATUS] == [0, 1, 2, 3, 4, 5]
    stages = [generated[f"STAGE_{s.upper()}"] for s in native_backend._STEP_STAGES]
    slots = [generated[f"OUT_{s.upper()}"] for s in native_backend._STEP_OUT]
    assert stages == list(range(6)) and slots == list(range(9))


def test_the_params_vector_fills_the_generated_slots():
    generated = enums(native_backend.header())
    cam, _ = generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)
    settings = RasterSettings(background=(0.25, 0.5, 0.75))
    params = native_backend._view_params(cam, settings)
    assert params.size == 23
    assert np.array_equal(params[:9], cam.rotation.ravel())
    assert np.array_equal(params[generated["P_CENTER"] :][:3], cam.center)
    assert params[generated["P_FX"]] == cam.fx and params[generated["P_ZNEAR"]] == cam.znear
    assert params[generated["P_ALPHA_THRESHOLD"]] == settings.alpha_threshold
    assert params[generated["P_MAX_ALPHA"]] == settings.max_alpha
    assert list(params[generated["P_BACKGROUND"] :]) == [0.25, 0.5, 0.75]


def test_the_shared_constants_are_the_references():
    text = native_backend.header()
    assert f"#define FOOTPRINT_MARGIN {rasterizer._FOOTPRINT_MARGIN!r}\n" in text
    assert float(re.search(r"FOOTPRINT_MARGIN (\S+)", text)[1]) == rasterizer._FOOTPRINT_MARGIN
    for name, values in (("C0", (sh._C0,)), ("C1", (sh._C1,)), ("C2", sh._C2), ("C3", sh._C3)):
        written = re.search(rf"SH_{name}(?:\[\] = \{{| )([^}}\n]*)", text)[1]
        assert tuple(float(v) for v in written.split(",")) == tuple(values), name


@pytest.mark.parametrize(
    "target, name, value",
    [
        (native_backend, "_FIELDS", (("means2d", (3,)),) + native_backend._FIELDS[1:]),
        (native_backend, "_PARAMS", native_backend._PARAMS[1:] + native_backend._PARAMS[:1]),
        (rasterizer, "_FOOTPRINT_MARGIN", 2e-6),
    ],
    ids=["field width", "params slot", "footprint margin"],
)
def test_a_changed_declaration_rebuilds(quick, monkeypatch, target, name, value):
    """The header is part of the hashed text: a changed declaration is a
    new cache key, so the library is built again, not loaded stale."""
    first = NativeLibrary()
    first.load()
    before = kernel_source()
    monkeypatch.setattr(target, name, value)
    assert kernel_source() != before
    second = NativeLibrary()
    second.load()
    assert second.path != first.path
    assert second.path.name.split("-")[1] != first.path.name.split("-")[1]  # the key
    assert sorted(quick.glob("*.so")) == sorted([first.path, second.path])
