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
def test_the_parsed_prototypes_are_the_fifteen_entry_points_python_calls():
    signatures = native_backend.prototypes(kernel_source())
    assert set(signatures) == set(native_backend._RAISES) == {
        "exact_cull", "grid_build", "grid_refit", "grid_cull",
        "view_project", "view_composite", "view_backward",
        "assemble_rows", "zero_rows", "adam_rows", "photometric_loss",
        "plan_batch", "train_step", "view_train", "train_batch",
    }
    assert signatures["zero_rows"] == [
        ("n", "int64_t", False), ("width", "int64_t", False), ("buffer", "double", True),
        ("rows", "int64_t", True), ("count", "int64_t", False),
    ]
    assert [arg for arg, *_ in signatures["photometric_loss"]][:3] == ["h", "w", "channels"]
    # Each is declared, operand for operand: what the binder passes.
    for name, parsed in signatures.items():
        assert native_backend._binder(name).signature == parsed, name


def test_a_dropped_parameter_fails_at_load(quick):
    """``zero_rows`` without ``count`` (the body keeps a local of that
    name): the declaration has five parameters, the prototype four —
    refused before anything is built, where ctypes alone would have taken
    the call."""
    source = mutant(
        "const int64_t *rows, int64_t count)\n{",
        "const int64_t *rows)\n{\n    const int64_t count = 0;",
    )
    with pytest.raises(
        RuntimeError, match="AbiError: zero_rows: .*5 parameters declared, 4 in the prototype"
    ):
        NativeLibrary(source).load()
    assert not quick.exists() or not list(quick.glob("*.so"))


def swapped(operands: tuple, first: str, second: str) -> tuple:
    at = [op.name for op in operands].index
    out = list(operands)
    out[at(first)], out[at(second)] = out[at(second)], out[at(first)]
    return tuple(out)


@pytest.mark.parametrize(
    "entry, mutate, named",
    [
        ("zero_rows", lambda ops: swapped(ops, "n", "width"), "parameter 1 is declared"),
        ("adam_rows", lambda ops: swapped(ops, "beta1", "beta2"), "parameter 13 is declared"),
        ("view_project", lambda ops: swapped(ops, "positions", "log_scales"), "parameter 4"),
        (
            "train_step", lambda ops: tuple(
                op._replace(ctype="int32_t") if op.name == "rec_f" else op for op in ops
            ),
            r"\('rec_f', 'int32_t', True\), the prototype has \('rec_f', 'double', True\)",
        ),
        (
            "photometric_loss", lambda ops: tuple(
                op._replace(ctype="double") if op.name == "size" else op for op in ops
            ),
            "'size', 'double', False",
        ),
        ("exact_cull", lambda ops: ops[:-1], "10 parameters declared, 11 in the prototype"),
    ],
    ids=["swap-scalars", "swap-doubles", "swap-arrays", "element-type", "scalar-type", "count"],
)
def test_a_declaration_that_is_not_its_prototype_fails_at_load(monkeypatch, entry, mutate, named):
    """Mutants of the Python side: two declared operands swapped, an
    element or scalar type changed, one dropped — each refused when the
    library loads, before a call could pass an operand where another is
    read."""
    operands = dict(native_backend._OPERANDS)
    operands[entry] = mutate(operands[entry])
    monkeypatch.setattr(native_backend, "_OPERANDS", operands)
    with pytest.raises(AbiError, match=f"{entry}: the declaration is not the prototype: .*{named}"):
        native_backend._binders(native_backend.prototypes(kernel_source()))
    library = NativeLibrary()
    with pytest.raises(RuntimeError, match=f"AbiError: {entry}: the declaration"):
        library.load()


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


def test_the_positional_calls_put_each_operand_in_its_declared_slot():
    """A view's two forward calls and a training view's one call are made
    over positional lists (``_checked`` only counts them): every operand a
    binding places there sits in the slot of its declared name."""
    from repro.gaussians.loss import TargetMoments
    from repro.kernels.workspace import Workspace

    real, calls = get_backend("native").library().load(), {}

    def recording(name):
        def call(*args):
            calls[name] = dict(zip(native_backend._binder(name).params, args))
            return getattr(real, name)(*args)
        return call

    lib = type("Lib", (), {
        name: staticmethod(recording(name))
        for name in ("view_project", "view_composite", "view_train")
    })
    cam, model = generated_model(seed=3, num=40, size=(40, 30), scale=-2.0)
    settings, rows = RasterSettings(), np.arange(0, 40, 3)
    native_backend._bind_view(lib, "native")(cam, model, settings, rows=rows, workspace=Workspace())
    project, composite = calls["view_project"], calls["view_composite"]
    model_arrays = dict(
        positions=model.positions, log_scales=model.log_scales, quats=model.quaternions,
        sh=model.sh, logits=model.opacity_logits,
    )
    assert {name: project[name] for name in model_arrays} == {
        name: arr.ctypes.data for name, arr in model_arrays.items()
    }
    sub = rasterizer.compute_tile(settings)
    assert (project["n"], project["total"], project["k_stored"], project["degree"]) == (
        rows.size, model.num_gaussians, model.sh.shape[1], model.sh_degree,
    )
    view = dict(width=cam.width, height=cam.height, sub=sub)
    assert {k: project[k] for k in view} == view == {k: composite[k] for k in view}
    assert project["ts"] == settings.tile_size and project["planes"] and project["rows"]
    for name in ("n", "f", "iw", "params"):
        assert composite[name] == project[name], name

    target = np.random.default_rng(0).uniform(size=(cam.height, cam.width, 3))
    into = {name: np.zeros_like(arr) for name, arr in model.parameters().items()}
    native_backend._bind_train(lib, "native")(
        cam, model, settings, target, TargetMoments.of(target), 0.2, 1, Workspace(),
        rows=rows, into=into,
    )
    step = calls["view_train"]
    assert {name: step[name] for name in model_arrays} == {
        name: arr.ctypes.data for name, arr in model_arrays.items()
    }
    assert {f"into_{name}": step[f"into_{name}"] for name in model_arrays} == {
        f"into_{name}": arr.ctypes.data
        for name, arr in zip(model_arrays, into.values())
    }
    assert (step["m"], step["n"], step["k_stored"], step["degree"]) == (
        rows.size, model.num_gaussians, model.sh.shape[1], model.sh_degree,
    )
    assert {k: step[k] for k in view} == view and step["ts"] == settings.tile_size
    assert step["target"] == target.ctypes.data and step["batch"] == 1.0
    assert step["rows"] and step["planes"] and step["params"]


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
    slots = [generated[f"OUT_{s.upper()}"] for s in native_backend._BATCH_OUT]
    assert stages == list(range(8)) and slots == list(range(18))
    # A step's report is the head of a batch's, a stamp a stage.
    assert native_backend._BATCH_OUT[: len(native_backend._STEP_OUT)] == native_backend._STEP_OUT
    assert [generated[f"OUT_{s.upper()}_NS"] for s in native_backend._STAMPS] == list(range(7, 16))
    nodes = [generated[f"NODE_{k.upper()}"] for k in native_backend._NODES]
    views = [generated[f"VIEW_{v.upper()}"] for v in native_backend._VIEW_ROW]
    assert nodes == [0, 1, 2] and views == list(range(10)) and generated["VIEW_SLOTS"] == 10
    assert generated["PLAN_VECTORS"] == len(native_backend._PLAN_VECTORS) == 5


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
