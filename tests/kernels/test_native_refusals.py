"""Refusals generated from the ``native`` operand declarations.

Each exported entry point declares its operands once
(``native_backend._OPERANDS``): element type, symbolic shape, and whether
the C writes the operand, walks it row-strided, reads it as an index
vector, takes it ``restrict`` or converts it.  Every case below calls one
kernel op with good operands, then once per mutant its declaration
implies, through the op's public callable:

- every array: another element type, another rank, a strided view
  (not for converted operands: those are converted, and must give the good
  call's result);
- one the C writes: a read-only copy;
- one it takes ``restrict``: another ``restrict`` operand of the same call;
- an index vector: float rows, a negative row, a row equal to the
  dimension it indexes, rows of rank 2 — on ``native`` and on the NumPy
  reference, which raise the same exception (``IndexError``, but
  ``ValueError`` for rank 2), before anything is written.

``native`` raises ``ValueError`` for every layout it refuses and
``IndexError`` for rows that are not integers or not inside their
dimension; no operand a refused call could write has changed.  The NumPy
reference indexes any layout, so layout mutants are ``native``'s alone: a
layout ``native`` does not take is refused, never handed to the reference.
The index-vector cells also run through the callers that hand rows on
(``SparseAdam.step_rows``, ``PackedSparseAdam.step_packed``) and through
``plan_batch``, whose ``sets`` its binding concatenates: none of them
converts rows before the op's own check.  ``view_train``'s are the working
set it reads of a resident model and adds its gradients back into, its
``into_*`` the full-size gradients.  ``train_step``'s index vectors reach
the C as a plan's step (their refusals are ``test_native_train_step``'s
``BAD_STEPS``).
"""

import dataclasses
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np
import pytest
from test_compute_bins import generated_model
from test_native_rows import Side

from repro.gaussians.camera import look_at_camera
from repro.gaussians.frustum import frustum_planes
from repro.gaussians.loss import TargetMoments
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.spatial import CullingGrid
from repro.kernels import get_backend, native_backend
from repro.kernels.workspace import Workspace
from repro.optim.adam import AdamConfig
from repro.optim.packed_adam import PackedSparseAdam
from repro.optim.sparse_adam import SparseAdam

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)


class Case(NamedTuple):
    """One op called with good ``operands`` (by their declared names in
    ``entry``): ``run(op, operands)`` calls kernel op ``op`` compiled on the
    backend under test — or, when ``op`` is None, drives a caller of it and
    is handed the backend's name; ``dims`` is the extent of each dimension
    an index vector indexes."""

    entry: str
    op: Optional[str]
    operands: Dict[str, object]
    run: Callable
    dims: Dict[str, int] = {}
    #: Index vectors whose rows must be members of another set: a row
    #: outside it is ``ValueError`` ("not a member"), not ``IndexError``.
    members: tuple = ()
    #: Dimensions the call fixes, whatever the operands say.
    fixed: tuple = ()


CAMERA = look_at_camera(eye=(0, -5, 0.4), target=(0, 0, 0), zfar=30.0)


def critical_rows(n=60, seed=1):
    rng = np.random.default_rng(seed)
    target = CAMERA.center + 5.0 * CAMERA.rotation[2]
    return {
        "positions": target + rng.normal(scale=4.0, size=(n, 3)),
        "log_scales": rng.uniform(-4.0, 0.5, size=(n, 3)),
        "quats": rng.normal(size=(n, 4)),
    }


def exact_cull_case():
    arrays = critical_rows()
    operands = dict(arrays, planes=frustum_planes(CAMERA), rows=np.arange(0, 60, 2))

    def run(op, o):
        return op(o["planes"], o["positions"], o["log_scales"], o["quats"], o["rows"])

    return Case("exact_cull", "exact_cull", operands, run, {"n": 60})


def grid_cull_case():
    arrays = critical_rows()
    grid = CullingGrid(*arrays.values(), target_cells_per_axis=4, kernel_backend="native")
    tables = ("cell_lo", "cell_hi", "cell_radius", "cell_finite", "offsets", "members")
    operands = {name: getattr(grid, name) for name in tables}
    operands.update(rows=grid.block, planes=frustum_planes(CAMERA)[None])

    def run(bind, o):
        bound = _copy(grid)
        for name in tables:
            setattr(bound, name, o[name])
        bound.block = o["rows"]
        return bind(bound).cull(o["planes"])[0]

    return Case("grid_cull", "grid_cull", operands, run)


def _copy(grid):
    clone = object.__new__(type(grid))
    clone.__dict__.update(grid.__dict__)
    return clone


def grid_refit_case():
    arrays = critical_rows()
    template = CullingGrid(*arrays.values(), target_cells_per_axis=4, kernel_backend="numpy")

    def run(bind, o):
        grid = _copy(template)
        for name in ("cell_lo", "cell_hi", "cell_radius", "cell_finite", "block"):
            setattr(grid, name, getattr(template, name).copy())
        bind(grid).refit(o["rows"])
        return grid.block

    return Case("grid_refit", "grid_cull", {"rows": np.arange(0, 60, 3)}, run, {"n": 60})


def model_case(served: bool):
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    fields = native_backend._MODEL
    operands = {name: getattr(model, attr) for name, attr in fields.items()}
    operands["rows"] = np.arange(0, 30, 2)

    def run(op, o):
        bad = dataclasses.replace(model)
        for name, attr in fields.items():
            setattr(bad, attr, o[name])  # assigned after validation
        if served:
            return op(cam, bad, RasterSettings(), rows=o["rows"], workspace=Workspace())[0]
        return op(cam, bad, RasterSettings(), rows=o["rows"])[0]

    return Case("view_project", "view_forward", operands, run, {"total": 30})


def view_backward_case():
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    operands = {"d_image": np.ones((30, 40, 3)), "sh": model.sh}

    def run(op, o):
        ctx = op(cam, model, RasterSettings())[2]
        bad = dataclasses.replace(model)
        bad.sh = o["sh"]
        return ctx.backward_pass()(ctx, bad, o["d_image"])["positions"]

    # The context fixes the rows of the model it rendered.
    return Case("view_backward", "view_forward", operands, run, fixed=("n",))


def assemble_rows_case():
    from repro.gaussians.model import GaussianModel

    side = Side(GaussianModel.random(20, sh_degree=1, seed=2), "numpy")
    held = np.array([1, 4, 7, 9])
    side.ws.assemble(held, held, np.empty(0, np.int64))  # the rows ``cached`` copies

    def run(op, o):
        return op(side.ws, o["ws"], o["loads"], o["cached"], None)[0]

    operands = {
        "ws": np.array([1, 4, 7, 9, 11]), "loads": np.array([11]), "cached": np.array([1, 4, 7, 9]),
    }
    return Case("assemble_rows", "assemble_rows", operands, run, {"n": 20}, ("loads", "cached"))


def zero_rows_case():
    rng = np.random.default_rng(3)
    operands = {"buffer": rng.normal(size=(20, 10)), "rows": np.array([2, 5, 11])}

    def run(op, o):
        op(o["buffer"], o["rows"])
        return o["buffer"]

    return Case("zero_rows", "zero_rows", operands, run, {"n": 20})


def adam_rows_case():
    rng = np.random.default_rng(4)
    operands = {
        "params": rng.normal(size=(20, 12)), "grads": rng.normal(size=(20, 12)),
        "m": rng.normal(size=(20, 10)) * 1e-2, "v": rng.uniform(size=(20, 10)) * 1e-2,
        "steps": np.arange(20, dtype=np.int64), "rows": np.array([0, 3, 8, 19]),
        "lr": np.full(10, 1e-2),
    }

    def run(op, o):
        op(o["params"], o["grads"], o["m"], o["v"], o["steps"], o["rows"], o["lr"],
           0.9, 0.999, 1e-8)
        return o["params"]

    return Case("adam_rows", "adam_rows", operands, run, {"n": 20})


def untouched_on_refusal(step, state):
    """``step()``, asserting that when it raises every array of ``state``
    is as it was: the rows are refused before anything is written."""
    before = [np.copy(a) for a in state]
    try:
        return step()
    except Exception:
        assert all(np.array_equal(a, b) for a, b in zip(state, before))
        raise


def sparse_adam_case():
    """``SparseAdam.step_rows``: the rows reach ``adam_rows`` as given."""
    rng = np.random.default_rng(8)
    names = {"a": (20, 3), "b": (20, 2, 3), "c": (20,)}
    params = {name: rng.normal(size=shape) for name, shape in names.items()}
    grads = {name: rng.normal(size=shape) for name, shape in names.items()}

    def run(backend, o):
        got = {name: p.copy() for name, p in params.items()}
        opt = SparseAdam(got, AdamConfig(lr=1e-2), kernel_backend=backend)
        untouched_on_refusal(
            lambda: opt.step_rows(got, grads, o["rows"]), [*got.values(), opt.steps]
        )
        return np.concatenate([p.ravel() for p in got.values()])

    return Case("adam_rows", None, {"rows": np.array([0, 3, 8, 19])}, run, {"n": 20})


def packed_adam_case():
    """``PackedSparseAdam.step_packed``: the rows reach ``adam_rows`` as
    given."""
    rng = np.random.default_rng(9)
    params, grads = rng.normal(size=(20, 12)), rng.normal(size=(20, 12))

    def run(backend, o):
        got = params.copy()
        opt = PackedSparseAdam(
            {"x": (4,), "y": (2, 3)}, 20, AdamConfig(lr=1e-2), pad_to=12,
            kernel_backend=backend,
        )
        untouched_on_refusal(
            lambda: opt.step_packed(got, grads, o["rows"]), [got, opt.steps]
        )
        return got

    return Case("adam_rows", None, {"rows": np.array([0, 3, 8, 19])}, run, {"n": 20})


def plan_batch_case():
    """``plan_batch`` over one set, which its binding hands on as ``sets``
    (the concatenation of one set is that set).  A set must be inside the
    model: a row outside it is the malformed-set ``ValueError``."""

    def run(op, o):
        plan = op([o["sets"]], [0], None, 0, 1e-3, True, 30)
        return np.concatenate([plan.touched, *plan.adam_chunks])

    sets = {"sets": np.array([1, 4, 7, 9, 11])}
    return Case("plan_batch", "plan_batch", sets, run, {"n": 30}, ("sets",))


def loss_case():
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(24, 32, 3)), rng.uniform(size=(24, 32, 3))
    moments = TargetMoments.of(y)
    operands = {"x": x, "y": y, "uy": moments.uy, "uy2_c1": moments.uy2_c1, "vy_c2": moments.vy_c2}

    def run(op, o):
        kept = dataclasses.replace(moments, uy=o["uy"], uy2_c1=o["uy2_c1"], vy_c2=o["vy_c2"])
        return op(o["x"], o["y"], 0.2, kept)[1]

    return Case("photometric_loss", "photometric_loss", operands, run)


def view_train_case(resident: bool):
    """A training view: its target, or (``resident``) the model it reads in
    place, the working set's rows and the full-size gradients it adds into."""
    cam, model = generated_model(seed=2, num=30, size=(40, 30), scale=-2.0)
    target = np.random.default_rng(6).uniform(size=(30, 40, 3))
    moments = TargetMoments.of(target)
    settings = RasterSettings()
    fields = native_backend._MODEL
    rng = np.random.default_rng(7)
    operands = {"target": target}
    if resident:
        operands = {name: getattr(model, attr) for name, attr in fields.items()}
        operands.update(
            {f"into_{name}": rng.normal(size=arr.shape) for name, arr in operands.items()},
            rows=np.arange(0, 30, 2),
        )

    def run(op, o):
        if not resident:
            return op(cam, model, settings, o["target"], moments, 0.2, 4)[1]["positions"].copy()
        bad = dataclasses.replace(model)
        for name, attr in fields.items():
            setattr(bad, attr, o[name])  # assigned after validation
        into = {attr: o[f"into_{name}"] for name, attr in fields.items()}
        grads = op(cam, bad, settings, target, moments, 0.2, 4, rows=o["rows"], into=into)[1]
        return np.concatenate([grads["positions"].ravel(), *(a.ravel() for a in into.values())])

    return Case("view_train", "view_train", operands, run, {"n": 30})


CASES = {
    "exact_cull": exact_cull_case, "grid_cull": grid_cull_case, "grid_refit": grid_refit_case,
    "view_forward": lambda: model_case(False), "view_forward-served": lambda: model_case(True),
    "view_backward": view_backward_case, "assemble_rows": assemble_rows_case,
    "zero_rows": zero_rows_case, "adam_rows": adam_rows_case, "photometric_loss": loss_case,
    "view_train": lambda: view_train_case(False),
    "view_train-resident": lambda: view_train_case(True), "SparseAdam.step_rows": sparse_adam_case,
    "PackedSparseAdam.step_packed": packed_adam_case, "plan_batch": plan_batch_case,
}
def other_dtype(arr: np.ndarray) -> np.dtype:
    return {"f": np.float32, "i": np.int32, "b": np.uint16}[arr.dtype.kind]


def strided(arr: np.ndarray) -> np.ndarray:
    return np.repeat(arr, 2, axis=-1)[..., ::2]


def read_only(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def mutants(case: Case):
    """``(operand, label, bad value, exception, reference)`` for every
    mutant the declarations of ``case``'s operands imply; ``reference``:
    the NumPy reference raises the same."""
    declared = native_backend._binder(case.entry).operands
    shared = [
        entry for other in case.operands for entry in declared[other].shape if isinstance(entry, str)
    ]
    for name, good in case.operands.items():
        op = declared[name]
        if op.index is not None:
            n = case.dims[op.index]
            low, high = good.copy(), good.copy()
            low[0], high[-1] = -1, n
            yield name, "float rows", good + 0.5, IndexError, True
            outside = ValueError if name in case.members else IndexError
            yield name, "negative row", low, outside, True
            yield name, f"row {n}", high, outside, True
            for label, row in (("row 10**12", 10**12), ("row int64 min", np.iinfo(np.int64).min)):
                extreme = good.copy()
                extreme[-1] = row
                yield name, label, extreme, outside, True
            yield name, "rank 2", good.reshape(1, -1), ValueError, True
            continue
        # Any rank is one axis too many for a row-strided or flattened
        # trailing shape: a 0-d array is not.
        flat = op.padded or str(op.shape[-1]).startswith("*")
        yield name, "rank", np.array(good.flat[0]) if flat else good[..., None], ValueError, False
        # An extent that disagrees: a fixed one, or a dimension another
        # operand (or the call) fixes.
        lead, last = op.shape[0], op.shape[-1]
        if not isinstance(lead, str) or not lead.isidentifier() or (
            shared.count(lead) > 1 or lead in case.fixed
        ):
            yield name, "short", np.ascontiguousarray(good[:-1]), ValueError, False
        if isinstance(last, int) and not op.padded:
            yield name, "narrow", np.ascontiguousarray(good[..., :-1]), ValueError, False
        for axis, extent in enumerate(op.shape[1:-1], 1):  # a fixed inner axis
            if isinstance(extent, int):
                cut = good[(slice(None),) * axis + (slice(0, -1),)]
                yield name, f"axis {axis} short", cut, ValueError, False
        if op.cast:
            continue
        yield name, "dtype", good.astype(other_dtype(good)), ValueError, False
        yield name, "strided", strided(good), ValueError, False
        if op.write:
            yield name, "read-only", read_only(good), ValueError, False
        if op.restrict:
            for other, value in case.operands.items():
                if (
                    other != name and declared[other].restrict
                    and (value.dtype, value.shape) == (good.dtype, good.shape)
                ):
                    yield name, f"shares {other}", other, ValueError, False
                    break


def converted(case: Case):
    """Operands the binder converts: int32 and strided index vectors, a
    cast operand of another type or layout."""
    declared = native_backend._binder(case.entry).operands
    for name, good in case.operands.items():
        op = declared[name]
        if op.index is not None:
            yield name, good.astype(np.int32)
            yield name, strided(good)
        elif op.cast:
            yield name, good.tolist()
            yield name, strided(good)


def calling(case_name: str, backend: str):
    case = CASES[case_name]()
    return case, backend if case.op is None else get_backend(backend).compile(case.op)


def fresh(case: Case, **changed) -> dict:
    """The good operands, each a copy a call may write, with ``changed``."""
    operands = {k: np.copy(v) for k, v in case.operands.items()}
    operands.update(changed)
    return operands


CELLS = [
    (case, label, name)
    for case in CASES
    for name, label, *_ in mutants(CASES[case]())
]


@pytest.mark.parametrize(
    "case_name, label, name", CELLS, ids=[f"{c}-{n}-{m}" for c, m, n in CELLS]
)
def test_a_mutant_of_a_declared_operand_is_refused_before_anything_is_written(
    case_name, label, name
):
    for backend in ("native", "numpy"):
        case, op = calling(case_name, backend)
        (_, _, bad, exc, reference), = (
            m for m in mutants(case) if m[0] == name and m[1] == label
        )
        if backend == "numpy" and not reference:
            continue
        operands = fresh(case)
        operands[name] = operands[bad] if "shares" in label else bad
        before = {k: np.array(v, copy=True) for k, v in operands.items()}
        if "shares" in label:
            match = f"native {case.entry}: operands share memory"
        elif label == "short":  # the first operand with the extent sets it
            match = f"native {case.entry}: "
        elif backend == "native" and (not reference or label == "rank 2"):
            match = f"native {case.entry}: {name} is"
        elif backend == "native" and label == "float rows":
            match = f"native {case.entry}: {name} is float64 rows"
        else:
            match = None
        with pytest.raises(exc, match=match):
            case.run(op, operands)
        for key, value in operands.items():
            assert np.array_equal(value, before[key], equal_nan=True), (backend, key)


@pytest.mark.parametrize("case_name", list(CASES))
def test_what_the_binder_converts_gives_the_good_result(case_name):
    case, op = calling(case_name, "native")
    want = case.run(op, fresh(case))
    for name, value in converted(case):
        got = case.run(op, fresh(case, **{name: value}))
        assert np.array_equal(got, want), name


def test_every_exported_entry_point_has_a_case_or_a_reason():
    """The cases cover the entry points a kernel op's caller hands arrays
    to; the rest get their operands from the binding itself."""
    covered = {CASES[c]().entry for c in CASES}
    by_binding = {"grid_build", "view_composite", "train_step", "train_batch"}
    assert covered | by_binding == set(native_backend._OPERANDS)


@pytest.mark.parametrize("backend", ["native", "numpy"])
def test_a_python_int_where_an_array_is_declared_is_that_operand(backend):
    """An ``int`` given for an array operand is never taken for an address:
    a learning rate of ``0`` or ``1`` is broadcast as the float call's, and
    a row vector ``5`` is refused as a 0-d array, on both backends."""
    case, op = calling("adam_rows", backend)
    for lr in (0, 1):
        want = case.run(op, fresh(case, lr=float(lr)))
        assert np.array_equal(case.run(op, fresh(case, lr=lr)), want), lr
    for name in ("view_forward", "view_forward-served", "exact_cull", "zero_rows"):
        case, op = calling(name, backend)
        with pytest.raises(ValueError):
            case.run(op, fresh(case, rows=5))


def test_an_optimizer_state_bound_once_is_held_weakly_and_bound_again_when_replaced():
    """``adam_rows`` checks an optimizer's arrays once per set of objects:
    a replaced one is checked again, and one the caller dropped is not
    kept alive by the op."""
    import gc
    import weakref

    case, op = calling("adam_rows", "native")
    operands = fresh(case)
    case.run(op, operands)
    dropped = weakref.ref(operands["m"])
    del operands
    gc.collect()
    assert dropped() is None
    with pytest.raises(ValueError, match="native adam_rows: v is a read-only"):
        case.run(op, fresh(case, v=read_only(case.operands["v"])))

