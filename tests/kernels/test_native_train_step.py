"""``train_step``: a CLM microbatch as one native op, against the composition.

On ``native`` every CLM engine runs each microbatch as the ``train_step``
op — ``assemble_rows``, the training view, ``add_grads_rows`` and
``retire_rows`` in one C call over the engine's
:class:`~repro.kernels.Workspace` — and everywhere else the reference
composition :func:`repro.core.stores.train_step`, which dispatches the
load and the view's calls one by one and adds and retires in NumPy, in the
C's order.  So the two are bit-identical: 40 batches of the
benchmark's two recipes (smoke size) through ``clm``, ``clm_overlap``,
``clm_graph`` and ``clm_sharded``, pooled and not, across a checkpoint
restore, a densify/prune rebuild and (sharded) a removed device, give the
same losses, parameters, Adam state, transfer counts, pool peak and
densify-hook gradients.  The NumPy backend, a renderer of the engine's own
and renders pinned to another backend take the composition, and each
mutant of the binding below fails the comparison or raises.
"""

import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.core.stores import train_step
from repro.engines.clm import CLMEngine
from repro.gaussians.densify import DensificationState
from repro.gaussians.loss import TargetMoments
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render
from repro.kernels import Workspace, get_backend, native_backend
from repro.kernels.native_backend import NativeKernelBackend, NativeLibrary

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
from bench_e2e.workloads import (  # noqa: E402  (the ruler's recipes, read only)
    batch_schedule,
    build_train_inputs,
    get_workload,
)

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

#: variant -> (registered engine, ``EngineConfig`` overrides), as the ruler
#: names them.
VARIANTS = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
}
BATCHES = 40
#: Batches after which the drive checkpoints, restores that checkpoint,
#: densifies and prunes, and (sharded) removes a device.
CHECKPOINT, RESTORE, DENSIFY, REMOVE = 8, 14, 22, 30


@pytest.fixture(scope="module")
def recipes():
    """``{recipe: (spec, inputs)}`` at smoke size, built once."""
    out = {}
    for name in ("dense", "sparse"):
        spec = get_workload(name, smoke=True).train
        out[name] = (spec, build_train_inputs(spec, 0))
    return out


def compose(monkeypatch) -> None:
    """``native`` without ``train_step``: the engines compose the step
    (with the fused training view)."""
    supports = NativeKernelBackend.supports
    monkeypatch.setattr(
        NativeKernelBackend, "supports",
        lambda self, op: op != "train_step" and supports(self, op),
    )


def densify(sess) -> None:
    """Prune every ninth row and clone every fifth, moved: a rebuild that
    replaces the stores and grows the model."""
    engine = sess.engine
    model = engine.snapshot_model()
    n = model.num_gaussians
    keep = np.flatnonzero(np.arange(n) % 9 != 4)
    clones = model.gather(np.arange(0, n, 5))
    clones.positions += 1e-3
    engine.rebuild(
        model.gather(keep).extend(clones),
        np.concatenate([keep, -np.ones(clones.num_gaussians, dtype=int)]),
    )
    sess._trainer.densify_state = DensificationState(engine.num_gaussians)


def drive(recipes, recipe, variant, tmp_path, pool=True, **config):
    """``BATCHES`` batches of ``recipe``'s schedule through ``variant``.
    Returns what must agree (losses and transfer counts per batch, the hook's
    rows and gradients, parameters, Adam state, pool peak) and the engine."""
    spec, inputs = recipes[recipe]
    engine_name, overrides = VARIANTS[variant]
    cfg = EngineConfig(
        batch_size=spec.batch_size, kernel_backend="native", **{**overrides, **config}
    )
    if pool:
        cfg.gpu_capacity_bytes = 1e12
    sess = repro.session(
        inputs.scene, engine=engine_name, config=cfg,
        initial_model=None if inputs.initial_model is None else inputs.initial_model.clone(),
    )
    seen, record = [], sess._trainer._record_grads

    def hook(view_id, rows, position_grads):
        seen.append((view_id, rows.copy(), position_grads.copy()))
        record(view_id, rows, position_grads)

    sess._trainer._record_grads = hook
    path = str(tmp_path / f"{recipe}-{variant}.npz")
    batches = []
    try:
        for k, view_ids in enumerate(batch_schedule(spec, 0, BATCHES)):
            if k == CHECKPOINT:
                sess.checkpoint(path)
            if k == RESTORE:
                sess.restore(path)
            if k == DENSIFY:
                densify(sess)
            if k == REMOVE and variant == "clm_sharded":
                sess.engine.remove_device(1)
            result = sess.train_batch(view_ids)
            batches.append((
                result.loss.hex(),
                sorted((v, x.hex()) for v, x in result.per_view_loss.items()),
                result.loaded_gaussians, result.stored_gaussians,
                result.cached_gaussians, float(result.loaded_bytes).hex(),
                float(result.stored_bytes).hex(),
            ))
    finally:
        sess.engine.close()
    engine = sess.engine
    state = [engine.snapshot_model().parameters()[name] for name in sorted(
        engine.snapshot_model().parameters()
    )]
    for opt in (engine.adam_critical, engine.adam_noncritical):
        state += [opt.packed_m, opt.packed_v, opt.steps]
    peak = float(engine.pool.peak).hex() if pool else None
    return batches, seen, state, peak, engine


def assert_same(got, want) -> None:
    batches, seen, state, peak, _ = got
    want_batches, want_seen, want_state, want_peak, _ = want
    assert batches == want_batches
    assert peak == want_peak
    assert len(seen) == len(want_seen) > 0
    for (view, rows, grads), (want_view, want_rows, want_grads) in zip(seen, want_seen):
        assert view == want_view
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(grads, want_grads)
    assert len(state) == len(want_state)
    assert all(np.array_equal(a, b) for a, b in zip(state, want_state))


# ---------------------------------------------------------------------------
# The engines, stepped and composed
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def stepped(recipes, tmp_path_factory):
    """The ``train_step`` runs, once each (the mutants compare to them)."""
    runs = {}

    def get(recipe, variant, pool):
        key = (recipe, variant, pool)
        if key not in runs:
            runs[key] = drive(recipes, recipe, variant, tmp_path_factory.mktemp("run"), pool)
        return runs[key]

    return get


@pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("recipe", ["dense", "sparse"])
def test_the_step_trains_to_the_compositions_bits(
    recipes, stepped, recipe, variant, pool, tmp_path, monkeypatch
):
    got = stepped(recipe, variant, pool)
    ws = got[4]._workspace
    # Every microbatch was one train_step call, and the rebuild rebound.
    assert ws.steps == sum(len(v) for v in batch_schedule(recipes[recipe][0], 0, BATCHES))
    assert ws.bindings >= 2 and not ws.leased
    compose(monkeypatch)
    want = drive(recipes, recipe, variant, tmp_path, pool)
    assert want[4]._workspace.steps == 0
    assert want[4]._rendered_on == "native"  # the composed views ran view_train
    assert_same(got, want)


def test_a_restore_writes_in_place_and_keeps_the_binding(recipes, tmp_path):
    spec, inputs = recipes["sparse"]
    sess = repro.session(
        inputs.scene, engine="clm",
        config=EngineConfig(batch_size=spec.batch_size, kernel_backend="native"),
        initial_model=starting_model(inputs),
    )
    schedule = batch_schedule(spec, 0, 6)
    for view_ids in schedule[:3]:
        sess.train_batch(view_ids)
    path = str(tmp_path / "ckpt.npz")
    sess.checkpoint(path)
    ws, engine = sess.engine._workspace, sess.engine
    bound = ws._bindings["stores"][1]
    cpu, gpu = engine.cpu_store, engine.gpu_store
    addresses = [a.ctypes.data for a in (cpu.params, cpu.grads, gpu.packed_params, gpu.packed_grads)]
    names = ("pinned", "pinned_grads", "critical", "critical_grads")
    assert [bound.values[name] for name in names] == addresses
    for view_ids in schedule[3:]:
        sess.train_batch(view_ids)
    bindings = ws.bindings
    sess.restore(path)
    sess.train_batch(schedule[3])
    assert ws.bindings == bindings  # nothing was bound again
    assert ws._bindings["stores"][1] is bound
    assert [a.ctypes.data for a in (cpu.params, cpu.grads, gpu.packed_params, gpu.packed_grads)] == addresses
    sess.engine.close()


# ---------------------------------------------------------------------------
# Where the engine composes the step
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("case", ["numpy", "renderer", "renders pinned"])
def test_the_fallbacks_take_the_composition(recipes, case, monkeypatch):
    spec, inputs = recipes["sparse"]
    config = {
        "numpy": dict(kernel_backend="numpy"),
        "renderer": dict(),
        "renders pinned": dict(raster=RasterSettings(kernel_backend="numpy")),
    }[case]
    engine = repro.create_engine(
        "clm", starting_model(inputs), inputs.scene.cameras,
        EngineConfig(batch_size=spec.batch_size, **{"kernel_backend": "native", **config}),
    )
    if case == "renderer":
        engine._render = lambda *args: render(*args)
    lib = get_backend("native").library().load()
    calls = []
    fused = lib.train_step
    monkeypatch.setattr(lib, "train_step", lambda *a: calls.append(1) or fused(*a))
    composed = []
    monkeypatch.setattr(
        "repro.engines.clm.train_step",
        lambda *a, **k: composed.append(1) or train_step(*a, **k),
    )
    for view_ids in batch_schedule(spec, 0, 2):
        assert np.isfinite(engine.train_batch(view_ids, targets_of(inputs)).loss)
    engine.close()
    assert calls == [] and engine._workspace.steps == 0
    assert len(composed) == 2 * spec.batch_size


# ---------------------------------------------------------------------------
# The op
# ---------------------------------------------------------------------------
def working_sets(recipes, recipe="dense", **config):
    """A CLM engine, a plan of its whose steps carry gradients, the
    targets."""
    spec, inputs = recipes[recipe]
    engine = repro.create_engine(
        "clm", starting_model(inputs), inputs.scene.cameras,
        EngineConfig(batch_size=spec.batch_size, kernel_backend="native", **config),
    )
    view_ids = batch_schedule(spec, 0, 1)[0]
    return engine, engine.plan_batch(view_ids), targets_of(inputs)


def starting_model(inputs):
    if inputs.initial_model is not None:
        return inputs.initial_model.clone()
    scene = inputs.scene
    return GaussianModel.from_point_cloud(
        scene.init_points, colors=scene.init_colors, sh_degree=1, seed=0
    )


def targets_of(inputs):
    return dict(zip((c.view_id for c in inputs.scene.cameras), inputs.scene.images))


def step_op():
    return get_backend("native").compile("train_step")


def run_steps(engine, plan, targets, op, ws=None):
    """Every step of ``plan`` through ``op`` on a fresh working set:
    ``(losses, gradients, the critical and pinned gradient stores)``."""
    engine.cpu_store.zero_grads(plan.touched)
    engine.gpu_store.zero_grads(plan.touched)
    working = engine._new_working_set()
    ws = Workspace() if ws is None else ws
    carried, out = None, []
    for step in plan.steps:
        target = targets[step.view_id]
        loss, grads, carried = op(
            working, step, carried, engine.cameras[step.view_id],
            engine.raster_settings, target, TargetMoments.of(target), 0.2,
            plan.batch_size, ws,
        )
        out.append((loss, {k: v.copy() for k, v in grads.items()}))
        ws.release()
    return out, engine.gpu_store.packed_grads.copy(), engine.cpu_store.grads.copy()


def test_the_op_is_its_reference_step_by_step(recipes):
    engine, plan, targets = working_sets(recipes)
    assert any(step.carried.size for step in plan.steps)
    got = run_steps(engine, plan, targets, step_op())
    want = run_steps(engine, plan, targets, train_step)
    assert [loss for loss, _ in got[0]] == [loss for loss, _ in want[0]]
    for (_, grads), (_, want_grads) in zip(got[0], want[0]):
        assert all(np.array_equal(grads[k], want_grads[k]) for k in want_grads)
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    engine.close()


def test_a_short_arena_is_grown_and_the_step_run_again(recipes):
    """A fresh workspace holds nothing: the first call reports its render's
    sizes before writing a store, the binding grows the arenas and calls
    again — and the gradients are added once."""
    engine, plan, targets = working_sets(recipes)
    lib = get_backend("native").library().load()
    statuses = []
    raw = lib.train_step

    def watched(*args):
        try:
            return raw(*args)
        except native_backend._ArenaShort:
            statuses.append("short")
            raise

    op = native_backend._bind_step(
        type("Lib", (), {"train_step": staticmethod(watched)}), "native"
    )
    got = run_steps(engine, plan, targets, op)
    want = run_steps(engine, plan, targets, train_step)
    assert statuses and statuses[0] == "short"
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    engine.close()


@pytest.mark.parametrize("records", [False, True], ids=["no-records", "records"])
def test_stale_capacities_in_the_caps_arena_are_overwritten(recipes, records):
    """An arena is not cleared when it is allocated: a ``caps`` arena that
    held negative numbers must not read as a shortfall of the record blocks
    a step without records never asks for (it would be re-run forever)."""
    engine, plan, targets = working_sets(recipes)
    settings = replace(engine.raster_settings, cache_blend_state=records)
    ws = Workspace()
    ws.arena("step caps", len(native_backend._BLOCKS), np.int64)[0][:] = -1
    lib = get_backend("native").library().load()
    calls = []

    def bounded(*args):
        calls.append(1)
        if len(calls) > 2 * len(plan.steps):
            raise AssertionError("train_step re-run without end")
        return lib.train_step(*args)

    op = native_backend._bind_step(
        type("Lib", (), {"train_step": staticmethod(bounded)}), "native"
    )
    working = engine._new_working_set()
    carried = None
    for step in plan.steps:
        target = targets[step.view_id]
        _, _, carried = op(
            working, step, carried, engine.cameras[step.view_id], settings,
            target, TargetMoments.of(target), 0.2, plan.batch_size, ws,
        )
        ws.release()
    assert len(calls) <= len(plan.steps) + 1
    engine.close()


def test_a_replaced_camera_or_target_overwrites_its_binding(recipes):
    """Bindings are keyed by view: a fresh target or camera for the same
    view rebinds in place instead of pinning the old one."""
    engine, plan, targets = working_sets(recipes)
    step, op, ws = plan.steps[0], step_op(), Workspace()

    def run(camera, target):
        op(
            engine._new_working_set(), step, None, camera, engine.raster_settings,
            target, TargetMoments.of(target), 0.2, plan.batch_size, ws,
        )
        ws.release()

    camera, target = engine.cameras[step.view_id], targets[step.view_id]
    run(camera, target)
    held, made = len(ws._bindings), ws.bindings
    for turn in range(1, 4):
        run(camera, target.copy())
        assert (len(ws._bindings), ws.bindings) == (held, made + turn)
    run(replace(camera), target)
    assert (len(ws._bindings), ws.bindings) == (held, made + 5)
    engine.close()


#: A step made bad one way, and what its failing stage raises.  The
#: working set's rows are checked by ``assemble_rows``, before the ``static``
#: ``add_grads_rows`` accumulates over the same rows.
BAD_STEPS = {
    "store-outside": (
        lambda step, n, absent: replace(step, stores=np.array([n + 5])),
        IndexError, "retire_rows: a row outside the store",
    ),
    "store-not-a-member": (
        lambda step, n, absent: replace(step, stores=absent),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "stores-out-of-order": (
        lambda step, n, absent: replace(step, stores=step.working_set[1::-1]),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "carried-not-a-member": (
        lambda step, n, absent: replace(step, carried=absent),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "working-set-outside": (
        lambda step, n, absent: replace(
            step, working_set=np.append(step.working_set, n + 5)
        ),
        IndexError, "assemble_rows: a row outside the store",
    ),
}


@pytest.mark.parametrize("bad", list(BAD_STEPS))
def test_a_failing_call_raises_what_its_stage_raises_and_ends_the_lease(recipes, bad):
    engine, plan, targets = working_sets(recipes)
    step = plan.steps[0]
    make, exc, message = BAD_STEPS[bad]
    absent = np.setdiff1d(np.arange(engine.num_gaussians), step.working_set)[:1]
    assert absent.size and step.working_set.size > 1
    bad = make(step, engine.num_gaussians, absent)
    ws = Workspace()
    target = targets[step.view_id]
    pinned = engine.cpu_store.grads.copy()
    with pytest.raises(exc, match="native train_step: " + message):
        step_op()(
            engine._new_working_set(), bad, None, engine.cameras[step.view_id],
            engine.raster_settings, target, TargetMoments.of(target), 0.2, 4, ws,
        )
    assert not ws.leased
    # Every row is checked before the pinned store is written.
    assert np.array_equal(engine.cpu_store.grads, pinned)
    engine.close()


def test_an_arena_keeps_its_dtype():
    ws = Workspace()
    arena, at = ws.arena("rows", 10, np.int64)
    assert arena.dtype == np.int64 and ws.arena("rows", 4, np.int64)[1] == at
    assert ws.arena("rows", 4, np.dtype("int64"))[1] == at
    for dtype in (np.float64, np.int32, np.uint8):
        with pytest.raises(TypeError, match="'rows' holds int64, not"):
            ws.arena("rows", 4, dtype)
    assert ws.allocations == 1


# ---------------------------------------------------------------------------
# Mutants: each must fail the comparison above, or raise
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["clm", "clm_sharded"])
def test_a_stale_binding_after_a_rebuild_is_caught(
    recipes, stepped, variant, tmp_path, monkeypatch
):
    """The stores' binding kept across a rebuild (which, sharded, re-shards
    too): the step writes the replaced stores."""
    want = stepped("sparse", variant, True)
    binding = Workspace.binding

    def stale(self, key, owners, bind, *args):
        if key == "stores" and key in self._bindings:
            return self._bindings[key][1]
        return binding(self, key, owners, bind, *args)

    monkeypatch.setattr(Workspace, "binding", stale)
    try:
        mutant = drive(recipes, "sparse", variant, tmp_path, True)
    except (IndexError, ValueError):
        return  # a row of the grown model outside the stale stores
    with pytest.raises(AssertionError):
        assert_same(mutant, want)


def test_a_restore_that_rebinds_to_a_copy_is_caught(recipes, stepped, tmp_path, monkeypatch):
    """The restore binds the stores again, to copies of their buffers: the
    steps after it write the copies."""
    want = stepped("sparse", "clm", True)
    load, copies = CLMEngine.load_parameters, []

    def load_parameters(self, params):
        load(self, params)
        cpu, gpu = self.cpu_store, self.gpu_store
        copies.append(SimpleNamespace(
            num_rows=cpu.num_rows, row_floats=cpu.row_floats, sh_basis=cpu.sh_basis,
            params=cpu.params.copy(), grads=cpu.grads.copy(),
            packed_params=gpu.packed_params.copy(), packed_grads=gpu.packed_grads.copy(),
        ))
        bound = native_backend._bind_stores(copies[-1], copies[-1])
        self._workspace._bindings["stores"] = ((cpu, gpu), bound)

    monkeypatch.setattr(CLMEngine, "load_parameters", load_parameters)
    with pytest.raises(AssertionError):
        assert_same(drive(recipes, "sparse", "clm", tmp_path, True), want)


class Roomy(Workspace):
    """Arenas of the size asked for, each the head of a far larger buffer:
    a call that writes past an arena's end stays in memory this test
    owns."""

    def arena(self, name, size, dtype=np.float64):
        held = self._arenas.get(name)
        if held is None or held[0].size < size:
            arena = np.zeros(max(16 * size, 1 << 20), dtype)[: size + 1]
            held = self._arenas[name] = (arena, arena.ctypes.data, dtype)
            self.allocations += 1
        return held[:2]


def test_a_capacity_check_after_the_first_store_write_is_caught(recipes, monkeypatch, tmp_path):
    """Built from a source whose shortfall is reported after add_grads_rows:
    the call that is run again adds the gradients twice."""
    monkeypatch.setattr(
        native_backend, "CFLAGS",
        tuple("-O0" if f == "-O3" else f for f in native_backend.CFLAGS),
    )
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = native_backend.resources.files("repro.kernels").joinpath(
        native_backend.SOURCE
    ).read_text("utf-8")
    check = "    if (short_of)\n        return STATUS_ARENA_SHORT;\n"
    write = "        g_log_scales, g_quats, critical_grads);\n"
    assert source.count(check) == 1 and source.count(write) == 1
    source = source.replace(check, "").replace(write, write + check)
    lib = NativeLibrary(source).load()
    engine, plan, targets = working_sets(recipes)
    got = run_steps(engine, plan, targets, native_backend._bind_step(lib, "native"), Roomy())
    want = run_steps(engine, plan, targets, train_step)
    assert not np.array_equal(got[1], want[1])
    # The real check, on the same roomy arenas, adds them once.
    got = run_steps(engine, plan, targets, step_op(), Roomy())
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    engine.close()


def test_the_hook_run_before_the_call_is_caught(recipes, stepped, tmp_path, monkeypatch):
    """The densify hook handed the gradients the arena held before the
    step: the last step's."""
    want = stepped("sparse", "clm", True)
    run_step = CLMEngine._run_step

    def hook_first(self, run, step):
        hook, run.position_grad_hook = run.position_grad_hook, None
        m = step.working_set.size
        left = self._workspace.arena("grads", 3 * m)[0][: 3 * m].reshape(m, 3)
        hook(step.view_id, step.working_set, left)
        run_step(self, run, step)
        run.position_grad_hook = hook

    monkeypatch.setattr(CLMEngine, "_run_step", hook_first)
    with pytest.raises(AssertionError):
        assert_same(drive(recipes, "sparse", "clm", tmp_path, True), want)


def test_a_carry_arena_shared_with_the_block_it_is_read_into_is_caught(
    recipes, tmp_path, monkeypatch
):
    """Each step's carry written into the arena the next step assembles
    its block in."""
    monkeypatch.setattr(
        native_backend, "_STEP_ARENAS", (("block 0", "block 1"), ("block 1", "block 0"))
    )
    with pytest.raises(ValueError, match="native train_step: operands share memory"):
        drive(recipes, "dense", "clm", tmp_path, True)
