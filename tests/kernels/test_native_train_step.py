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

import gc
import os
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.core.trainer import TrainerConfig
from repro.core.stores import train_step
from repro.engines.clm import CLMEngine
from repro.gaussians.densify import DensificationState
from repro.gaussians.loss import TargetMoments
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.render import render
from repro.kernels import Workspace, get_backend, native_backend, registry
from repro.kernels.native_backend import NativeLibrary
from repro.planning.caching import MicrobatchStep

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
from bench_e2e.workloads import (  # noqa: E402  (the ruler's recipes, read only)
    batch_schedule,
    build_train_inputs,
    get_workload,
)

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)


def replace_step(step, **changes) -> MicrobatchStep:
    """``step`` with ``changes`` to its fields (a step is a slots class)."""
    fields = {name: getattr(step, name) for name in MicrobatchStep.__slots__}
    return MicrobatchStep(**{**fields, **changes})

#: variant -> (registered engine, ``EngineConfig`` overrides), as the ruler
#: names them.
VARIANTS = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
}
BATCHES = 40
#: The densification cadence the drives' sessions are built with: any
#: positive one turns the densify hook on, and ``train_batch`` never
#: densifies by itself.
HOOK_EVERY = 1000
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
    """``train_step`` handed to the reference: the engines compose the step
    (with the fused training view)."""
    handed = registry.compile_with_fallback

    def without_step(backend, op):
        return handed(get_backend("numpy") if op == "train_step" else backend, op)

    monkeypatch.setattr(registry, "compile_with_fallback", without_step)


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
    # Densifying (though ``train_batch`` never densifies itself), so the
    # session hands every batch the densify hook, which records here.
    sess = repro.session(
        inputs.scene, engine=engine_name, config=cfg,
        trainer_config=TrainerConfig(densify_every=HOOK_EVERY),
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
            hooked = len(seen)
            result = sess.train_batch(view_ids)
            # The hook saw every view of the batch, once.
            assert sorted(view for view, *_ in seen[hooked:]) == sorted(view_ids)
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
    bound = ws._bindings["batch"][1]
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
    assert ws._bindings["batch"][1] is bound
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


def test_a_step_after_the_composition_binds_the_buffers_it_left(recipes):
    """The first step composed, the rest through the op: the op reads the
    cached rows and carried gradients the composition left (bound as
    declared, not where a step of its own wrote them), to the
    composition's bits."""
    engine, plan, targets = working_sets(recipes)
    first, op = plan.steps[0], step_op()
    assert plan.steps[1].cached.size and first.carried.size

    def mixed(working, step, *args):
        return (train_step if step is first else op)(working, step, *args)

    got = run_steps(engine, plan, targets, mixed)
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
    view rebinds in place (one binding holds both) instead of pinning the
    old one."""
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
    assert (len(ws._bindings), ws.bindings) == (held, made + 4)
    engine.close()


#: A step made bad one way, and what its failing stage raises.  The
#: working set's rows are checked by ``assemble_rows``, before the ``static``
#: ``add_grads_rows`` accumulates over the same rows.
BAD_STEPS = {
    "store-outside": (
        lambda step, n, absent: replace_step(step, stores=np.array([n + 5])),
        IndexError, "retire_rows: a row outside the store",
    ),
    "store-not-a-member": (
        lambda step, n, absent: replace_step(step, stores=absent),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "stores-out-of-order": (
        lambda step, n, absent: replace_step(step, stores=step.working_set[1::-1]),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "carried-not-a-member": (
        lambda step, n, absent: replace_step(step, carried=absent),
        ValueError, "retire_rows: a row that is not a member",
    ),
    "working-set-outside": (
        lambda step, n, absent: replace_step(
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
    # The shortfall left in ``out`` by the view, reported by the step once
    # it has added the gradients.
    source = source.replace(check, "    out[OUT_STAGE] = short_of;\n").replace(
        write, write + "    if (out[OUT_STAGE])\n        return STATUS_ARENA_SHORT;\n"
    )
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


# ---------------------------------------------------------------------------
# The prepared call: what a warmed step pays for, and when it re-prepares
# ---------------------------------------------------------------------------
#: The operands a warmed ``train_step`` binds: the step's rows.
ROWS = ("cached", "carried", "loads", "stores", "ws")


def count_preparation(monkeypatch, ws):
    """Counters the preparation of a step writes into: the operands of each
    ``_Binder.bind`` call of the two step entry points, the
    ``Workspace.arena`` calls on ``ws`` and the keys of the bindings
    ``Workspace.binding`` makes on it (a kept one returned is none)."""
    seen = {"bind": [], "arena": [], "binding": []}
    bind, arena, binding = native_backend._Binder.bind, Workspace.arena, Workspace.binding

    def counted_bind(self, args, given, dims=None):
        if self.name in ("train_step", "view_train"):
            seen["bind"].append(tuple(sorted(given)))
        return bind(self, args, given, dims)

    def counted_arena(self, name, *args, **kwargs):
        if self is ws:
            seen["arena"].append(name)
        return arena(self, name, *args, **kwargs)

    def counted_binding(self, key, owners, bind, *args):
        def made(*args):
            if self is ws:
                seen["binding"].append(key)
            return bind(*args)

        return binding(self, key, owners, made, *args)

    monkeypatch.setattr(native_backend._Binder, "bind", counted_bind)
    monkeypatch.setattr(Workspace, "arena", counted_arena)
    monkeypatch.setattr(Workspace, "binding", counted_binding)
    return seen


def pass_of(engine, plan, targets, ws, moments=None):
    """Every step of ``plan`` through the ``train_step`` op over ``ws``, with
    each target's moments kept as an engine keeps them: ``(losses and
    gradients, the critical and pinned gradient stores)``."""
    moments = {} if moments is None else moments
    engine.cpu_store.zero_grads(plan.touched)
    engine.gpu_store.zero_grads(plan.touched)
    working, carried, out = engine._new_working_set(), None, []
    for step in plan.steps:
        target = targets[step.view_id]
        if moments.get(step.view_id, (None,))[0] is not target:
            moments[step.view_id] = (target, TargetMoments.of(target))
        loss, grads, carried = step_op()(
            working, step, carried, engine.cameras[step.view_id], engine.raster_settings,
            target, moments[step.view_id][1], 0.2, plan.batch_size, ws,
        )
        out.append((loss.hex(), {k: v.copy() for k, v in grads.items()}))
        ws.release()
    return out, engine.gpu_store.packed_grads.copy(), engine.cpu_store.grads.copy()


def assert_passes_equal(got, want) -> None:
    assert [loss for loss, _ in got[0]] == [loss for loss, _ in want[0]]
    for (_, grads), (_, want_grads) in zip(got[0], want[0]):
        assert set(grads) == set(want_grads)
        assert all(np.array_equal(grads[k], want_grads[k]) for k in want_grads)
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_a_warmed_step_binds_only_its_rows_and_allocates_nothing(recipes, monkeypatch):
    spec, inputs = recipes["sparse"]
    engine, plan, targets = working_sets(recipes, "sparse")
    ws, moments = Workspace(), {}
    want = pass_of(engine, plan, targets, ws, moments)
    allocations, steps = ws.allocations, len(plan.steps)
    assert steps == spec.batch_size
    seen = count_preparation(monkeypatch, ws)
    got = pass_of(engine, plan, targets, ws, moments)
    assert seen == {"bind": [ROWS] * steps, "arena": [], "binding": []}
    assert ws.allocations == allocations
    assert_passes_equal(got, want)
    engine.close()


@pytest.mark.parametrize("event", ["arena growth", "rebuild", "replaced target"])
def test_each_change_re_prepares_once_and_the_step_after_is_a_fresh_ones(
    recipes, event, monkeypatch
):
    """A view larger than any before places the arenas again (each once);
    a rebuild binds the new stores once; a replaced target binds once.  The
    pass after each is the pass a fresh workspace makes, bit for bit, and
    the pass after that is warm again."""
    engine, plan, targets = working_sets(recipes, "sparse")
    ws, moments = Workspace(), {}
    if event == "arena growth":
        # Every view but the largest, which the pass then renders first.
        big = max(plan.steps, key=lambda step: step.working_set.size)
        rest = [step.view_id for step in plan.steps if step is not big]
        pass_of(engine, engine.plan_batch(rest), targets, ws, moments)
        assert all(step.working_set.size < big.working_set.size for step in plan.steps if step is not big)
        plan = engine.plan_batch([big.view_id] + rest, strategy="identity")
    else:
        pass_of(engine, plan, targets, ws, moments)
    if event == "rebuild":
        model = engine.snapshot_model()
        n = model.num_gaussians
        keep = np.flatnonzero(np.arange(n) % 9 != 4)
        engine.rebuild(model.gather(keep), keep)
        plan = engine.plan_batch(list(plan.view_ids))
    if event == "replaced target":
        view = plan.steps[3].view_id
        targets = {**targets, view: targets[view].copy()}
    allocations, made = ws.allocations, ws.bindings
    seen = count_preparation(monkeypatch, ws)
    got = pass_of(engine, plan, targets, ws, moments)
    rows = [ROWS] * len(plan.steps)
    if event == "arena growth":
        assert seen["binding"] == [("view", "train_step", big.view_id)]
        # The new view's camera and target, then every step's rows.
        assert seen["bind"][1:] == rows and len(seen["bind"]) == len(rows) + 1
        assert ws.allocations > allocations
        assert len(seen["arena"]) == len(set(seen["arena"])) > 0
    elif event == "rebuild":
        assert seen["binding"] == ["stores"]
        assert sorted(seen["bind"]) == sorted(
            rows + [("critical", "critical_grads", "k3", "pinned", "pinned_grads")]
        )
    else:
        assert seen["binding"] == [("view", "train_step", view)]
        assert ws.bindings == made + 1
        assert len(seen["bind"]) == len(rows) + 1 and seen["arena"] == []
    assert_passes_equal(got, pass_of(engine, plan, targets, Workspace(), {}))
    for found in seen.values():
        found.clear()
    pass_of(engine, plan, targets, ws, moments)
    assert seen == {"bind": rows, "arena": [], "binding": []}
    engine.close()


def test_a_dropped_workspace_is_freed_without_the_cycle_collector(recipes):
    """The prepared call a workspace keeps does not hold the workspace: once
    its last reference goes, the workspace — its arenas, and the stores and
    targets its bindings hold — is freed at once, not when the cycle
    collector next runs."""
    engine, plan, targets = working_sets(recipes, "sparse")
    ws = Workspace()
    pass_of(engine, plan, targets, ws)
    assert "train_step" in ws.calls
    freed, collecting = weakref.ref(ws), gc.isenabled()
    gc.disable()
    try:
        del ws
        assert freed() is None
    finally:
        if collecting:
            gc.enable()
    engine.close()


def test_a_restore_re_prepares_nothing_and_trains_as_a_fresh_engine(recipes, tmp_path, monkeypatch):
    """A restore writes the stores in place: the batch after it binds only
    its rows and trains to a freshly restored engine's bits (per-view
    losses and densify-hook gradients, which no microbatch order moves)."""
    spec, inputs = recipes["sparse"]
    schedule = batch_schedule(spec, 0, 6)
    path = str(tmp_path / "ckpt.npz")

    def session():
        return repro.session(
            inputs.scene, engine="clm", trainer_config=TrainerConfig(densify_every=HOOK_EVERY),
            config=EngineConfig(batch_size=spec.batch_size, kernel_backend="native"),
            initial_model=starting_model(inputs),
        )

    def hooked(sess):
        seen = []
        sess._trainer._record_grads = lambda view, rows, grads: seen.append(
            (view, rows.copy(), grads.copy())
        )
        return seen

    sess = session()
    for view_ids in schedule[:3]:
        sess.train_batch(view_ids)
    sess.checkpoint(path)
    for view_ids in schedule[3:5]:
        sess.train_batch(view_ids)
    sess.restore(path)
    ws = sess.engine._workspace
    seen, grads = count_preparation(monkeypatch, ws), hooked(sess)
    got = sess.train_batch(schedule[5])
    assert seen["binding"] == [] and seen["arena"] == []
    assert seen["bind"] == [ROWS] * spec.batch_size
    monkeypatch.undo()
    fresh = session()
    fresh.restore(path)
    fresh_grads = hooked(fresh)
    want = fresh.train_batch(schedule[5])
    assert {v: x.hex() for v, x in got.per_view_loss.items()} == {
        v: x.hex() for v, x in want.per_view_loss.items()
    }
    assert sorted(grads, key=lambda s: s[0]) and len(grads) == len(fresh_grads) == spec.batch_size
    for (view, rows, g), (want_view, want_rows, want_g) in zip(
        sorted(grads, key=lambda s: s[0]), sorted(fresh_grads, key=lambda s: s[0])
    ):
        assert view == want_view
        assert np.array_equal(rows, want_rows) and np.array_equal(g, want_g)
    sess.engine.close()
    fresh.engine.close()


def test_the_concurrent_variants_train_to_clms_bits(recipes):
    """``clm_overlap`` (two Adam workers) and ``clm_graph`` run Adam chunks
    on worker threads beside the training thread's steps, each call over its
    own copy of the prepared list: the same bits as ``clm``."""
    spec, inputs = recipes["sparse"]
    runs = {}
    for variant, overrides in {
        "clm": {}, "clm_overlap": {"overlap_workers": 2},
        "clm_graph": {"use_task_graph": True, "overlap_workers": 2},
    }.items():
        engine = repro.create_engine(
            "clm", starting_model(inputs), inputs.scene.cameras,
            EngineConfig(batch_size=spec.batch_size, kernel_backend="native", **overrides),
        )
        losses = [
            engine.train_batch(view_ids, targets_of(inputs)).loss.hex()
            for view_ids in batch_schedule(spec, 0, 12)
        ]
        engine.close()
        runs[variant] = losses, engine.snapshot_model().parameters(), [
            opt.packed_m.copy() for opt in (engine.adam_critical, engine.adam_noncritical)
        ]
    want_losses, want_params, want_m = runs["clm"]
    for variant in ("clm_overlap", "clm_graph"):
        losses, params, m = runs[variant]
        assert losses == want_losses, variant
        assert all(np.array_equal(params[k], want_params[k]) for k in want_params), variant
        assert all(np.array_equal(a, b) for a, b in zip(m, want_m)), variant


# ---------------------------------------------------------------------------
# The batch: a CLM batch's lowered node list as one native call
# ---------------------------------------------------------------------------
def walked(monkeypatch, composed=False) -> None:
    """The engines walk their batches' nodes (a ``train_step`` call a step,
    the Adam chunks one call each), as a hooked batch does; ``composed``:
    each step composed too."""
    fused = CLMEngine._fused_op
    monkeypatch.setattr(
        CLMEngine, "_fused_op",
        lambda self, working, settings, op: None if op == "train_batch"
        else fused(self, working, settings, op),
    )
    if composed:
        compose(monkeypatch)


def batch_calls(monkeypatch, op=None) -> list:
    """The ``start`` and outcome of each ``train_batch`` C call, as made;
    ``op``: the engines run this ``train_batch`` op instead (a mutant's)."""
    lib = get_backend("native").library().load()
    made, raw = [], lib.train_batch
    start_at = native_backend._binder("train_batch").slot["start"]

    def spied(*args):
        try:
            raw(*args)
        except Exception as exc:
            made.append((args[start_at], type(exc).__name__))
            raise
        made.append((args[start_at], "ok"))

    monkeypatch.setattr(lib, "train_batch", spied)
    if op is not None:
        fused = CLMEngine._fused_op
        monkeypatch.setattr(
            CLMEngine, "_fused_op",
            lambda self, working, settings, name: op if name == "train_batch"
            else fused(self, working, settings, name),
        )
    return made


def steps_past_the_tables(engine) -> int:
    """A step count past the end of the bias-correction tables as they
    stand (the tables are shared and only grow)."""
    from repro.optim.kernels import tables_for

    adam = engine.config.adam
    return tables_for(adam.beta1, adam.beta2).covering(0)[0].size + 3


def run_batches(
    recipes, recipe, tmp_path, *, batches=12, hooked=lambda k: False, events=None,
    batch_size=None, **config,
):
    """``batches`` of ``recipe``'s schedule through a fresh ``clm`` session
    on ``native``, the densify hook handed to the batches ``hooked`` picks;
    ``events[k]`` — a checkpoint, its restore, a rebuild, the optimizers'
    steps set to ``("tables", count)`` — before batch k.  Returns what must
    agree: per batch the losses, transfer counts and chunk sizes; the hook's
    gradients; the parameters and both optimizers' state; the pool peak."""
    spec, inputs = recipes[recipe]
    if batch_size is not None:
        spec = replace(spec, batch_size=batch_size)
    sess = repro.session(
        inputs.scene, engine="clm",
        config=EngineConfig(batch_size=spec.batch_size, kernel_backend="native", **config),
        initial_model=starting_model(inputs),
    )
    engine, targets = sess.engine, sess._trainer.targets
    path, batches_out, seen = str(tmp_path / "batch.npz"), [], []

    def hook(view_id, rows, position_grads):
        seen.append((view_id, rows.copy(), position_grads.copy()))

    for k, view_ids in enumerate(batch_schedule(spec, 0, batches)):
        event = (events or {}).get(k)
        if event == "checkpoint":
            sess.checkpoint(path)
        elif event == "restore":
            sess.restore(path)
        elif event == "rebuild":
            densify(sess)
        elif event == "isolate":  # every row out of every frustum but one view's
            params = engine.snapshot_model().parameters()
            kept = engine.cull_views(view_ids[:1])[0]
            params["positions"][np.setdiff1d(np.arange(engine.num_gaussians), kept)] += 1e6
            engine.load_parameters(params)
        elif event is not None:
            for opt in (engine.adam_critical, engine.adam_noncritical):
                opt.steps[:] = event[1]
        result = engine.train_batch(view_ids, targets, hook if hooked(k) else None)
        batches_out.append((
            result.loss.hex(), sorted((v, x.hex()) for v, x in result.per_view_loss.items()),
            result.loaded_gaussians, result.stored_gaussians, result.cached_gaussians,
            result.adam_chunk_sizes, result.touched_gaussians,
        ))
    engine.close()
    params = engine.snapshot_model().parameters()
    state = [params[name] for name in sorted(params)]
    for opt in (engine.adam_critical, engine.adam_noncritical):
        state += [opt.packed_m, opt.packed_v, opt.steps]
    peak = None if engine.pool is None else float(engine.pool.peak).hex()
    return batches_out, seen, state, peak, engine


def assert_same_run(got, want) -> None:
    batches, seen, state, peak, _ = got
    want_batches, want_seen, want_state, want_peak, _ = want
    assert batches == want_batches
    assert peak == want_peak
    assert len(seen) == len(want_seen)
    for (view, rows, grads), (want_view, want_rows, want_grads) in zip(seen, want_seen):
        assert view == want_view
        assert np.array_equal(rows, want_rows) and np.array_equal(grads, want_grads)
    assert len(state) == len(want_state)
    assert all(np.array_equal(a, b) for a, b in zip(state, want_state))


#: The batch call's cases: ``(recipe, run_batches keywords)``.
BATCH_CASES = {
    "empty arenas": ("sparse", {}),
    "tsp order": ("dense", {}),
    "empty chunks": ("sparse", dict(events={4: "isolate"})),
    "pooled": ("sparse", dict(gpu_capacity_bytes=1e12)),
    "one view": ("dense", dict(batch_size=1)),
    "batch-end adam": ("dense", dict(enable_overlap_adam=False)),
    "restore and rebuild": ("sparse", dict(events={3: "checkpoint", 5: "restore", 7: "rebuild"})),
    "tables outgrown": ("dense", dict(events={4: ("tables", None)})),
    "alternating": ("sparse", dict(hooked=lambda k: k % 3 == 1)),
}


def conformance(recipes, case, tmp_path, monkeypatch, op=None) -> tuple:
    """``case`` trained three ways — by batch calls (``op``: this
    ``train_batch`` op), by the walk of native steps and by the walk of
    composed steps — asserted bit-identical.  Returns the ``train_batch``
    calls the first made and its run."""
    recipe, kwargs = BATCH_CASES[case]
    kwargs = dict(kwargs)
    if "events" in kwargs:
        events = dict(kwargs["events"])
        for k, event in events.items():
            if event == ("tables", None):  # one count, the same in every run
                spec, inputs = recipes[recipe]
                probe = repro.create_engine("clm", starting_model(inputs), inputs.scene.cameras)
                events[k] = ("tables", steps_past_the_tables(probe))
                probe.close()
        kwargs["events"] = events
    with monkeypatch.context() as patched:
        made = batch_calls(patched, op)
        got = run_batches(recipes, recipe, tmp_path, **kwargs)
    with monkeypatch.context() as patched:
        walked(patched)
        walk = run_batches(recipes, recipe, tmp_path, **kwargs)
    with monkeypatch.context() as patched:
        walked(patched, composed=True)
        composed = run_batches(recipes, recipe, tmp_path, **kwargs)
    assert walk[4]._workspace.calls.get("train_batch") is None
    assert_same_run(got, walk)
    assert_same_run(got, composed)
    return made, got


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_the_batch_call_trains_to_the_walks_and_the_compositions_bits(
    recipes, case, tmp_path, monkeypatch
):
    made, (batches, seen, *_, engine) = conformance(recipes, case, tmp_path, monkeypatch)
    hooked = BATCH_CASES[case][1].get("hooked", lambda k: False)
    called = [k for k in range(len(batches)) if not hooked(k)]
    # One call a batch the hook is off for, more where it resumed.
    assert sum(status == "ok" for _, status in made) == len(called)
    assert bool(seen) == (case == "alternating")
    assert engine._workspace.steps == sum(len(b[1]) for b in batches)
    if case == "empty arenas":
        # The first batch short at step 0, and a batch short at a later
        # step, each resumed where it fell short (one resume grows every
        # lane for its round's renders, so the later one may be a later
        # batch's).
        assert made[0] == (0, "_ArenaShort") and any(start > 0 for start, _ in made)
    if case == "tsp order":
        plan = engine.plan_batch(batch_schedule(recipes["dense"][0], 0, 1)[0])
        assert any(step.cached.size for step in plan.steps)
        assert any(step.carried.size for step in plan.steps)
    if case == "tables outgrown":
        assert "_TablesShort" in {status for _, status in made}
    if case == "empty chunks":  # beside chunks that are not: no adam node
        assert any(0 in b[5] and any(b[5]) for b in batches)


def test_a_batch_of_empty_sets_plans_and_trains_through_the_call(recipes, monkeypatch):
    """Every view's set empty (the model moved out of every frustum): the
    plan's sets reach ``plan_batch`` as no buffer at all, and the batch —
    steps over no rows, every chunk empty — trains through the call to the
    walk's bits."""
    spec, inputs = recipes["sparse"]
    model = starting_model(inputs)
    model.positions += 1e6
    schedule = batch_schedule(spec, 0, 3)

    def train():
        engine = repro.create_engine(
            "clm", model.clone(), inputs.scene.cameras,
            EngineConfig(batch_size=spec.batch_size, kernel_backend="native"),
        )
        plan = engine.plan_batch(schedule[0])
        assert all(step.working_set.size == 0 for step in plan.steps)
        assert plan.touched.size == 0 and not any(plan.adam_chunk_sizes)
        losses = [
            engine.train_batch(view_ids, targets_of(inputs)).loss.hex() for view_ids in schedule
        ]
        engine.close()
        return losses, engine.snapshot_model().parameters()

    with monkeypatch.context() as patched:
        made = batch_calls(patched)
        got = train()
    walked(monkeypatch)
    want = train()
    assert [status for _, status in made].count("ok") == len(schedule)
    assert got[0] == want[0]
    assert all(np.array_equal(got[1][k], want[1][k]) for k in want[1])


def nodes_of(plan):
    from repro.planning.lowering import lower_batch

    return lower_batch(plan, True)


#: A plan or node list made bad one way, and what the call raises.
MALFORMED = {
    "a step twice": (
        lambda plan, nodes, absent: (plan, nodes[:1] + nodes),
        ValueError, "plan: a malformed node list",
    ),
    "a chunk before its step": (
        lambda plan, nodes, absent: (plan, [nodes[1], nodes[0], *nodes[2:]]),
        ValueError, "plan: a malformed node list",
    ),
    "no critical adam": (
        lambda plan, nodes, absent: (plan, nodes[:-1]),
        ValueError, "plan: a malformed node list",
    ),
    "a row outside the store": (
        lambda plan, nodes, absent: (
            replace(plan, touched=np.append(plan.touched, plan.num_gaussians + 5)), nodes,
        ),
        IndexError, "plan: a row outside the store",
    ),
    "a load outside its working set": (
        lambda plan, nodes, absent: (
            replace(plan, steps=(replace_step(plan.steps[0], loads=absent),) + plan.steps[1:]), nodes,
        ),
        ValueError, "plan: a malformed node list or row vector",
    ),
    "a cached row the step before did not hold": (
        lambda plan, nodes, absent: (
            replace(plan, steps=plan.steps[:1] + (
                replace_step(plan.steps[1], cached=np.setdiff1d(
                    plan.steps[1].working_set, plan.steps[0].working_set,
                )[:1]),
            ) + plan.steps[2:]), nodes,
        ),
        ValueError, "plan: a malformed node list or row vector",
    ),
    "a chunk row outside the touched union": (
        lambda plan, nodes, absent: (
            replace(plan, adam_chunks=(
                np.union1d(plan.adam_chunks[0], np.setdiff1d(
                    np.arange(plan.num_gaussians), plan.touched,
                )[:1]),
            ) + plan.adam_chunks[1:]), nodes,
        ),
        ValueError, "plan: a malformed node list or row vector",
    ),
    "a row two chunks share": (
        lambda plan, nodes, absent: (
            replace(plan, adam_chunks=(
                plan.adam_chunks[0], np.union1d(plan.adam_chunks[1], plan.adam_chunks[0][:1]),
            ) + plan.adam_chunks[2:]), nodes,
        ),
        ValueError, "plan: a malformed node list or row vector",
    ),
}


@pytest.mark.parametrize("bad", list(MALFORMED))
def test_a_malformed_plan_is_refused_with_nothing_written(recipes, bad):
    engine, plan, targets = working_sets(recipes, "sparse")
    engine.train_batch(plan.view_ids, targets)  # warmed: the arenas, the bindings
    nodes = nodes_of(plan)
    assert nodes[1].kind == "adam" and nodes[1].index == 0
    assert np.setdiff1d(plan.steps[1].working_set, plan.steps[0].working_set).size
    absent = np.setdiff1d(np.arange(engine.num_gaussians), plan.steps[0].working_set)[:1]
    make, exc, message = MALFORMED[bad]
    assert_refused(engine, *make(plan, nodes, absent), targets, exc, message)


def assert_refused(engine, plan, nodes, targets, exc, message) -> None:
    """The batch call over ``plan`` and ``nodes`` raises ``exc`` with
    ``message`` and writes nothing: no store, optimizer state, loss or
    counter."""
    from repro.engines.clm import _BatchRun

    opts = (engine.adam_critical, engine.adam_noncritical)
    arrays = [
        engine.cpu_store.params, engine.cpu_store.grads, engine.gpu_store.packed_params,
        engine.gpu_store.packed_grads,
    ] + [a for opt in opts for a in (opt.packed_m, opt.packed_v, opt.steps)]
    before = [a.copy() for a in arrays]
    run = _BatchRun(targets, plan.batch_size, None, working=engine._new_working_set())
    op = get_backend("native").compile("train_batch")
    with pytest.raises(exc, match="native train_batch: " + message):
        op(engine, plan, run, nodes)
    assert not engine._workspace.leased
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert run.per_view_loss == {} and run.working.counters.loaded_gaussians == 0
    engine.close()


def test_a_negative_step_count_is_refused_with_nothing_written(recipes):
    """A touched row's negative step count falls short of any tables: the
    call refuses it rather than grow the tables again and again."""
    engine, plan, targets = working_sets(recipes, "sparse")
    engine.train_batch(plan.view_ids, targets)  # warmed
    engine.adam_critical.steps[plan.touched[0]] = -5
    assert_refused(engine, plan, nodes_of(plan), targets, ValueError, "a negative step count")


def test_the_stamps_partition_the_call_and_are_the_counters(recipes):
    """The calling lane's ten stages' stamps — its renders and the time it
    waits for the other lanes included — sum to within 2% of the one taken
    around the whole entry point, each is timed, and the batch's forward and
    backward seconds are every lane's renders, its Adam seconds the calling
    lane's."""
    from repro.kernels.native_backend import _BATCH_OUT, _OUT, _STAMPS, _cores

    spec, inputs = recipes["sparse"]
    engine = repro.create_engine(
        "clm", starting_model(inputs), inputs.scene.cameras,
        EngineConfig(batch_size=spec.batch_size, kernel_backend="native"),
    )
    for view_ids in batch_schedule(spec, 0, 4):
        result = engine.train_batch(view_ids, targets_of(inputs))
        call = engine._workspace.calls["train_batch"]
        lanes = call.lanes
        assert lanes == min(spec.batch_size, _cores())
        rows = call.arenas["out"][: lanes * len(_BATCH_OUT)].reshape(lanes, -1)
        ns = {stage: int(rows[0, _OUT[f"{stage}_ns"]]) for stage in _STAMPS}
        summed = {stage: int(rows[:, _OUT[f"{stage}_ns"]].sum()) for stage in _STAMPS}
        total = int(rows[0, _OUT["total_ns"]])
        assert rows[0, _OUT["lanes"]] == lanes
        assert all(t > 0 for t in ns.values()), ns
        assert abs(sum(ns.values()) - total) <= 0.02 * total, (ns, total)
        assert result.forward_s == (summed["project"] + summed["composite"]) * 1e-9
        assert result.backward_s == summed["backward"] * 1e-9
        assert result.adam_s == pytest.approx((ns["adam"] + ns["critical_adam"]) * 1e-9, rel=1e-12)
    engine.close()


def mutant_batch(monkeypatch, tmp_path, old: str, new: str):
    """``train_batch`` bound to a library built at -O0 from the source with
    ``old`` (once there) replaced by ``new``."""
    monkeypatch.setattr(
        native_backend, "CFLAGS",
        tuple("-O0" if f == "-O3" else f for f in native_backend.CFLAGS),
    )
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = native_backend.resources.files("repro.kernels").joinpath(
        native_backend.SOURCE
    ).read_text("utf-8")
    assert source.count(old) == 1
    return native_backend._bind_batch(NativeLibrary(source.replace(old, new)).load(), "native")


#: Seeded mutants of the C interpreter: ``(old, new)`` source text.
BATCH_MUTANTS = {
    "an adam node skipped": (
        "} else if (program[2 * j] == NODE_ADAM) {\n",
        "} else if (program[2 * j] == NODE_ADAM) {\n            continue;\n",
    ),
    "a resume at k + 1": ("out[OUT_NODE] = j;", "out[OUT_NODE] = j + 1;"),
    "the carry parity not flipped": (
        "carries + (~index & 1) * carry_size, grad_sh",
        "carries + (index & 1) * carry_size, grad_sh",
    ),
}


@pytest.mark.parametrize("mutant", list(BATCH_MUTANTS))
def test_a_seeded_mutant_of_the_interpreter_fails_the_conformance(
    recipes, mutant, tmp_path, monkeypatch
):
    op = mutant_batch(monkeypatch, tmp_path, *BATCH_MUTANTS[mutant])
    with pytest.raises(AssertionError):
        conformance(recipes, "empty arenas", tmp_path, monkeypatch, op)


def test_a_chunk_lowered_before_its_step_fails_the_conformance(recipes, tmp_path, monkeypatch):
    """Each Adam chunk encoded ahead of the step that finalizes it: the
    call refuses the node list."""
    program = native_backend._program

    def early(nodes):
        nodes, out = list(nodes), []
        for node in nodes:
            if node.kind == "adam":
                out.insert(next(k for k, n in enumerate(out) if n.index == node.index), node)
            else:
                out.append(node)
        return program(out)

    monkeypatch.setattr(native_backend, "_program", early)
    with pytest.raises(ValueError, match="native train_batch: plan: a malformed node list"):
        conformance(recipes, "empty arenas", tmp_path, monkeypatch)
