"""CLM's data path in C against the NumPy reference, op by op.

``GpuWorkingSet.assemble``, both stores' ``zero_grads`` and the sparse
optimizers' Adam step are kernel ops over row indices (``assemble_rows``,
``zero_rows``, ``adam_rows``).  ``native`` runs each as one C call, the
reference as NumPy gathers, ``searchsorted`` placements and scatters; both
do the same copies, adds and Adam arithmetic in the same order, so
everything here is ``np.array_equal``, not close.  ``add_grads`` and
``retire`` are NumPy on either backend (their C twins run inside
``train_step``: ``test_native_train_step``).  ``native`` refuses rows
outside the store and rows that are not members of the set they index
before it writes anything (the operands it refuses:
``test_native_refusals``).
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import batch_plans

import repro
from repro.core.checkpoint import load_model
from repro.core.config import EngineConfig
from repro.core.stores import GpuCriticalStore, GpuWorkingSet, PinnedParameterStore
from repro.core.trainer import TrainerConfig
from repro.gaussians.densify import DensifyConfig
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.kernels import ENV_VAR, get_backend
from repro.optim.adam import AdamConfig
from repro.optim.kernels import tables_for
from repro.optim.packed_adam import PackedSparseAdam
from repro.optim.sparse_adam import SparseAdam
from repro.utils import setops

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

BACKENDS = ("numpy", "native")
index_sets = st.lists(st.integers(0, 59), max_size=40).map(setops.as_index_set)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


class Side:
    """One backend's stores and working set over a copy of ``model``."""

    def __init__(self, model, backend):
        self.cpu = PinnedParameterStore(model, kernel_backend=backend)
        self.gpu = GpuCriticalStore(model, kernel_backend=backend)
        self.ws = GpuWorkingSet(self.cpu, self.gpu)

    def state(self):
        ws = self.ws
        return [
            self.cpu.params, self.cpu.grads, self.gpu.packed_params,
            self.gpu.packed_grads, ws.indices, ws.grad_sh, ws.grad_opacity,
            *ws.noncrit.values(),
        ]


def gradients(rng, m, k):
    return {
        "sh": rng.normal(size=(m, k, 3)), "opacity_logits": rng.normal(size=m),
        "positions": rng.normal(size=(m, 3)), "log_scales": rng.normal(size=(m, 3)),
        "quaternions": rng.normal(size=(m, 4)),
    }


def assert_equal(a, b):
    """Arrays (in lists, tuples and dicts, or None) equal bit for bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, dict):
            assert x.keys() == y.keys()
            assert_equal(list(x.values()), list(y.values()))
        elif isinstance(x, (list, tuple)):
            assert_equal(x, y)
        elif x is None or y is None:
            assert x is None and y is None
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y)


def run_batch(model, steps, touched, seed):
    """Zero, then assemble -> add_grads -> retire through ``steps`` on both
    backends, asserting equality after every op; the sides at the end."""
    sides = {b: Side(model, b) for b in BACKENDS}
    k = model.num_sh_basis
    rng = np.random.default_rng(seed)
    for side in sides.values():
        side.cpu.zero_grads(touched)
        side.gpu.zero_grads(touched)
    carried = dict.fromkeys(BACKENDS)
    for ws_rows, loads, cached, stores, kept in steps:
        grads = gradients(rng, ws_rows.size, k)
        out = {}
        for name, side in sides.items():
            built = side.ws.assemble(ws_rows, loads, cached, carried[name])
            side.ws.add_grads(grads)
            carried[name] = side.ws.retire(stores, kept)
            out[name] = [built.parameters(), carried[name], *side.state()]
            assert side.ws.active_kernel_backend == name
            assert side.cpu.active_kernel_backend == name
        assert_equal(out["numpy"], out["native"])
    for side in sides.values():
        assert side.ws.counters == sides["numpy"].ws.counters
    return sides


@given(
    degree=st.integers(0, 3),
    sets=st.lists(index_sets, min_size=1, max_size=6),
    enable_cache=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_the_data_path_matches_the_reference(
    planner_oracle, degree, sets, enable_cache, seed
):
    """Every SH degree, empty loads / cached / stores / carried, and a first
    step with no previous buffer: ``planner_oracle``'s transfer sets."""
    model = GaussianModel.random(60, sh_degree=degree, seed=seed)
    steps = [
        (s, *parts)
        for s, parts in zip(sets, planner_oracle.transfer_sets(sets, enable_cache))
    ]
    run_batch(model, steps, planner_oracle.touched_union(sets), seed)


@given(plan=batch_plans(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_planned_batches_match_the_reference(plan, seed):
    """The planner's own plans over ``generated_model`` (views that see
    nothing included)."""
    n = 1 + max((int(s.working_set.max()) for s in plan.steps if s.working_set.size),
                default=0)
    steps = [
        (s.working_set, s.loads, s.cached, s.stores, s.carried)
        for s in plan.steps
    ]
    model = GaussianModel.random(max(n, 40), sh_degree=1, seed=seed)
    run_batch(model, steps, plan.touched, seed)


def test_a_row_both_cached_and_loaded_takes_the_load():
    """Not a plan the planner makes, but the reference's answer: it writes
    the loads last."""
    model = GaussianModel.random(12, sh_degree=1, seed=6)
    rows, empty = np.arange(2, 10), np.empty(0, np.int64)
    out = []
    for backend in BACKENDS:
        side = Side(model, backend)
        side.ws.assemble(rows, rows, empty)
        side.cpu.params[:] += 1.0  # the pinned rows move on (an Adam step)
        built = side.ws.assemble(rows[1:], rows[1:4], rows[1:])
        out.append(built.parameters())
    assert_equal(out[:1], out[1:])
    assert np.array_equal(out[1]["sh"][:3], model.sh[rows[1:4]] + 1.0)
    assert np.array_equal(out[1]["sh"][3:], model.sh[rows[4:]])


def packed_optimizers(width, data, padded, config=None):
    columns = {"sh": (data - 1,), "opacity_logits": ()}
    return {
        b: PackedSparseAdam(
            columns, 50, config=config or AdamConfig(lr=1e-2),
            pad_to=width if padded else None, kernel_backend=b,
        )
        for b in BACKENDS
    }


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("padded", [True, False])
def test_adam_rows_matches_the_reference(degree, padded):
    """Params (padding columns too), moments and steps bit-equal over
    sorted, unsorted and empty chunks."""
    model = GaussianModel.random(50, sh_degree=degree, seed=degree)
    store = PinnedParameterStore(model)
    width = store.row_floats if padded else store.data_floats
    opts = packed_optimizers(width, store.data_floats, padded)
    rng = np.random.default_rng(degree)
    params = {b: rng.normal(size=(50, width)) for b in BACKENDS}
    params["native"] = params["numpy"].copy()
    for step in range(6):
        grads = rng.normal(size=(50, width))
        grads[:, store.data_floats :] = 0.0
        rows = rng.choice(50, size=rng.integers(0, 50), replace=False)
        if step % 2:
            rows.sort()
        for b, opt in opts.items():
            opt.step_packed(params[b], grads, rows)
    assert opts["native"].active_kernel_backend == "native"
    assert np.array_equal(params["numpy"], params["native"])
    for field in ("packed_m", "packed_v", "steps"):
        assert np.array_equal(
            getattr(opts["numpy"], field), getattr(opts["native"], field)
        )


def test_sparse_adam_routes_every_name_through_the_op():
    """``SparseAdam.step_rows``: one op per name, the steps advanced once."""
    rng = np.random.default_rng(3)
    model = GaussianModel.random(30, sh_degree=2, seed=3)
    params = {b: model.clone().parameters() for b in BACKENDS}
    opts = {b: SparseAdam(params[b], AdamConfig(lr=1e-2), kernel_backend=b)
            for b in BACKENDS}
    for _ in range(4):
        grads = {k: rng.normal(size=v.shape) for k, v in params["numpy"].items()}
        rows = np.sort(rng.choice(30, size=12, replace=False))
        for b in BACKENDS:
            opts[b].step_rows(params[b], grads, rows)
    assert opts["native"].active_kernel_backend == "native"
    assert np.array_equal(opts["numpy"].steps, opts["native"].steps)
    assert opts["native"].steps.max() <= 4
    for name in params["numpy"]:
        for got, want in (
            (params["native"][name], params["numpy"][name]),
            (opts["native"].m[name], opts["numpy"].m[name]),
            (opts["native"].v[name], opts["numpy"].v[name]),
        ):
            assert np.array_equal(got, want), name


def snapshot(*arrays):
    return [a.copy() for a in arrays]


def assert_unchanged(before, arrays):
    assert all(np.array_equal(a, b) for a, b in zip(before, arrays))


def test_native_refuses_rows_before_writing():
    """Non-member and repeated rows raise, and no buffer moved (rows
    outside the store, of another kind or shape, and operands that share
    memory: ``test_native_refusals``)."""
    model = GaussianModel.random(20, sh_degree=1, seed=2)
    side = Side(model, "native")
    cpu, gpu, ws = side.cpu, side.gpu, side.ws
    rows = np.array([1, 4, 7, 9])
    ws.assemble(rows, rows, np.empty(0, np.int64))
    ws.add_grads(gradients(np.random.default_rng(2), 4, model.num_sh_basis))
    buffers = [cpu.grads, gpu.packed_grads, ws.grad_sh, ws.grad_opacity]
    before = snapshot(*buffers)
    for loads, cached in (([2], []), ([1, 4, 7, 9, 11], []), ([1, 4], [7, 12])):
        with pytest.raises(ValueError, match="not a member"):
            ws.assemble(rows, np.array(loads), np.array(cached, dtype=np.int64))
    assert_unchanged(before, buffers)

    opt = PackedSparseAdam({"p": (10,)}, 20, kernel_backend="native")
    params = np.ones((20, 10))
    state = [params, opt.packed_m, opt.packed_v, opt.steps]
    before = snapshot(*state)
    with pytest.raises(ValueError, match="repeats"):
        opt.step_packed(params, np.ones((20, 10)), np.array([5, 2, 5]))
    assert_unchanged(before, state)


def test_steps_past_the_bias_correction_table():
    """A step count past the shared table's end mid-run: the table grows,
    the op goes again, the bits stay the reference's."""
    config = AdamConfig(lr=1e-2, beta1=0.875, beta2=0.9990234375)
    tables = tables_for(config.beta1, config.beta2)
    size = tables.covering(0)[0].size
    opts = packed_optimizers(16, 13, True, config)
    rng = np.random.default_rng(4)
    params = {b: np.ones((50, 16)) for b in BACKENDS}
    for b in BACKENDS:
        opts[b].steps[:25] = size - 3
    for _ in range(6):
        grads = rng.normal(size=(50, 16))
        rows = np.arange(0, 50, 2)
        for b in ("native", "numpy"):  # native meets the short table first
            opts[b].step_packed(params[b], grads, rows)
    assert tables.covering(0)[0].size > size
    assert opts["native"].steps.max() > size
    assert np.array_equal(params["numpy"], params["native"])
    assert np.array_equal(opts["numpy"].packed_m, opts["native"].packed_m)
    assert np.array_equal(opts["numpy"].packed_v, opts["native"].packed_v)


def test_three_threads_on_disjoint_chunks_give_the_serial_result():
    """The overlap runtime's shape: workers stepping disjoint chunks of one
    optimizer at once (ctypes releases the GIL), bit-equal to one thread."""
    rng = np.random.default_rng(5)
    grads = rng.normal(size=(3000, 16))
    chunks = np.array_split(rng.permutation(3000), 3)
    runs = []
    for threaded in (False, True):
        opt = PackedSparseAdam({"p": (16,)}, 3000, kernel_backend="native")
        params = np.ones((3000, 16))
        for _ in range(5):
            calls = [
                lambda c=c: opt.step_packed(params, grads, np.sort(c))
                for c in chunks
            ]
            if threaded:
                threads = [threading.Thread(target=call) for call in calls]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            else:
                for call in calls:
                    call()
        assert opt.active_kernel_backend == "native"
        runs.append((params, opt.packed_m, opt.packed_v, opt.steps))
    for serial, threaded in zip(*runs):
        assert np.array_equal(serial, threaded)


# ---------------------------------------------------------------------------
# Engines: the same training on either data path, renders pinned to native
# ---------------------------------------------------------------------------
ENGINES = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "clm_sharded_k1": ("clm_sharded", {"num_devices": 1}),
    "clm_sharded_k2": ("clm_sharded", {"num_devices": 2}),
    "clm_pooled": ("clm", {"gpu_capacity_bytes": 1e12}),
    "naive": ("naive", {}),
    "enhanced": ("enhanced", {}),
}


def engine_state(engine):
    """Parameters, gradient buffers and optimizer state, by name."""
    state = dict(engine.snapshot_model().parameters())
    if hasattr(engine, "adam_critical"):
        state.update(
            pinned_params=engine.cpu_store.params,
            pinned_grads=engine.cpu_store.grads,
            critical_grads=engine.gpu_store.packed_grads,
        )
        optimizers = {"critical": engine.adam_critical,
                      "noncritical": engine.adam_noncritical}
    else:
        optimizers = {"sparse": engine.optimizer}
    for label, opt in optimizers.items():
        assert opt.active_kernel_backend == engine.kernel_backend
        state[f"{label}.steps"] = opt.steps
        for moment in ("m", "v"):
            for name, arr in getattr(opt, moment).items():
                state[f"{label}.{moment}.{name}"] = arr
    return state


def train_30(scene, name, data_path, monkeypatch, tmp_path):
    """15 batches (a densify at 10), checkpoint, restore into a fresh
    session, 15 more (densifies at 20 and 30): the losses and the state."""
    if data_path == "numpy":
        monkeypatch.setenv(ENV_VAR, "numpy")
    engine, overrides = ENGINES[name]

    def session(initial_model=None):
        config = EngineConfig(
            batch_size=4, seed=0, raster=RasterSettings(kernel_backend="native"),
            **overrides,
        )
        sess = repro.session(
            scene, engine=engine, config=config, initial_model=initial_model,
            trainer_config=TrainerConfig(
                batch_size=4, seed=0, densify_every=10, densify_start=1,
                eval_every=0,
            ),
            densify_config=DensifyConfig(grad_threshold=1e-7, max_gaussians=400),
        )
        assert sess.engine.kernel_backend == data_path
        return sess

    first = session()
    losses = list(first.train(batches=15).losses)
    path = str(tmp_path / f"{name}-{data_path}.npz")
    first.checkpoint(path)
    resumed = session(load_model(path)[0])
    resumed.restore(path)
    losses += resumed.train(batches=15).losses
    counts = first.metrics.gaussian_counts + resumed.metrics.gaussian_counts
    assert len(set(counts)) > 1  # densify rebuilt the stores
    return losses, engine_state(resumed.engine)


@pytest.mark.parametrize("name", list(ENGINES))
def test_engines_train_to_the_same_bits_on_either_data_path(
    trainable_scene, name, monkeypatch, tmp_path
):
    native = train_30(trainable_scene, name, "native", monkeypatch, tmp_path)
    reference = train_30(trainable_scene, name, "numpy", monkeypatch, tmp_path)
    assert native[0] == reference[0]
    assert native[1].keys() == reference[1].keys()
    for key, arr in native[1].items():
        assert np.array_equal(arr, reference[1][key]), key
