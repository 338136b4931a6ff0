"""The kernel backend registry — runtime-selected compiled hot paths.

The substrate's hot loops (the exact frustum test of
:mod:`repro.gaussians.frustum` and serving's grid cull,
:mod:`repro.gaussians.spatial`, a view's projection, binning, tile
compositing and gradient chain in :mod:`repro.gaussians.rasterizer` /
``rasterizer_grad``, CLM's data path in :mod:`repro.core.stores`, the
fused Adam update of :mod:`repro.optim`, the photometric loss of
:mod:`repro.gaussians.loss` and a batch's plan, :mod:`repro.planning`) are
whole-tensor NumPy passes (the plan: Python) in the reference.  This
module is the MOT-style seam for compiled replacements (cf. the
``CLFunctionEvaluator`` / ``CLFunction`` pattern from cbclab/MOT, kernels
kept as C source and compiled at run time): a
:class:`KernelBackend` protocol with *capabilities* and a
``compile(spec)`` step, a :class:`KernelData` descriptor capturing the
dtype/rank/contiguity of the packed operands, and a decorator registry
mirroring :func:`repro.engines.registry.register_engine`::

    @register_backend("numpy")
    class NumpyKernelBackend(KernelBackend):
        ...

Backends are selected at runtime by :func:`resolve_backend`:

1. an explicit non-``auto`` name (``EngineConfig.kernel_backend``,
   ``RasterSettings.kernel_backend``, ``repro train --kernel-backend``)
   wins; a registered-but-unavailable name degrades to the reference
   backend with a warning (graceful fallback, never a crash);
2. otherwise the ``REPRO_KERNEL_BACKEND`` environment variable, when set;
3. otherwise ``auto``: the highest-priority *available* backend (the
   NumPy reference has priority 0 and is always available; the compiled
   ``native`` backend registers above it).

Per-op capability checks run through :meth:`KernelBackend.supports`: a
backend that cannot execute one spec (e.g. the C kernels, which index
contiguous float64 buffers, being handed float32 blend state or a
Fortran-ordered model array) falls back to the reference implementation
for that op only — see
:func:`compile_with_fallback`.  Every backend is pinned against the
per-tile oracle of ``tests/reference/legacy_raster.py`` at the repo's
1e-10 parity bar by ``tests/kernels/``.
"""

from __future__ import annotations

import abc
import functools
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Environment override consulted by :func:`resolve_backend` when the
#: caller asks for ``auto`` (or passes no name at all).
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The always-available reference backend every fallback lands on.
REFERENCE_BACKEND = "numpy"

#: Sentinel name meaning "pick the fastest available backend".
AUTO = "auto"

#: The kernel operations a backend may implement: the units the callers
#: dispatch, nothing below them.  ``exact_cull`` is the exact 3-sigma
#: frustum test on named rows — the arbiter a backend's own ``view_forward``
#: applies again, on the same bits — which training's culls dispatch;
#: ``grid_cull`` is serving's cull, :class:`~repro.gaussians.spatial.CullingGrid`'s
#: query: it binds one grid, and the query it returns classifies the grid's
#: cells against a view's planes and puts the boundary cells' members to
#: the same arbiter (its reference is :func:`repro.gaussians.spatial.grid_cull`,
#: over ``exact_cull``'s reference); ``view_forward`` renders one view end to
#: end (frustum test, projection, binning, compositing, assembly) to a
#: context that carries its maker's backward pass
#: (:attr:`~repro.gaussians.rasterizer.RenderContext.backward`).
#: ``assemble_rows`` is :class:`~repro.core.stores.GpuWorkingSet`'s selective
#: load over row indices, ``zero_rows`` both stores' ``zero_grads``, and
#: ``adam_rows`` the fused Adam step in place over rows of a packed layout
#: (``PackedSparseAdam``, ``SparseAdam``).  ``photometric_loss`` is the
#: training loss between a view's two passes, L1 + SSIM over the target's
#: kept moments, value and image gradient
#: (:func:`repro.gaussians.loss.photometric_loss`).  ``view_train`` is a
#: whole training view — forward, loss, backward — to ``(loss,
#: gradients)``; its reference is the composition of the three
#: (:func:`repro.gaussians.render.train_view`), ``native`` runs it over an
#: engine's :class:`~repro.kernels.workspace.Workspace`.  ``plan_batch`` is
#: a batch's CPU-side schedule: from the in-frustum sets (and the order, or
#: the RNG the order search draws its restarts from) to the
#: :class:`~repro.planning.planner.PlannedBatch` — order, each step's
#: working set and loads / cached / stores / carried, the touched union and
#: the Adam chunks; its reference is :func:`repro.planning.planner.plan_batch`.
#: ``train_step`` is a CLM microbatch: the load, the training view and the
#: gradient offload over a :class:`~repro.core.stores.GpuWorkingSet`, to
#: ``(loss, gradients, carried)``; its reference is the composition
#: (:func:`repro.core.stores.train_step`).  The compositions call the stages
#: below a unit (the slab compositing, ``add_grads`` / ``retire``) as plain
#: functions.
KERNEL_OPS = (
    "exact_cull",
    "grid_cull",
    "view_forward",
    "assemble_rows",
    "zero_rows",
    "adam_rows",
    "photometric_loss",
    "view_train",
    "plan_batch",
    "train_step",
)


class UnknownBackendError(ValueError):
    """Raised for backend names not in the registry."""


class UnsupportedKernelError(ValueError):
    """Raised by :meth:`KernelBackend.compile` for specs the backend's
    :meth:`~KernelBackend.supports` rejects."""


@dataclass(frozen=True)
class KernelData:
    """Layout descriptor of one kernel operand.

    Captures what a compiled kernel specializes on — element dtype, array
    rank, and C-contiguity — without holding the array itself, so specs
    are hashable compile-cache keys.
    """

    dtype: str
    rank: int = 0
    contiguous: bool = True

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "KernelData":
        arr = np.asarray(arr)
        return _kernel_data(arr.dtype, arr.ndim, arr.flags.c_contiguous)


# Specs are dict keys looked up on every render and every Adam chunk, and
# naming a dtype (``str(np.dtype)``) costs more than the lookup: the
# descriptors are memoised on the raw ``(dtype, rank, contiguity)`` instead.
# Frozen, so sharing one instance between callers is safe.
@functools.lru_cache(maxsize=256)
def _kernel_data(dtype, rank: int, contiguous: bool) -> KernelData:
    return KernelData(str(np.dtype(dtype)), int(rank), bool(contiguous))


@dataclass(frozen=True)
class KernelSpec:
    """What to compile: an op name plus its operand layouts."""

    op: str
    operands: Tuple[KernelData, ...] = ()


@functools.lru_cache(maxsize=256)
def _kernel_spec(op: str, operands: Tuple[KernelData, ...]) -> KernelSpec:
    return KernelSpec(op, operands)


def view_spec(dtype, model) -> KernelSpec:
    """Spec of ``view_forward``: the compute dtype and the five model
    arrays."""
    arrays = (
        model.positions, model.log_scales, model.quaternions, model.sh,
        model.opacity_logits,
    )
    return _kernel_spec(
        "view_forward",
        (_kernel_data(dtype, 3, True),)
        + tuple(KernelData.from_array(a) for a in arrays),
    )


@functools.lru_cache(maxsize=8)
def _compute_dtype(dtype: str) -> np.ndarray:
    # An empty rank-3 array: the compute dtype as ``view_spec`` lists it.
    return np.empty((0, 0, 0), dtype)


def train_operands(settings, model, target, moments) -> tuple:
    """The arrays whose layouts decide who runs ``view_train``, for an
    :class:`OpDispatch`: the compute dtype (as :func:`view_spec` lists it
    first), the five model arrays, the target and, unless the loss is L1
    alone (``moments`` None), the target's first moment plane."""
    return (
        _compute_dtype(settings.dtype), model.positions, model.log_scales,
        model.quaternions, model.sh, model.opacity_logits, target,
    ) + (() if moments is None else (moments.uy,))


def step_operands(settings, working, target, moments) -> tuple:
    """The arrays whose layouts decide who runs ``train_step``: the compute
    dtype, the stores' packed buffers (the pinned rows and gradients, the
    critical rows and gradients), the target and, unless the loss is L1
    alone, the target's first moment plane."""
    cpu, gpu = working.cpu_store, working.gpu_store
    return (
        _compute_dtype(settings.dtype), cpu.params, cpu.grads,
        gpu.packed_params, gpu.packed_grads, target,
    ) + (() if moments is None else (moments.uy,))


def rows_contiguous(arr: np.ndarray) -> bool:
    """Whether ``arr`` is ``(N, D)`` with each row's values adjacent and
    rows a whole number of elements apart — a C-contiguous array, or the
    column slice of one (``GpuCriticalStore``'s views of its ``(N, 10)``
    block), which a kernel taking a row stride walks in place."""
    return arr.ndim == 2 and (
        arr.flags.c_contiguous  # whatever strides an empty array reports
        or (arr.strides[1] == arr.itemsize and arr.strides[0] % arr.itemsize == 0)
    )


def cull_spec(positions, log_scales, raw_quats, op: str = "exact_cull") -> KernelSpec:
    """Spec of a cull op (``exact_cull``, ``grid_cull``) over the three
    selection-critical arrays.  Both take the layouts a walk with a row
    stride can read, so ``contiguous`` here is :func:`rows_contiguous`, not
    whole-array C-contiguity."""
    return _kernel_spec(
        op,
        tuple(
            _kernel_data(a.dtype, a.ndim, rows_contiguous(a))
            for a in (positions, log_scales, raw_quats)
        ),
    )


def rows_spec(op: str, *arrays: np.ndarray) -> KernelSpec:
    """Spec of a data-path op over the buffers whose layout decides who can
    run it (a float32 gradient staging buffer, say)."""
    return _kernel_spec(op, tuple(KernelData.from_array(a) for a in arrays))


def adam_spec(*arrays: np.ndarray) -> KernelSpec:
    """Spec of ``adam_rows`` over ``(params, grads, m, v)``."""
    return rows_spec("adam_rows", *arrays)


class KernelBackend(abc.ABC):
    """One implementation of the substrate's hot kernels.

    Subclasses set :attr:`name` / :attr:`priority` / :attr:`description`,
    report availability (compiled backends probe their toolchain here), declare
    :meth:`capabilities`, and implement :meth:`_compile`.  ``compile``
    itself is final: it runs the capability check and caches the compiled
    callable per spec, so warm-up compilation happens once per signature.
    """

    name: str = "?"
    #: ``auto`` picks the highest-priority available backend; the NumPy
    #: reference sits at 0, compiled backends register above it.
    priority: int = 0
    description: str = ""

    def __init__(self) -> None:
        self._compiled: Dict[KernelSpec, Callable] = {}

    # -- identity -------------------------------------------------------
    def available(self) -> bool:
        """Whether this backend can execute in the current process."""
        return True

    def version(self) -> Optional[str]:
        """Version string of the backing implementation, if any."""
        return None

    def detail(self) -> Optional[str]:
        """What a status report should add about this backend here (the
        toolchain found, or why the backend is unavailable), if anything."""
        return None

    # -- capability surface ---------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> "frozenset[str]":
        """The :data:`KERNEL_OPS` names this backend implements."""

    def supports(self, spec: KernelSpec) -> bool:
        """Whether :meth:`compile` would accept ``spec``.

        The base check is op membership; backends with layout
        restrictions (dtype, contiguity) refine this.
        """
        return spec.op in self.capabilities()

    # -- compilation ----------------------------------------------------
    def compile(self, spec: KernelSpec) -> Callable:
        """The compiled callable for ``spec``, cached per signature."""
        fn = self._compiled.get(spec)
        if fn is None:
            if not self.available():
                raise UnsupportedKernelError(
                    f"backend '{self.name}' is not available"
                )
            if not self.supports(spec):
                raise UnsupportedKernelError(
                    f"backend '{self.name}' does not support {spec}"
                )
            fn = self._compile(spec)
            self._compiled[spec] = fn
        return fn

    @abc.abstractmethod
    def _compile(self, spec: KernelSpec) -> Callable:
        """Build the callable for a supported ``spec``."""


#: Name -> instance.  The shipped backends (``numpy``, ``native``) register
#: when :mod:`repro.kernels` is imported.
_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(name: str):
    """Class decorator adding a :class:`KernelBackend` to the registry.

    The class is instantiated immediately (construction must be cheap and
    must not import optional dependencies — probe those in
    :meth:`KernelBackend.available`).
    """

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(
                f"kernel backend '{name}' is already registered "
                f"(by {type(_REGISTRY[name]).__name__})"
            )
        backend = cls()
        backend.name = name
        _REGISTRY[name] = backend
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registered backend (tests/plugins only); the reference
    every fallback lands on stays."""
    if name == REFERENCE_BACKEND:
        raise ValueError(f"cannot unregister the built-in reference '{name}'")
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order (availability is a
    separate question — see :func:`backend_status`)."""
    return tuple(_REGISTRY)


def backend_descriptions() -> Dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {name: b.description for name, b in _REGISTRY.items()}


def get_backend(name: str) -> KernelBackend:
    """The registered backend instance for ``name``.

    Raises :class:`UnknownBackendError` (a ``ValueError``) with the known
    names when ``name`` is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown kernel backend '{name}'; "
            f"choose from {available_backends()}"
        ) from None


def backend_status() -> "list[dict]":
    """One row per registered backend for reporting (``repro backends``).

    ``detail`` is asked for first: a backend that builds at first use
    tries to, so ``available`` is what a render would find."""
    rows = []
    for b in _REGISTRY.values():
        detail = b.detail()
        rows.append(
            {
                "name": b.name,
                "available": b.available(),
                "version": b.version(),
                "priority": b.priority,
                "description": b.description,
                "detail": detail,
            }
        )
    return rows


def _auto_backend() -> KernelBackend:
    """Highest-priority available backend (ties break on registration
    order; the NumPy reference guarantees a non-empty candidate set)."""
    candidates = [b for b in _REGISTRY.values() if b.available()]
    return max(candidates, key=lambda b: b.priority)


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend request to a usable backend instance.

    ``None``/``""``/``"auto"`` consult the ``REPRO_KERNEL_BACKEND``
    environment variable, then auto-select.  An explicit name must be
    registered (else :class:`UnknownBackendError`); a registered but
    unavailable backend — or an env override naming one — degrades to the
    reference backend with a :class:`RuntimeWarning` instead of failing,
    so a config written for a host with a compiler still runs everywhere.
    """
    from_env = False
    if name in (None, "", AUTO):
        env_name = os.environ.get(ENV_VAR, "").strip()
        if env_name and env_name != AUTO:
            name, from_env = env_name, True
        else:
            return _auto_backend()
    try:
        backend = get_backend(name)
    except UnknownBackendError:
        if not from_env:
            raise
        warnings.warn(
            f"{ENV_VAR}={name!r} names an unknown kernel backend; "
            f"falling back to auto selection",
            RuntimeWarning,
            stacklevel=2,
        )
        return _auto_backend()
    if not backend.available():
        warnings.warn(
            f"kernel backend '{name}' is not available in this "
            f"environment; falling back to '{REFERENCE_BACKEND}'",
            RuntimeWarning,
            stacklevel=2,
        )
        return get_backend(REFERENCE_BACKEND)
    return backend


def resolve_backend_name(name: Optional[str] = None) -> str:
    """The resolved backend's name (see :func:`resolve_backend`)."""
    return resolve_backend(name).name


def compile_with_fallback(
    backend: KernelBackend, spec: KernelSpec
) -> Tuple[Callable, KernelBackend]:
    """Compile ``spec`` on ``backend``, degrading per-op to the reference.

    Returns ``(callable, backend_actually_used)``.  This is the per-call
    capability gate: a compiled backend that cannot execute one particular
    layout (say, float32 blend state) hands exactly that op back to the
    NumPy reference while keeping every op it *can* run.

    Compilation *failures* degrade the same way: a backend that claims
    support but raises from ``compile(spec)`` mid-run (the build of its
    kernels failing, a driver fault) hands the op to the reference with
    a :class:`RuntimeWarning` instead of killing training — the returned
    backend identity records the fallback so callers can stamp the truth
    into their perf counters.  Only a failing *reference* compile raises.
    """
    if backend.available() and backend.supports(spec):
        try:
            return backend.compile(spec), backend
        except Exception as exc:
            if backend.name == REFERENCE_BACKEND:
                raise
            warnings.warn(
                f"kernel backend '{backend.name}' failed to compile "
                f"'{spec.op}' ({exc!r}); falling back to "
                f"'{REFERENCE_BACKEND}' for this op",
                RuntimeWarning,
                stacklevel=2,
            )
    reference = get_backend(REFERENCE_BACKEND)
    return reference.compile(spec), reference


class OpDispatch:
    """The ops one holder (a store, a working set, an optimizer) runs,
    resolved once: ``kernel_backend`` at first use (:func:`resolve_backend`)
    and each op over each operand layout through
    :func:`compile_with_fallback` the first time it is seen.  The layouts
    are looked up raw — dtype, rank, C-contiguity — because hashing a
    :class:`KernelSpec` runs its dataclass fields' hashes in Python, and
    the data path asks on every call.  :attr:`active` names the backend
    that ran the last op asked for, after per-op fallback."""

    def __init__(self, kernel_backend: Optional[str] = None) -> None:
        self.kernel_backend = kernel_backend
        self.active: Optional[str] = None
        self._backend: Optional[KernelBackend] = None
        self._compiled: Dict[tuple, Tuple[Callable, KernelBackend]] = {}

    def __call__(self, op: str, *operands: np.ndarray) -> Callable:
        """The callable for ``op`` over arrays laid out like ``operands``."""
        key = (op, *((a.dtype, a.ndim, a.flags.c_contiguous) for a in operands))
        hit = self._compiled.get(key)
        if hit is None:
            if self._backend is None:
                self._backend = resolve_backend(self.kernel_backend)
            hit = self._compiled[key] = compile_with_fallback(
                self._backend, rows_spec(op, *operands)
            )
        self.active = hit[1].name
        return hit[0]
