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
:class:`KernelBackend` protocol with *capabilities* — the op names it
runs — and a ``compile(op)`` step, and a decorator registry mirroring
:func:`repro.engines.registry.register_engine`::

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

An op is dispatched by its name alone.  Every compute and staging buffer
is float64, the one precision both backends run, so what an op is handed
never decides who runs it: an operand a backend's declaration does not
take is converted or refused by that backend (``native``'s binder), never
rerouted.  A backend whose build fails hands its ops to the reference
with one :class:`RuntimeWarning` (:func:`compile_with_fallback`); an op
outside a backend's declared capabilities runs on the reference, as
``repro backends`` lists (both shipped backends run every op).  Every
backend is pinned against the per-tile oracle of
``tests/reference/legacy_raster.py`` at the repo's 1e-10 parity bar by
``tests/kernels/``.
"""

from __future__ import annotations

import abc
import os
import warnings
from typing import Callable, Dict, Optional, Tuple

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
#: applies again, on the same bits — which a snapshot's cull dispatches
#: (:func:`~repro.gaussians.frustum.cull_batch`: the simulator, the CLI);
#: ``grid_cull`` is training's and serving's cull, a
#: :class:`~repro.gaussians.spatial.CullingGrid`: it builds and binds one
#: grid, whose cull classifies the grid's cells against a batch of views'
#: planes and puts the boundary cells' members to the same arbiter, and
#: whose refit widens the cells of moved rows (its reference is
#: :func:`repro.gaussians.spatial.grid_cull`, over ``exact_cull``'s
#: reference); ``view_forward`` renders one view end to
#: end (frustum test, projection, binning, compositing, assembly) to a
#: context that carries its maker's backward pass
#: (:attr:`~repro.gaussians.rasterizer.RenderContext.backward`) — of the
#: model, or of the working set ``rows=`` names, which is read as
#: ``model.gather(rows)``; over a serving session's
#: :class:`~repro.kernels.workspace.Workspace` (``workspace=``) it returns
#: only the image and the survivor count.
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
    """Raised by :meth:`KernelBackend.compile` for an op the backend's
    :meth:`~KernelBackend.supports` rejects."""


class KernelBackend(abc.ABC):
    """One implementation of the substrate's hot kernels.

    Subclasses set :attr:`name` / :attr:`priority` / :attr:`description`,
    report availability (compiled backends probe their toolchain here), declare
    :meth:`capabilities`, and implement :meth:`_compile`.  ``compile``
    itself is final: it runs the capability check and caches the compiled
    callable per op, so warm-up compilation happens once.
    """

    name: str = "?"
    #: ``auto`` picks the highest-priority available backend; the NumPy
    #: reference sits at 0, compiled backends register above it.
    priority: int = 0
    description: str = ""

    def __init__(self) -> None:
        self._compiled: Dict[str, Callable] = {}

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

    def supports(self, op: str) -> bool:
        """Whether :meth:`compile` would accept ``op``: it is one of the
        :meth:`capabilities`."""
        return op in self.capabilities()

    # -- compilation ----------------------------------------------------
    def compile(self, op: str) -> Callable:
        """The compiled callable for ``op``, cached."""
        fn = self._compiled.get(op)
        if fn is None:
            if not self.available():
                raise UnsupportedKernelError(
                    f"backend '{self.name}' is not available"
                )
            if not self.supports(op):
                raise UnsupportedKernelError(
                    f"backend '{self.name}' does not support {op!r}"
                )
            fn = self._compiled[op] = self._compile(op)
        return fn

    @abc.abstractmethod
    def _compile(self, op: str) -> Callable:
        """Build the callable for a supported ``op``."""


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
    backend: KernelBackend, op: str
) -> Tuple[Callable, KernelBackend]:
    """Compile ``op`` on ``backend``, or on the reference where it cannot.

    Returns ``(callable, backend_actually_used)``.  An unavailable backend
    (already warned about by :func:`resolve_backend`) or one whose
    :meth:`~KernelBackend.capabilities` lack ``op`` (``repro backends``
    lists them) hands the op to the reference.  A backend that claims the
    op but raises from ``compile(op)`` (the build of its kernels failing,
    a driver fault) hands it over too, with a :class:`RuntimeWarning`
    instead of killing training — the returned backend identity records
    the fallback so callers can stamp the truth into their perf counters.
    Only a failing *reference* compile raises.
    """
    if backend.available() and backend.supports(op):
        try:
            return backend.compile(op), backend
        except Exception as exc:
            if backend.name == REFERENCE_BACKEND:
                raise
            warnings.warn(
                f"kernel backend '{backend.name}' failed to compile "
                f"'{op}' ({exc!r}); falling back to "
                f"'{REFERENCE_BACKEND}' for this op",
                RuntimeWarning,
                stacklevel=2,
            )
    reference = get_backend(REFERENCE_BACKEND)
    return reference.compile(op), reference


class OpDispatch:
    """The ops one holder (a store, a working set, an optimizer) runs,
    resolved once: ``kernel_backend`` at first use (:func:`resolve_backend`)
    and each op through :func:`compile_with_fallback` the first time it is
    asked for, keyed by its name alone.  :attr:`active` names the backend
    that ran the last op asked for (the reference, after a failed build)."""

    def __init__(self, kernel_backend: Optional[str] = None) -> None:
        self.kernel_backend = kernel_backend
        self.active: Optional[str] = None
        self._backend: Optional[KernelBackend] = None
        self._compiled: Dict[str, Tuple[Callable, KernelBackend]] = {}

    def __call__(self, op: str) -> Callable:
        """The callable for ``op``."""
        hit = self._compiled.get(op)
        if hit is None:
            if self._backend is None:
                self._backend = resolve_backend(self.kernel_backend)
            hit = self._compiled[op] = compile_with_fallback(self._backend, op)
        self.active = hit[1].name
        return hit[0]
