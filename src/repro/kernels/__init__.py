"""Runtime-selected kernel backends for the substrate's hot loops.

Public surface of the MOT-style backend layer (ROADMAP item 1): the
:class:`KernelBackend` protocol, whose ops are dispatched by name alone,
the decorator registry, and the resolution helpers every call site uses
(``resolve_backend`` → ``compile_with_fallback``, or an
:class:`OpDispatch` holding both).

Two backends ship and register on import: ``numpy`` (the always-available
reference) and ``native`` (a whole view in C — projection, binning, fused
per-tile compositing, the gradient chain — a training view with its loss
over an engine's :class:`Workspace`, CLM's data path and fused Adam
over row indices, a CLM microbatch step as one call, and a batch's plan,
built at first use with the system C compiler;
unavailable, and silently skipped by ``auto``, without one) — see
``repro backends`` and the README's "Kernel backends" section.
"""

from repro.kernels.registry import (
    AUTO,
    ENV_VAR,
    KERNEL_OPS,
    REFERENCE_BACKEND,
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
from repro.kernels.workspace import Workspace
from repro.kernels import numpy_backend, native_backend  # noqa: F401  (they register)

__all__ = [
    "AUTO",
    "ENV_VAR",
    "KERNEL_OPS",
    "REFERENCE_BACKEND",
    "KernelBackend",
    "OpDispatch",
    "UnknownBackendError",
    "UnsupportedKernelError",
    "available_backends",
    "backend_descriptions",
    "backend_status",
    "compile_with_fallback",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
    "unregister_backend",
    "Workspace",
]
