"""Runtime-selected kernel backends for the substrate's hot loops.

Public surface of the MOT-style backend layer (ROADMAP item 1): the
:class:`KernelBackend` protocol, the :class:`KernelData`/:class:`KernelSpec`
layout descriptors, the decorator registry, and the resolution helpers
every call site uses (``resolve_backend`` → ``compile_with_fallback``).

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
    KernelData,
    KernelSpec,
    OpDispatch,
    UnknownBackendError,
    UnsupportedKernelError,
    adam_spec,
    available_backends,
    backend_descriptions,
    backend_status,
    compile_with_fallback,
    cull_spec,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    rows_spec,
    train_operands,
    unregister_backend,
    view_spec,
)
from repro.kernels.workspace import Workspace
from repro.kernels import numpy_backend, native_backend  # noqa: F401  (they register)

__all__ = [
    "AUTO",
    "ENV_VAR",
    "KERNEL_OPS",
    "REFERENCE_BACKEND",
    "KernelBackend",
    "KernelData",
    "KernelSpec",
    "OpDispatch",
    "UnknownBackendError",
    "UnsupportedKernelError",
    "adam_spec",
    "available_backends",
    "backend_descriptions",
    "backend_status",
    "compile_with_fallback",
    "cull_spec",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
    "rows_spec",
    "train_operands",
    "unregister_backend",
    "view_spec",
    "Workspace",
]
