"""Functional parameter stores — the selective-loading-kernel equivalents.

These classes move *real* NumPy arrays the way CLM moves tensors
(paper §5.2–5.4):

- :class:`PinnedParameterStore` — the CPU side.  Non-critical attributes
  (SH + opacity) of every Gaussian live here in a single packed, padded,
  row-major array ("pinned memory"): all attributes of one Gaussian are
  contiguous and cache-line aligned, exactly the layout the selective
  loading kernel expects.  Gradient accumulation is fetch-add-store, like
  the gradient-offload kernel.
- :class:`GpuCriticalStore` — the GPU side.  Selection-critical attributes
  (position/scale/rotation) of every Gaussian stay resident, along with
  their full-size gradient accumulators (§4.1).
- :class:`GpuWorkingSet` — one microbatch's gathered working set, built
  from cache copies (previous working set) plus fresh loads (pinned store),
  with transfer-byte accounting that the tests reconcile against the
  analytic transfer plan.

``GpuWorkingSet.assemble`` and both stores' ``zero_grads`` dispatch
through the kernel backend layer (:mod:`repro.kernels`), one op a method
over row indices: ``native`` runs each as one C call, the NumPy reference
(``numpy_backend``) as the gathers, ``searchsorted`` placements and
scatters it always was, and the two agree bit for bit.  Every buffer is
float64: parameters, gradient staging and the working set's block alike.
``add_grads`` and ``retire`` are NumPy
here, fancy-indexed ``+=`` in place: the composition below calls them
directly, and ``native``'s microbatch step runs their C twins, which add
and copy in the same order, to the same bits.  ``kernel_backend`` picks
the backend as everywhere else (``EngineConfig.kernel_backend``, then
``REPRO_KERNEL_BACKEND``, then ``auto``); ``active_kernel_backend`` says
which one ran the last op (a working set shares its pinned store's).

A whole microbatch — ``assemble``, the training view, ``add_grads``,
``retire`` — is the ``train_step`` kernel op, whose reference is
:func:`train_step` below: on ``native`` one C call over the engine's
:class:`~repro.kernels.workspace.Workspace`, which binds the stores'
packed buffers once (again when a store is replaced by a ``rebuild``; a
restore writes them in place) and double-buffers the working set's block
and carried gradients in its arenas.  The pool accounting
(:meth:`GpuWorkingSet.reserve`), the current buffers
(:meth:`GpuWorkingSet.hold`) and the transfer counters stay here, on
either path.

A :class:`~repro.hardware.memory.MemoryPool` may be attached to the GPU
side to enforce a capacity: allocations follow the same canonical byte
accounting as :mod:`repro.core.memory_model`, so a small simulated GPU
OOMs the baseline trainer while CLM keeps fitting (the quickstart demo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core import attributes
from repro.core.memory_model import (
    ACT_PER_GAUSSIAN,
    ACT_PER_PIXEL,
    CLM_BUFFER_BPG,
    CLM_CRITICAL_BPG,
)
from repro.gaussians.model import GaussianModel
from repro.hardware.memory import MemoryPool
from repro.kernels.registry import OpDispatch


@dataclass
class TransferCounters:
    """Running tallies of functional data movement (validated against the
    analytic plan and used for Figure 14-style reporting)."""

    loaded_gaussians: int = 0
    stored_gaussians: int = 0
    cached_gaussians: int = 0

    def loaded_bytes(self) -> float:
        return attributes.noncritical_bytes(self.loaded_gaussians)

    def stored_bytes(self) -> float:
        return attributes.noncritical_bytes(self.stored_gaussians)


class PinnedParameterStore:
    """CPU-pinned packed storage of the non-critical attributes.

    Row layout: ``[sh (K*3 floats) | opacity (1 float) | padding]`` with
    the row padded to whole cache lines (§5.2).
    """

    def __init__(
        self,
        model: GaussianModel,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self._ops = OpDispatch(kernel_backend)
        self.num_rows = model.num_gaussians
        self.sh_basis = model.num_sh_basis
        self.data_floats = self.sh_basis * 3 + 1
        self.row_floats = attributes.padded_row_floats(self.data_floats)
        self.params = np.zeros((self.num_rows, self.row_floats))
        self._pack_into(self.params, np.arange(self.num_rows), model.sh,
                        model.opacity_logits)
        # Pinned gradient buffer (accumulated, full-size like the paper's),
        # padded to the same cache-line-aligned row width as the params so
        # the fused packed Adam moves whole rows as contiguous memcpys.
        self.grads = np.zeros((self.num_rows, self.row_floats))

    # -- layout helpers -------------------------------------------------
    def _pack_into(self, dest, rows, sh, opacity) -> None:
        dest[rows, : self.sh_basis * 3] = sh.reshape(len(rows), -1)
        dest[rows, self.sh_basis * 3] = opacity

    def _unpack(self, packed_rows: np.ndarray) -> Dict[str, np.ndarray]:
        m = packed_rows.shape[0]
        sh = packed_rows[:, : self.sh_basis * 3].reshape(m, self.sh_basis, 3)
        opacity = packed_rows[:, self.sh_basis * 3]
        return {"sh": sh.copy(), "opacity_logits": opacity.copy()}

    # -- the "kernels" ---------------------------------------------------
    def gather_params(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Selective load: gather rows and split attributes (§5.2)."""
        return self._unpack(self.params[indices])

    def write_params(self, indices: np.ndarray, values: Dict[str, np.ndarray]) -> None:
        """CPU Adam writes updated parameters back into pinned rows."""
        self._pack_into(self.params, indices, values["sh"], values["opacity_logits"])

    def accumulate_grads(
        self, indices: np.ndarray, sh_grads: np.ndarray, opacity_grads: np.ndarray
    ) -> None:
        """Gradient offload: fetch old accumulation, add, store (§5.3).

        The staged rows are padded to the full row width so the fetch-add
        runs on whole contiguous rows (padding adds zeros to zeros).
        """
        m = indices.shape[0]
        flat = np.zeros((m, self.row_floats))
        flat[:, : self.sh_basis * 3] = sh_grads.reshape(m, -1)
        flat[:, self.sh_basis * 3] = opacity_grads
        self.grads[indices] += flat

    def zero_grads(self, indices: np.ndarray) -> None:
        self._ops("zero_rows")(self.grads, indices)

    @property
    def active_kernel_backend(self) -> Optional[str]:
        return self._ops.active


class GpuCriticalStore:
    """GPU-resident selection-critical attributes with gradient
    accumulators and (conceptually) their on-GPU optimizer state.

    Both parameters and gradient accumulators live in packed ``(N, 10)``
    row-major arrays (``[positions 3 | log_scales 3 | quaternions 4]`` —
    the same packed-row idiom :meth:`PinnedParameterStore._pack_into`
    defines for the non-critical side), so ``accumulate_grads`` is one
    fused scatter instead of a per-name Python loop, ``zero_grads`` and
    ``GpuWorkingSet.add_grads`` walk whole rows, and the GPU-side Adam
    update is one ``PackedSparseAdam.step_packed`` over
    :attr:`packed_params` / :attr:`packed_grads`.  :attr:`positions` /
    :attr:`log_scales` / :attr:`quaternions` and :attr:`grads` expose named
    views into the packed arrays, so row-indexed consumers (culling, the
    equivalence tests) are unchanged.
    """

    #: Packed row layout (params and grads share it), in accumulation order.
    GRAD_COLUMNS = {
        "positions": slice(0, 3),
        "log_scales": slice(3, 6),
        "quaternions": slice(6, 10),
    }

    def __init__(
        self,
        model: GaussianModel,
        pool: Optional[MemoryPool] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self._ops = OpDispatch(kernel_backend)
        self.num_rows = model.num_gaussians
        self.packed_params = np.empty((self.num_rows, 10))
        self.positions = self.packed_params[:, self.GRAD_COLUMNS["positions"]]
        self.log_scales = self.packed_params[:, self.GRAD_COLUMNS["log_scales"]]
        self.quaternions = self.packed_params[
            :, self.GRAD_COLUMNS["quaternions"]
        ]
        self.positions[:] = model.positions
        self.log_scales[:] = model.log_scales
        self.quaternions[:] = model.quaternions
        self._packed_grads = np.zeros((self.num_rows, 10))
        self.grads = {
            name: self._packed_grads[:, cols]
            for name, cols in self.GRAD_COLUMNS.items()
        }
        self.pool = pool
        if pool is not None:
            pool.alloc("clm.critical_state", CLM_CRITICAL_BPG * self.num_rows)

    @property
    def packed_grads(self) -> np.ndarray:
        """The packed ``(N, 10)`` gradient accumulator."""
        return self._packed_grads

    def params(self) -> Dict[str, np.ndarray]:
        return {
            "positions": self.positions,
            "log_scales": self.log_scales,
            "quaternions": self.quaternions,
        }

    def gather(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        return {
            "positions": self.positions[indices].copy(),
            "log_scales": self.log_scales[indices].copy(),
            "quaternions": self.quaternions[indices].copy(),
        }

    def accumulate_grads(self, indices: np.ndarray, grads: Dict[str, np.ndarray]) -> None:
        """Fetch-add-store over packed rows: one concatenate, one scatter."""
        flat = np.concatenate(
            [grads[name] for name in self.GRAD_COLUMNS], axis=1
        )
        self._packed_grads[indices] += flat

    def zero_grads(self, indices: np.ndarray) -> None:
        self._ops("zero_rows")(self._packed_grads, indices)

    @property
    def active_kernel_backend(self) -> Optional[str]:
        return self._ops.active

    def release(self) -> None:
        if self.pool is not None:
            self.pool.free("clm.critical_state")


class GpuWorkingSet:
    """The double-buffered per-microbatch working set.

    ``assemble`` builds the next buffer from the previous one (cache hits)
    plus pinned-store loads, maintaining the GPU-pool allocation and the
    transfer counters.  Gradients accumulate per working-set row; on
    retirement they are split into carried (handed to the next buffer) and
    stored (offloaded to the pinned gradient buffer).
    """

    def __init__(
        self,
        cpu_store: PinnedParameterStore,
        gpu_store: GpuCriticalStore,
        pool: Optional[MemoryPool] = None,
        num_pixels: int = 0,
    ) -> None:
        # The buffers run on their stores' backend, resolved once per store
        # (a working set lives one batch).
        self._ops = cpu_store._ops
        self.cpu_store = cpu_store
        self.gpu_store = gpu_store
        self.pool = pool
        self.num_pixels = num_pixels
        self.counters = TransferCounters()
        self.indices: Optional[np.ndarray] = None  # current S_i
        self.noncrit: Dict[str, np.ndarray] = {}
        self.grad_sh: Optional[np.ndarray] = None
        self.grad_opacity: Optional[np.ndarray] = None
        self._max_rows = 0

    # ------------------------------------------------------------------
    def assemble(
        self,
        working_set: np.ndarray,
        loads: np.ndarray,
        cached: np.ndarray,
        carried_grads: "Optional[tuple]" = None,
    ) -> GaussianModel:
        """Materialize the working model for one microbatch.

        ``carried_grads`` is ``(carried_indices, sh, opacity)`` from the
        previous microbatch; those rows start with the accumulated values
        instead of zero (gradient accumulation on the GPU, §4.2.1).
        """
        if cached.size and self.indices is None:
            raise RuntimeError("cache copy requested with no previous buffer")
        cpu = self.cpu_store
        sh, opacity, crit, grad_sh, grad_opacity = self._ops("assemble_rows")(
            self, working_set, loads, cached, carried_grads
        )
        self.counters.cached_gaussians += int(cached.size)
        self.counters.loaded_gaussians += int(loads.size)
        model = GaussianModel(
            positions=crit["positions"],
            log_scales=crit["log_scales"],
            quaternions=crit["quaternions"],
            sh=sh,
            opacity_logits=opacity,
            sh_degree=_degree_for_basis(cpu.sh_basis),
        )
        self.hold(working_set, sh, opacity, grad_sh, grad_opacity)
        self.reserve(working_set.size)
        return model

    def hold(
        self,
        working_set: np.ndarray,
        sh: np.ndarray,
        opacity: np.ndarray,
        grad_sh: np.ndarray,
        grad_opacity: np.ndarray,
    ) -> None:
        """Make ``working_set``'s buffers the current ones: what the next
        step's cache copies read, and ``add_grads`` / ``retire`` work on."""
        self.indices = working_set
        self.noncrit = {"sh": sh, "opacity_logits": opacity}
        self.grad_sh = grad_sh
        self.grad_opacity = grad_opacity

    def reserve(self, rows: int) -> None:
        """Account a working set of ``rows`` rows in the pool: the double
        buffer at the largest working set seen, and its activations."""
        self._max_rows = max(self._max_rows, rows)
        if self.pool is not None:
            self.pool.alloc("clm.double_buffer", CLM_BUFFER_BPG * self._max_rows)
            self.pool.alloc(
                "clm.activations",
                ACT_PER_GAUSSIAN * rows + ACT_PER_PIXEL * self.num_pixels,
            )

    # ------------------------------------------------------------------
    def add_grads(self, grads: Dict[str, np.ndarray]) -> None:
        """Accumulate a backward pass's gradients into the working buffers
        (non-critical) and the resident accumulators (critical)."""
        assert self.indices is not None
        self.grad_sh += grads["sh"]
        self.grad_opacity += grads["opacity_logits"]
        self.gpu_store.accumulate_grads(self.indices, grads)

    def retire(
        self, stores: np.ndarray, carried: np.ndarray
    ) -> "Optional[tuple]":
        """Offload finalized gradients; return carried grads for the next
        buffer (or None)."""
        assert self.indices is not None
        if stores.size:
            src = np.searchsorted(self.indices, stores)
            self.cpu_store.accumulate_grads(
                stores, self.grad_sh[src], self.grad_opacity[src]
            )
        self.counters.stored_gaussians += int(stores.size)
        if carried.size:
            src = np.searchsorted(self.indices, carried)
            return (carried, self.grad_sh[src].copy(), self.grad_opacity[src].copy())
        return None

    @property
    def active_kernel_backend(self) -> Optional[str]:
        return self._ops.active

    def release(self) -> None:
        if self.pool is not None:
            self.pool.free("clm.double_buffer")
            self.pool.free("clm.activations")
        self.indices = None
        self.noncrit = {}


def train_step(
    working: GpuWorkingSet,
    step,
    carried: "Optional[tuple]",
    camera,
    settings,
    target: np.ndarray,
    moments,
    ssim_lambda: float,
    batch: int,
    workspace=None,
    *,
    view=None,
) -> "tuple[float, Dict[str, np.ndarray], Optional[tuple]]":
    """One CLM microbatch on ``working``: assemble ``step``'s working set
    (with the ``carried`` gradients of the step before), the training view
    of ``camera`` against ``target``, accumulate its gradients, retire the
    step.  Returns ``(loss, grads, carried)``: the gradients scaled by
    ``1 / batch`` and the carried gradients for the next step.

    The reference of the ``train_step`` kernel op and the composition an
    engine runs wherever ``native`` does not take the op.  ``view`` runs
    the training view (default
    :func:`~repro.gaussians.render.train_view`; an engine passes its own,
    which may return gradients leased on ``workspace`` — the caller
    releases it)."""
    if view is None:
        from repro.gaussians.render import train_view as view
    model = working.assemble(step.working_set, step.loads, step.cached, carried)
    loss, grads = view(
        camera, model, settings, target, moments, ssim_lambda, batch, workspace
    )
    working.add_grads(grads)
    return loss, grads, working.retire(step.stores, step.carried)


def _degree_for_basis(basis: int) -> int:
    from repro.gaussians.sh import BASIS_PER_DEGREE

    for degree, k in BASIS_PER_DEGREE.items():
        if k == basis:
            return degree
    raise ValueError(f"invalid SH basis count {basis}")
