"""Packed-row sparse Adam — the fused CPU-Adam kernel of the overlap
runtime.

:class:`repro.optim.sparse_adam.SparseAdam` keeps one moment array per
parameter name.  CLM's stores, however, already keep each side's
attributes in one packed row-major array (``GpuCriticalStore``'s ``(N, 10)``
critical rows, the pinned store's cache-line-padded ``(N, row_floats)``
non-critical rows), so the optimizer state matches that layout: moments
live as single ``(N, width)`` arrays, a per-column learning-rate vector
applies every attribute's own rate, and one chunk update is one
``adam_rows`` kernel op over the chunk's rows, updating the pinned rows
*in place* — no gather / unpack / repack / writeback staging cycle.

The op runs on the backend :mod:`repro.kernels` resolves.  Under
``native`` it is one C call that walks the rows in place; the NumPy
reference (:func:`repro.optim.kernels.adam_rows`) processes cache-sized
row blocks — one ``take`` per operand, one
:func:`~repro.optim.kernels.fused_adam_update`, one scatter per mutated
operand.  Both perform ``fused_adam_update``'s operations in its order, so
they agree bit for bit.
Buffers may carry trailing padding columns (``pad_to``): the update covers
them too, and as their gradients are zero their moments and values stay
exactly zero.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.registry import OpDispatch
from repro.optim.adam import AdamConfig
from repro.optim.kernels import DEFAULT_BLOCK_ROWS
from repro.optim.sparse_adam import SparseAdam


class PackedSparseAdam:
    """Subset-updating Adam over one packed ``(N, width)`` row layout.

    ``columns`` maps parameter names (in packed column order) to their
    trailing shapes — e.g. the critical layout is
    ``{"positions": (3,), "log_scales": (3,), "quaternions": (4,)}`` for a
    width-10 row.  ``pad_to`` widens the moment rows to a padded buffer
    width (the pinned store's ``row_floats``) so every operand shares one
    contiguous layout.  Per-row step counts preserve the sparse
    bias-correction semantics; learning-rate overrides are expanded into a
    per-column vector so one fused update applies every attribute's own
    rate.

    ``kernel_backend`` selects the backend executing the update (see
    :mod:`repro.kernels`); ``None``/``"auto"`` resolves to the fastest
    available backend, and ``active_kernel_backend`` says which one ran
    (the reference, after a failed build).  Every operand is float64.
    """

    def __init__(
        self,
        columns: Mapping[str, Tuple[int, ...]],
        num_rows: int,
        config: Optional[AdamConfig] = None,
        *,
        pad_to: Optional[int] = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.config = config or AdamConfig()
        self.kernel_backend = kernel_backend
        self._ops = OpDispatch(kernel_backend)
        self.columns: Dict[str, Tuple[int, ...]] = {
            name: tuple(shape) for name, shape in columns.items()
        }
        self.slices: Dict[str, slice] = {}
        start = 0
        for name, shape in self.columns.items():
            width = int(np.prod(shape)) if shape else 1
            self.slices[name] = slice(start, start + width)
            start += width
        #: Columns that carry parameter data (excludes padding).
        self.data_width = start
        if pad_to is not None and pad_to < start:
            raise ValueError(f"pad_to={pad_to} < data width {start}")
        self.width = pad_to if pad_to is not None else start
        self.block_rows = max(1, int(block_rows))
        self.num_rows = int(num_rows)
        # Padding columns only ever see zero gradients, so their moments
        # stay exactly zero.
        self.packed_m = np.zeros((self.num_rows, self.width))
        self.packed_v = np.zeros((self.num_rows, self.width))
        self.steps = np.zeros(self.num_rows, dtype=np.int64)
        self._rates: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def lr_columns(self) -> np.ndarray:
        """Per-column learning rates — the packed form of ``lr_overrides``
        (padding columns get 0, they multiply zero updates anyway).

        Rebuilt from :attr:`config` when a rate has changed (schedules
        mutate ``lr_overrides`` in place mid-training), else the same
        read-only array, which the ``adam_rows`` op keeps bound.
        """
        rates = tuple(self.config.lr_for(name) for name in self.slices)
        if rates != self._rates:
            out = np.zeros(self.width, dtype=np.float64)
            for sl, rate in zip(self.slices.values(), rates):
                out[sl] = rate
            out.setflags(write=False)
            self._lr_columns, self._rates = out, rates
        return self._lr_columns

    @property
    def active_kernel_backend(self) -> Optional[str]:
        """The backend that ran the most recent step (after auto-selection
        and a failed build's fallback); None before any step."""
        return self._ops.active

    # ------------------------------------------------------------------
    def step_packed(
        self,
        packed_params: np.ndarray,
        packed_grads: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Fused Adam over ``rows`` of a packed parameter array, in place.

        ``packed_params``/``packed_grads`` are ``(N, >= width)`` buffers —
        trailing padding columns (the pinned store's cache-line alignment)
        travel through unchanged.  One ``adam_rows`` op, however many named
        attributes the row packs.
        """
        # As given: the op refuses rows that are not integers.
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        cfg = self.config
        m, v = self.packed_m, self.packed_v
        self._ops("adam_rows")(
            packed_params, packed_grads, m, v, self.steps, rows,
            self.lr_columns, cfg.beta1, cfg.beta2, cfg.eps,
            block_rows=self.block_rows,
        )

    # ------------------------------------------------------------------
    @property
    def m(self) -> Dict[str, np.ndarray]:
        """Per-name views into the packed first moment (no copies)."""
        return self._views(self.packed_m)

    @property
    def v(self) -> Dict[str, np.ndarray]:
        """Per-name views into the packed second moment (no copies)."""
        return self._views(self.packed_v)

    #: The live state by name, as :class:`SparseAdam` names it; the
    #: moments are the per-name views, so writes land in the packed rows.
    state_arrays = SparseAdam.state_arrays

    def _views(self, packed: np.ndarray) -> Dict[str, np.ndarray]:
        n = packed.shape[0]
        return {
            name: packed[:, self.slices[name]].reshape((n,) + shape)
            for name, shape in self.columns.items()
        }

    # ------------------------------------------------------------------
    def resize(self, keep_rows: np.ndarray) -> None:
        """Rebuild state after densification/pruning.

        ``keep_rows`` maps new rows to old rows (``-1`` marks brand-new
        Gaussians whose moments start at zero) — the same contract as
        :meth:`repro.optim.sparse_adam.SparseAdam.resize`.
        """
        keep_rows = np.asarray(keep_rows, dtype=np.int64)
        old_rows = keep_rows >= 0
        new_num = keep_rows.shape[0]
        m = np.zeros((new_num, self.width))
        v = np.zeros((new_num, self.width))
        steps = np.zeros(new_num, dtype=np.int64)
        m[old_rows] = self.packed_m[keep_rows[old_rows]]
        v[old_rows] = self.packed_v[keep_rows[old_rows]]
        steps[old_rows] = self.steps[keep_rows[old_rows]]
        self.packed_m, self.packed_v, self.steps = m, v, steps
        self.num_rows = new_num

    def state_bytes(self) -> int:
        """Two fp32 moments per packed *data* element (canonical
        accounting, like :meth:`SparseAdam.state_bytes`; padding columns
        are zero-filled alignment, not state)."""
        return self.num_rows * self.data_width * 2 * 4


def pack_named(
    arrays: Mapping[str, np.ndarray], order: Sequence[str]
) -> np.ndarray:
    """Concatenate named ``(m, ...)`` arrays into one ``(m, width)`` block
    following ``order`` — the row layout :class:`PackedSparseAdam` updates."""
    m = next(iter(arrays.values())).shape[0]
    return np.concatenate(
        [np.asarray(arrays[name]).reshape(m, -1) for name in order], axis=1
    )
