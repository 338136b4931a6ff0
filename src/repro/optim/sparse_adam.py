"""Subset-updating Adam — the "CPU Adam" of the paper (§5.4).

CLM extends the ZeRO-Offload CPU Adam to update *a subset of Gaussians*:
after microbatch ``j`` lands its gradients in CPU memory, the CPU thread
updates exactly the finalized set ``F_j = {g : L_g = j}`` (§4.2.2).  That
requires an optimizer whose state and bias correction are tracked per row,
so that updating rows at different times is equivalent to one dense update
over the union at the end of the batch — the property the equivalence tests
in ``tests/core`` verify and the correctness argument of the paper's
overlapped-Adam optimization.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.kernels.registry import OpDispatch
from repro.optim.adam import AdamConfig


class SparseAdam:
    """Adam over named per-Gaussian arrays, updating selected rows only.

    Bias-correction steps are tracked per Gaussian: a row's ``t`` advances
    only when the row is updated, matching the sparse Adam used by 3DGS
    training frameworks (untouched Gaussians receive no gradient and no
    moment decay).

    Each name is one ``adam_rows`` kernel op — the op the fused
    :class:`repro.optim.packed_adam.PackedSparseAdam` applies to a whole
    packed row — so per-name and packed paths agree bit-for-bit.  This
    class remains the general-purpose API (arbitrary per-name layouts); the
    packed variant is CLM's hot path.  ``kernel_backend`` selects the
    backend as there (see :mod:`repro.kernels`).  The per-name loop the
    fused kernel replaced is a test-only oracle
    (``tests/reference/legacy_adam.py``).
    """

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        config: Optional[AdamConfig] = None,
        *,
        kernel_backend: Optional[str] = None,
    ):
        self.config = config or AdamConfig()
        self._ops = OpDispatch(kernel_backend)
        first = next(iter(params.values()))
        self.num_rows = first.shape[0]
        for name, arr in params.items():
            if arr.shape[0] != self.num_rows:
                raise ValueError(f"parameter {name} rows != {self.num_rows}")
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.steps = np.zeros(self.num_rows, dtype=np.int64)

    # ------------------------------------------------------------------
    def step_rows(
        self,
        params: Dict[str, np.ndarray],
        grads: Dict[str, np.ndarray],
        rows: np.ndarray,
    ) -> None:
        """Adam-update ``rows`` of every parameter in place.

        ``grads`` may be full-size arrays (rows outside ``rows`` ignored) —
        this is the shape in which the gradient-offload kernels deposit
        accumulated gradients into pinned CPU memory.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        cfg = self.config
        # The first name advances the rows' steps, the rest read them; the
        # reference takes all rows as one block, as this update always did.
        for k, (name, p) in enumerate(params.items()):
            g, m, v = grads[name], self.m[name], self.v[name]
            self._ops("adam_rows", p, g, m, v)(
                p, g, m, v, self.steps, rows,
                cfg.lr_for(name), cfg.beta1, cfg.beta2, cfg.eps,
                bump=k == 0, block_rows=rows.size,
            )

    @property
    def active_kernel_backend(self) -> Optional[str]:
        """The backend that ran the most recent name's update; None before
        any step."""
        return self._ops.active

    # ------------------------------------------------------------------
    def resize(self, params: Dict[str, np.ndarray], keep_rows: np.ndarray) -> None:
        """Rebuild optimizer state after densification/pruning.

        ``keep_rows`` maps new rows to old rows (``-1`` marks brand-new
        Gaussians whose moments start at zero), mirroring how 3DGS trainers
        carry optimizer state across model-structure changes.
        """
        keep_rows = np.asarray(keep_rows, dtype=np.int64)
        old_rows = keep_rows >= 0
        new_num = keep_rows.shape[0]
        new_m, new_v = {}, {}
        for name, arr in params.items():
            m = np.zeros_like(arr)
            v = np.zeros_like(arr)
            m[old_rows] = self.m[name][keep_rows[old_rows]]
            v[old_rows] = self.v[name][keep_rows[old_rows]]
            new_m[name], new_v[name] = m, v
        steps = np.zeros(new_num, dtype=np.int64)
        steps[old_rows] = self.steps[keep_rows[old_rows]]
        self.m, self.v, self.steps = new_m, new_v, steps
        self.num_rows = new_num

    def state_bytes(self) -> int:
        """Two fp32 moments per parameter element."""
        return sum(arr.size for arr in self.m.values()) * 2 * 4
