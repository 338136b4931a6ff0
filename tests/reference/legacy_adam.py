"""The pre-overlap-runtime subset Adam: the reference of the fused kernel.

Test-only oracle, moved here verbatim from ``SparseAdam.step_rows_legacy``
(``repro.optim.sparse_adam``) and written as a function over an
optimizer's ``m`` / ``v`` / ``steps``.  It is the per-name dict walk the
fused :func:`repro.optim.kernels.fused_adam_update` replaced, with its
fancy-indexed moment round-trips and per-name temporaries; the live
``SparseAdam.step_rows`` must agree with it to 1e-10 (same math, different
association order — ``tests/optim/test_packed_adam.py``).  Do not
optimize.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.optim.sparse_adam import SparseAdam


def step_rows_legacy(
    opt: SparseAdam,
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    rows: np.ndarray,
) -> None:
    """The pre-overlap-runtime ``step_rows`` body, updating ``opt``'s
    moments and per-row step counts in place."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return
    cfg = opt.config
    opt.steps[rows] += 1
    t = opt.steps[rows]
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, p in params.items():
        g = grads[name][rows]
        m = opt.m[name]
        v = opt.v[name]
        m[rows] = cfg.beta1 * m[rows] + (1 - cfg.beta1) * g
        v[rows] = cfg.beta2 * v[rows] + (1 - cfg.beta2) * g * g
        shape = (-1,) + (1,) * (p.ndim - 1)
        m_hat = m[rows] / bc1.reshape(shape)
        v_hat = v[rows] / bc2.reshape(shape)
        p[rows] -= cfg.lr_for(name) * m_hat / (np.sqrt(v_hat) + cfg.eps)
