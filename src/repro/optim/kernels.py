"""The fused Adam update kernel — one math, every optimizer.

Every Adam variant in the repo (dense :class:`repro.optim.adam.Adam`, the
per-name :class:`repro.optim.sparse_adam.SparseAdam`, and the packed-row
:class:`repro.optim.packed_adam.PackedSparseAdam`) delegates its
moment/bias-correction/update arithmetic here.  That is a correctness
lever, not just deduplication: the functional equivalence suite demands
that CLM's overlapped CPU Adam and the GPU-only baselines land on
*bit-identical* parameters, which holds because every engine's optimizer
performs the same floating-point operations in the same association order
— they all run this kernel.

:func:`adam_rows` is the sparse optimizers' step over rows of a packed
layout (the ``adam_rows`` kernel op's NumPy reference): a cache-blocked
``take`` -> :func:`fused_adam_update` -> scatter round-trip.

The formulation is the low-pass form of Adam::

    m      = b1*m + (1-b1)*g
    v      = b2*v + (g*g)*(1-b2)
    update = (m / (sqrt(v)/sqrt(1-b2^t) + eps)) * lr / (1-b1^t)

(algebraically the textbook ``lr * m_hat / (sqrt(v_hat) + eps)``, with the
bias corrections factored so ``sqrt`` runs once on ``v`` and the per-step
factors come from a precomputed table).  In-place ``out=``/augmented ops
keep the pass count at ~14 and the temporaries at three — about half of
the naive form — because on large packed rows this kernel is memory-bound.

Per-row step counts make ``1 - beta**t`` a per-row vector; recomputing it
with ``np.power`` every chunk costs more than the whole lookup, so
:class:`BiasCorrectionTables` grows a table of the two factors on demand
(copy-on-grow, so concurrent readers on overlap-runtime workers always see
a consistent table).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple, Union

import numpy as np

ArrayOrScalar = Union[np.ndarray, float, int]

#: Rows per :func:`adam_rows` block — sized so a block's operands and
#: temporaries (~7 arrays of block x width floats) stay cache-resident.
DEFAULT_BLOCK_ROWS = 1024


class BiasCorrectionTables:
    """Per-step Adam bias-correction factors, precomputed and growable.

    ``lookup(t)`` returns ``(1 - beta1**t, 1 / sqrt(1 - beta2**t))`` for an
    integer step array ``t`` as two gathered vectors.  The table doubles
    when a larger step appears; growth swaps in a freshly built array
    (entries are recomputed with the same ufunc, so old and new tables
    agree bitwise on their common range), which makes concurrent lookups
    from overlap-runtime worker threads safe without a read lock.
    """

    def __init__(self, beta1: float, beta2: float) -> None:
        self.beta1 = beta1
        self.beta2 = beta2
        self._grow_lock = threading.Lock()
        self._build(64)

    def _build(self, size: int) -> None:
        t = np.arange(size, dtype=np.float64)
        bc1 = 1.0 - self.beta1**t
        with np.errstate(divide="ignore"):
            # Index 0 (an untouched row) is never looked up: sparse Adam
            # bumps a row's step before correcting it.
            rsqrt_bc2 = 1.0 / np.sqrt(1.0 - self.beta2**t)
        self._bc1, self._rsqrt_bc2, self._size = bc1, rsqrt_bc2, size

    def covering(self, t_max: int) -> Tuple[np.ndarray, np.ndarray]:
        """The two whole tables, grown first when ``t_max`` is past their
        end.  What a caller holds stays valid: growth swaps in new arrays."""
        if t_max >= self._size:
            with self._grow_lock:
                if t_max >= self._size:
                    self._build(2 * t_max)
        return self._bc1, self._rsqrt_bc2

    def lookup(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        bc1, rsqrt_bc2 = self.covering(int(t.max()))
        return bc1.take(t), rsqrt_bc2.take(t)


_TABLES: Dict[Tuple[float, float], BiasCorrectionTables] = {}
_TABLES_LOCK = threading.Lock()


def tables_for(beta1: float, beta2: float) -> BiasCorrectionTables:
    """The shared :class:`BiasCorrectionTables` for a ``(beta1, beta2)``
    pair — one table per hyper-parameter setting, shared by every
    optimizer instance so the precomputation amortizes globally."""
    key = (beta1, beta2)
    tables = _TABLES.get(key)
    if tables is None:
        with _TABLES_LOCK:
            tables = _TABLES.setdefault(key, BiasCorrectionTables(beta1, beta2))
    return tables


def bias_corrections(
    t: ArrayOrScalar, beta1: float, beta2: float, ndim: int = 0
) -> "tuple[ArrayOrScalar, ArrayOrScalar]":
    """``(1 - beta1**t, 1/sqrt(1 - beta2**t))`` shaped to broadcast over
    rows.

    ``t`` is either the dense optimizer's scalar step count or a per-row
    step array (sparse Adam tracks bias correction per Gaussian; the array
    path reads the shared lookup table).  With an array ``t``, the result
    gains ``ndim - 1`` trailing singleton axes so it scales ``(rows,
    ...)``-shaped blocks.
    """
    if np.ndim(t) == 0:
        bc1 = 1.0 - beta1**t
        return bc1, 1.0 / np.sqrt(1.0 - beta2**t)
    bc1, rsqrt_bc2 = tables_for(beta1, beta2).lookup(t)
    if ndim > 1:
        shape = (-1,) + (1,) * (ndim - 1)
        bc1 = bc1.reshape(shape)
        rsqrt_bc2 = rsqrt_bc2.reshape(shape)
    return bc1, rsqrt_bc2


def fused_adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: ArrayOrScalar,
    lr: ArrayOrScalar,
    beta1: float,
    beta2: float,
    eps: float,
) -> None:
    """One fused Adam step over row blocks, in place.

    ``params``/``grads``/``m``/``v`` share a leading row axis (any trailing
    shape); ``t`` is a scalar step count or a per-row array; ``lr`` is a
    scalar or a per-column vector broadcasting against the trailing axis —
    the packed layouts use that to apply per-attribute learning rates in a
    single update.  Moments are updated in place (the caller owns whether
    they are gathered copies or direct views).
    """
    np.multiply(m, beta1, out=m)
    m += (1 - beta1) * grads
    np.multiply(v, beta2, out=v)
    gg = grads * grads
    gg *= 1 - beta2
    v += gg
    bc1, rsqrt_bc2 = bias_corrections(t, beta1, beta2, ndim=params.ndim)
    denom = np.sqrt(v)
    denom *= rsqrt_bc2
    denom += eps
    update = m / denom
    update *= lr
    update /= bc1
    params -= update


def adam_rows(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    steps: np.ndarray,
    rows: np.ndarray,
    lr: ArrayOrScalar,
    beta1: float,
    beta2: float,
    eps: float,
    bump: bool = True,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> None:
    """Fused Adam over ``rows`` of a packed layout, in place.

    ``m`` / ``v`` are the ``(N, ...)`` moments and ``steps`` the per-row
    step counts; ``params`` / ``grads`` share their leading axis and may
    carry trailing padding columns past the moments' width, which travel
    through unchanged.  Per block of ``block_rows`` rows: the rows' steps
    advance when ``bump`` is set (a per-name optimizer advances them with
    its first name only), one ``take`` per operand, one
    :func:`fused_adam_update`, one scatter per mutated operand.  ``lr`` is a
    scalar or a per-column vector.
    """
    for s in range(0, rows.size, block_rows):
        r = rows[s : s + block_rows]
        t = steps.take(r)
        if bump:
            t += 1
            steps[r] = t
        p_rows = params.take(r, axis=0)
        g_rows = grads.take(r, axis=0)
        m_rows = m.take(r, axis=0)
        v_rows = v.take(r, axis=0)
        p, g = p_rows, g_rows
        if p.shape[1:] != m_rows.shape[1:]:
            p = p_rows[:, : m_rows.shape[1]]
        if g.shape[1:] != m_rows.shape[1:]:
            g = g_rows[:, : m_rows.shape[1]]
        fused_adam_update(p, g, m_rows, v_rows, t, lr, beta1, beta2, eps)
        params[r] = p_rows
        m[r] = m_rows
        v[r] = v_rows
