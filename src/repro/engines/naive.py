"""Naive (ZeRO-Offload-style) offloading — the paper's Figure 3 strawman.

Per batch: transfer *all* parameters CPU->GPU, train the batch one image at
a time with gradient accumulation (activation saving), transfer *all*
gradients GPU->CPU, then run CPU Adam.  No sparsity, no pipelining, no
caching — the comparison point that isolates what CLM's techniques buy
(§6.1 "Naive Offloading" is configured identically: pinned memory, the same
CPU Adam, pre-rendering frustum culling for the kernels) — and here the same
substrate: one C step a microbatch, as CLM's, so the measured Figure 11
ratio compares offloading strategies, not NumPy against C.

Functional note: the paper's naive system runs CPU Adam over every
Gaussian; with per-row sparse-Adam state that is *numerically equivalent*
to updating the touched union (untouched rows have zero gradient and zero
moments here because gradients are zeroed per batch), so we update the
union and keep quality results comparable across engines.  The *cost*
models (timed path) still charge the dense full-model Adam the paper
describes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import attributes
from repro.core.memory_model import (
    ACT_PER_GAUSSIAN,
    ACT_PER_PIXEL,
    NAIVE_MODEL_BPG,
)
from repro.engines.base import BatchResult, EngineBase, PositionGradHook
from repro.engines.registry import register_engine
from repro.gaussians.model import GaussianModel
from repro.optim.sparse_adam import SparseAdam


@register_engine(
    "naive",
    description="naive offloading: whole-model CPU<->GPU transfers every "
    "batch, dense CPU Adam (Figure 3 strawman)",
)
class NaiveOffloadEngine(EngineBase):
    """Whole-model offloading with batch-granularity transfers."""

    def _setup(self, model: GaussianModel) -> None:
        # CPU master copy ("pinned"): all 59 floats live here between steps.
        self.cpu_model = model.clone()
        self.optimizer = SparseAdam(
            self.cpu_model.parameters(), config=self.config.adam,
            kernel_backend=self.kernel_backend,
        )
        if self.pool is not None:
            self._allocate()

    def _culling_arrays(self):
        return (
            self.cpu_model.positions,
            self.cpu_model.log_scales,
            self.cpu_model.quaternions,
        )

    def _allocate(self) -> None:
        assert self.pool is not None
        n = self.cpu_model.num_gaussians
        self.pool.alloc("naive.params_and_grads", NAIVE_MODEL_BPG * n)
        rho_max = self._max_frustum_fraction()
        self.pool.alloc(
            "naive.activations",
            ACT_PER_GAUSSIAN * rho_max * n + ACT_PER_PIXEL * self._num_pixels,
        )

    @property
    def num_gaussians(self) -> int:
        return self.cpu_model.num_gaussians

    def snapshot_model(self) -> GaussianModel:
        return self.cpu_model.clone()

    def _eval_model(self) -> GaussianModel:
        return self.cpu_model  # CPU master copy; no clone for read-only use

    # ------------------------------------------------------------------
    def _train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        n = self.num_gaussians
        # The naive system runs the sampled batch as-is — an identity-order
        # plan (no TSP, no caching semantics apply to its bulk transfers),
        # but the same planner produces it, so the touched union and the
        # per-view working sets share CLM's semantics exactly.
        plan = self.plan_batch(view_ids, strategy="identity")

        # Step 1 (Figure 3): load ALL parameters to the GPU.
        gpu_model = self.cpu_model.clone()
        grads = gpu_model.zero_gradients()

        # Step 2: per-image training with gradient accumulation into the
        # full-size gradients; the naive system also adopts pre-rendering
        # frustum culling (§6.1).
        per_view_loss, total_loss = self._accumulate_planned(
            plan, targets, gpu_model, grads, position_grad_hook
        )

        # Steps 3-4: store ALL gradients back; CPU Adam updates parameters.
        touched = self._finalize_sparse_adam(
            self.optimizer, self.cpu_model.parameters(), grads, plan.touched
        )
        return BatchResult(
            loss=total_loss,
            per_view_loss=per_view_loss,
            touched_gaussians=int(touched.size),
            order=list(plan.order),
            loaded_gaussians=n,
            stored_gaussians=n,
            # All 59 floats of every Gaussian cross the link (Figure 14's
            # "Naive Offloading" bars equal N x 59 x 4 bytes).
            loaded_bytes=n * attributes.total_floats() * 4,
            stored_bytes=n * attributes.total_floats() * 4,
        )

    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        self.cpu_model = model.clone()
        self.optimizer.resize(self.cpu_model.parameters(), keep_rows)
        if self.pool is not None:
            self._allocate()
