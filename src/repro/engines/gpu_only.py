"""GPU-only training engines: the paper's two non-offloading comparators.

- **baseline** — the Grendel-GS + gsplat configuration of §6.1: frustum
  culling is fused into the rendering kernels, so every kernel streams all
  ``N`` Gaussians and activation state is allocated for all of them.
- **enhanced baseline** — baseline plus CLM's pre-rendering frustum culling
  (§5.1): the in-frustum set is computed first and only those Gaussians
  enter the rasterizer, cutting compute and activation memory.

Functionally the two produce identical gradients (out-of-frustum Gaussians
contribute nothing); they differ in the simulated cost/memory models and —
in this functional implementation — in which rows each microbatch's one C
step reads in place from the resident model: the view's working set, or
every row.  Either step adds its gradients into the full-size ones.  The
equivalence test relies on exactly that property.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.memory_model import (
    ACT_PER_GAUSSIAN,
    ACT_PER_PIXEL,
    MODEL_STATE_FULL_BPG,
)
from repro.engines.base import BatchResult, EngineBase, PositionGradHook
from repro.engines.registry import register_engine
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.optim.sparse_adam import SparseAdam


@register_engine(
    "baseline",
    description="GPU-only baseline (Grendel-GS + gsplat): full model state "
    "resident, culling fused into the kernels",
)
class GpuOnlyEngine(EngineBase):
    """Whole-model-on-GPU training (baseline / enhanced baseline)."""

    def __init__(
        self,
        model: GaussianModel,
        cameras: Sequence[Camera],
        config: Optional[EngineConfig] = None,
        enhanced: bool = False,
    ) -> None:
        self.enhanced = enhanced
        super().__init__(model, cameras, config)

    def _setup(self, model: GaussianModel) -> None:
        self.model = model.clone()
        self.optimizer = SparseAdam(
            self.model.parameters(), config=self.config.adam,
            kernel_backend=self.kernel_backend,
        )
        if self.pool is not None:
            self._allocate()

    def _culling_arrays(self):
        return (
            self.model.positions,
            self.model.log_scales,
            self.model.quaternions,
        )

    def _allocate(self) -> None:
        """Reserve the canonical GPU footprint; raises OutOfMemoryError when
        the simulated card is too small (the Figure 8 mechanism)."""
        assert self.pool is not None
        n = self.model.num_gaussians
        self.pool.alloc("model_states", MODEL_STATE_FULL_BPG * n)
        act_gaussians = n  # fused path: activations for every Gaussian
        if self.enhanced:
            act_gaussians = self._max_frustum_fraction() * n
        self.pool.alloc(
            "activations",
            ACT_PER_GAUSSIAN * act_gaussians + ACT_PER_PIXEL * self._num_pixels,
        )

    @property
    def num_gaussians(self) -> int:
        return self.model.num_gaussians

    def snapshot_model(self) -> GaussianModel:
        return self.model.clone()

    def _eval_model(self) -> GaussianModel:
        return self.model  # already resident; no copy needed

    # ------------------------------------------------------------------
    def _train_batch(
        self,
        view_ids: Sequence[int],
        targets: Dict[int, np.ndarray],
        position_grad_hook: Optional[PositionGradHook] = None,
    ) -> BatchResult:
        """One batch with gradient accumulation and a single sparse-Adam
        update over the touched union at batch end."""
        grads = self.model.zero_gradients()
        # GPU-only engines run the sampled order; the planner still builds
        # the (identity-order) plan so working sets and the touched union
        # come from the same layer every engine uses.
        plan = self.plan_batch(view_ids, strategy="identity")

        # The enhanced engine renders each view's in-frustum working set;
        # the fused-culling baseline streams the full model through every
        # kernel, and the plan's in-frustum sets still feed the touched
        # union and the densification hook.
        per_view_loss, total_loss = self._accumulate_planned(
            plan, targets, self.model, grads, position_grad_hook,
            whole=not self.enhanced,
        )

        touched = self._finalize_sparse_adam(
            self.optimizer, self.model.parameters(), grads, plan.touched
        )
        return BatchResult(
            loss=total_loss,
            per_view_loss=per_view_loss,
            touched_gaussians=int(touched.size),
            order=list(plan.order),
        )

    def rebuild(self, model: GaussianModel, keep_rows: np.ndarray) -> None:
        self.model = model.clone()
        self.optimizer.resize(self.model.parameters(), keep_rows)
        if self.pool is not None:
            self._allocate()


@register_engine(
    "enhanced",
    description="enhanced baseline: GPU-only plus CLM's pre-rendering "
    "frustum culling (§5.1)",
)
def _make_enhanced_baseline(
    model: GaussianModel,
    cameras: Sequence[Camera],
    config: Optional[EngineConfig] = None,
) -> GpuOnlyEngine:
    """enhanced baseline: GPU-only plus pre-rendering frustum culling."""
    return GpuOnlyEngine(model, cameras, config, enhanced=True)
