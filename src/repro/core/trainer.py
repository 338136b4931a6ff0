"""The training loop: batches, densification, evaluation.

This plays the role Grendel plays for the paper's artifact — the framework
CLM plugs into (§5).  Any engine registered with
:mod:`repro.engines.registry` slots in behind the same
:class:`repro.engines.base.Engine` interface, which is what makes the
functional-equivalence tests and the Figure 9 quality experiment
straightforward to express.  Engines are constructed by *name* only —
this module deliberately imports no engine classes.

Prefer the :class:`repro.engines.session.TrainingSession` facade
(``repro.session(scene, engine="clm")``) for new code; ``Trainer`` remains
the loop implementation underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import EngineConfig
from repro.gaussians.densify import (
    DensificationState,
    DensifyConfig,
    densify_and_prune,
)
from repro.gaussians.model import GaussianModel
from repro.optim.schedule import ExponentialDecay, ShWarmup
from repro.scenes.images import TrainableScene
from repro.utils.rng import make_rng


@dataclass
class TrainerConfig:
    """Loop-level knobs (engine-level ones live in EngineConfig)."""

    num_batches: int = 50
    batch_size: int = 4
    densify_every: int = 0  # 0 disables densification
    densify_start: int = 10
    densify_stop: int = 10_000
    max_gaussians: Optional[int] = None
    eval_every: int = 0  # 0 = evaluate only at the end
    seed: int = 0
    # Reference-3DGS training schedule features: exponential position-lr
    # decay, progressive SH-degree warm-up, and periodic opacity reset
    # (clamp opacities down so stale Gaussians must re-earn contribution
    # or get pruned — §2.1's densify/prune companion trick).
    position_lr_decay: Optional["ExponentialDecay"] = None
    sh_warmup: Optional["ShWarmup"] = None
    opacity_reset_every: int = 0  # 0 disables
    opacity_reset_ceiling: float = 0.1


@dataclass
class TrainingHistory:
    losses: List[float] = field(default_factory=list)
    psnrs: List[float] = field(default_factory=list)
    eval_batches: List[int] = field(default_factory=list)
    gaussian_counts: List[int] = field(default_factory=list)
    loaded_bytes: float = 0.0
    stored_bytes: float = 0.0
    #: Summed wall-clock time of the engine's train_batch calls (eval and
    #: densification time excluded — this is the throughput denominator).
    wall_time_s: float = 0.0

    @property
    def final_psnr(self) -> float:
        return self.psnrs[-1] if self.psnrs else float("nan")


class Trainer:
    """Fits a Gaussian model to a :class:`TrainableScene`."""

    def __init__(
        self,
        scene: TrainableScene,
        engine_type: str = "clm",
        engine_config: Optional[EngineConfig] = None,
        trainer_config: Optional[TrainerConfig] = None,
        densify_config: Optional[DensifyConfig] = None,
        initial_model: Optional[GaussianModel] = None,
        sh_degree: int = 1,
    ) -> None:
        self.scene = scene
        self.config = trainer_config or TrainerConfig()
        self.engine_config = engine_config or EngineConfig(
            batch_size=self.config.batch_size
        )
        self.densify_config = densify_config or DensifyConfig(
            max_gaussians=self.config.max_gaussians
        )
        self.engine_type = engine_type
        if initial_model is None:
            initial_model = GaussianModel.from_point_cloud(
                scene.init_points,
                colors=scene.init_colors,
                sh_degree=sh_degree,
                seed=self.config.seed,
            )
        # Local import: repro.engines.session imports this module, so a
        # module-scope import of repro.engines would close an import cycle.
        from repro.engines.registry import create_engine

        self.engine = create_engine(
            engine_type, initial_model, scene.cameras, self.engine_config
        )
        self.targets: Dict[int, np.ndarray] = {
            cam.view_id: img for cam, img in zip(scene.cameras, scene.images)
        }
        self._rng = make_rng(self.config.seed)
        self._pool: List[int] = []
        self.densify_state = DensificationState(self.engine.num_gaussians)

    # ------------------------------------------------------------------
    def _next_batch(self) -> List[int]:
        ids = [cam.view_id for cam in self.scene.cameras]
        if len(self._pool) < self.config.batch_size:
            self._pool = self._rng.permutation(ids).tolist()
        return [self._pool.pop() for _ in range(self.config.batch_size)]

    def evaluate(self) -> float:
        """Mean PSNR over the training views (the Figure 9 metric): the
        engine's ``evaluate``, on its renderer, settings and backend."""
        return self.engine.evaluate([c.view_id for c in self.scene.cameras], self.targets)

    # ------------------------------------------------------------------
    def _apply_schedules(self, step: int) -> None:
        """Per-batch schedule updates (shared AdamConfig / RasterSettings
        objects, so all engine internals observe the change)."""
        cfg = self.config
        if cfg.position_lr_decay is not None:
            self.engine_config.adam.lr_overrides["positions"] = (
                cfg.position_lr_decay.value(step)
            )
        if cfg.sh_warmup is not None:
            self.engine_config.raster.active_sh_degree = (
                cfg.sh_warmup.degree(step)
            )

    def train(
        self,
        num_batches: Optional[int] = None,
        start_step: int = 0,
    ) -> TrainingHistory:
        """Run ``num_batches`` batches (default: the config value).

        ``start_step`` offsets the global step counter so resumed /
        incremental runs (the ``TrainingSession`` facade) keep schedules,
        densification windows, and opacity resets on the same absolute
        timeline as one uninterrupted run.  Recorded ``eval_batches`` are
        absolute steps.  Neither argument mutates ``self.config``.
        """
        history = TrainingHistory()
        cfg = self.config
        total = cfg.num_batches if num_batches is None else num_batches
        last_step = start_step + total
        for step in range(start_step + 1, last_step + 1):
            self._apply_schedules(step - 1)
            batch = self._next_batch()
            result = self.engine.train_batch(
                batch, self.targets, position_grad_hook=self._densify_hook()
            )
            history.losses.append(result.loss)
            history.gaussian_counts.append(self.engine.num_gaussians)
            # Unified BatchResult: non-offload engines report zero bytes.
            history.loaded_bytes += result.loaded_bytes
            history.stored_bytes += result.stored_bytes
            history.wall_time_s += result.wall_time_s

            if (
                cfg.densify_every
                and cfg.densify_start <= step <= cfg.densify_stop
                and step % cfg.densify_every == 0
            ):
                self._densify()

            if cfg.opacity_reset_every and step % cfg.opacity_reset_every == 0:
                self._reset_opacity()

            if cfg.eval_every and step % cfg.eval_every == 0:
                history.psnrs.append(self.evaluate())
                history.eval_batches.append(step)
        if not history.eval_batches or history.eval_batches[-1] != last_step:
            history.psnrs.append(self.evaluate())
            history.eval_batches.append(last_step)
        return history

    def state(self) -> "tuple[Dict[str, np.ndarray], dict]":
        """What a resume needs of the loop besides the engine: the
        densification accumulators (live arrays) and the sampler's RNG state
        and unused views (JSON)."""
        densify = self.densify_state
        arrays = {"grad_accum": densify.grad_accum, "grad_count": densify.grad_count}
        return arrays, {"rng": self._rng.bit_generator.state, "pool": list(self._pool)}

    def load_state(self, arrays: Dict[str, np.ndarray], meta: dict) -> None:
        """Write :meth:`state` back, the arrays in place."""
        for key, arr in self.state()[0].items():
            arr[:] = arrays[key]
        self._rng.bit_generator.state = meta["rng"]
        self._pool = list(meta["pool"])

    def _densify_hook(self):
        """:meth:`_record_grads` while densification is on, else None:
        nothing reads :attr:`densify_state` then."""
        return self._record_grads if self.config.densify_every > 0 else None

    def _record_grads(self, view_id, working_set, position_grads) -> None:
        self.densify_state.record(np.asarray(position_grads), working_set)

    def _reset_opacity(self) -> None:
        """Clamp opacities down in place across whichever stores the engine
        uses (a structure-preserving edit: optimizer state is kept)."""
        from repro.gaussians.densify import reset_opacity

        model = self.engine.snapshot_model()
        reset_opacity(model, ceiling=self.config.opacity_reset_ceiling)
        origins = np.arange(model.num_gaussians)
        self.engine.rebuild(model, origins)

    def _densify(self) -> None:
        model = self.engine.snapshot_model()
        new_model, stats, origins = densify_and_prune(
            model, self.densify_state, self.densify_config, seed=self._rng
        )
        if stats.after == stats.before and stats.cloned == stats.split == 0:
            self.densify_state = DensificationState(stats.after)
            return
        self.engine.rebuild(new_model, origins)
        self.densify_state = DensificationState(new_model.num_gaussians)
