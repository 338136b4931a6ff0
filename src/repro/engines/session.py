"""`TrainingSession` — the documented front door for functional training.

One object wraps scene setup, engine construction (by registry name), the
batch loop with densification/schedules, evaluation, and checkpointing::

    import repro

    sess = repro.session(scene, engine="clm")
    sess.train(batches=50)
    print(sess.metrics.final_psnr)
    sess.checkpoint("run.npz")

``TrainingSession`` keeps *cumulative* metrics across multiple ``train``
calls (batch indices keep counting up), and exposes the low-level
``train_batch(view_ids)`` step for experiments that pin exact batches —
the functional-equivalence tests drive all four engines through this path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.checkpoint import restore_into_engine, save_checkpoint
from repro.engines.base import BatchResult, Engine
from repro.gaussians.model import GaussianModel


class TrainingSession:
    """Facade over :class:`repro.core.trainer.Trainer` and the registry."""

    def __init__(
        self,
        scene,
        engine: str = "clm",
        config=None,
        *,
        trainer_config=None,
        densify_config=None,
        initial_model: Optional[GaussianModel] = None,
        sh_degree: int = 1,
    ) -> None:
        # Local import: repro.core.trainer consumes the registry at engine
        # construction time, so importing it at module scope would close an
        # import cycle through repro.engines.__init__.
        from repro.core.trainer import Trainer, TrainingHistory

        self._trainer = Trainer(
            scene,
            engine_type=engine,
            engine_config=config,
            trainer_config=trainer_config,
            densify_config=densify_config,
            initial_model=initial_model,
            sh_degree=sh_degree,
        )
        self.engine_name = engine
        self.metrics = TrainingHistory()
        self.batches_trained = 0

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        """The live engine instance (an :class:`Engine`)."""
        return self._trainer.engine

    @property
    def scene(self):
        return self._trainer.scene

    @property
    def config(self):
        return self._trainer.engine_config

    @property
    def num_gaussians(self) -> int:
        return self.engine.num_gaussians

    @property
    def perf(self):
        """The engine's cumulative :class:`repro.engines.base.PerfCounters`
        (wall time, throughput, transfer volume) — what the benchmark
        subsystem reads into a ``BenchRecord``."""
        return self.engine.perf

    @property
    def planner(self):
        """The engine's :class:`repro.planning.BatchPlanner` — inspect
        ``sess.planner.counters`` for the plans built and the planning
        time."""
        return self.engine.planner

    @property
    def tuner(self):
        """The engine's :class:`repro.autotune.AutoTuner`, or ``None``
        when the engine doesn't auto-tune (``config.autotune`` off, or an
        engine without an adaptive runtime).  ``sess.tuner.summary()``
        reports prediction error and the most-chosen configuration."""
        return getattr(self.engine, "tuner", None)

    # ------------------------------------------------------------------
    def train(self, batches: Optional[int] = None):
        """Run ``batches`` training batches (default: the trainer config's
        ``num_batches``, which is never mutated) and fold the results into
        :attr:`metrics`.

        Incremental calls continue the same absolute step timeline —
        learning-rate schedules, densification windows, and opacity resets
        behave as in one uninterrupted run, and eval batch indices keep
        counting up.  Returns the history of *this* call.
        """
        count = (
            self._trainer.config.num_batches if batches is None else batches
        )
        history = self._trainer.train(
            num_batches=count, start_step=self.batches_trained
        )
        self.metrics.losses.extend(history.losses)
        self.metrics.gaussian_counts.extend(history.gaussian_counts)
        self.metrics.psnrs.extend(history.psnrs)
        self.metrics.eval_batches.extend(history.eval_batches)
        self.metrics.loaded_bytes += history.loaded_bytes
        self.metrics.stored_bytes += history.stored_bytes
        self.metrics.wall_time_s += history.wall_time_s
        self.batches_trained += count
        return history

    def train_batch(self, view_ids: Sequence[int]) -> BatchResult:
        """One engine step over explicit ``view_ids`` (targets come from
        the scene), bypassing batch sampling and densification."""
        result = self.engine.train_batch(
            list(view_ids),
            self._trainer.targets,
            position_grad_hook=self._trainer._densify_hook(),
        )
        self.metrics.losses.append(result.loss)
        self.metrics.gaussian_counts.append(self.engine.num_gaussians)
        self.metrics.loaded_bytes += result.loaded_bytes
        self.metrics.stored_bytes += result.stored_bytes
        self.metrics.wall_time_s += result.wall_time_s
        self.batches_trained += 1
        return result

    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Mean PSNR over the scene's training views (Figure 9 metric)."""
        return self._trainer.evaluate()

    def render_view(self, view_id: int):
        """Render one training view through the engine's inference path."""
        return self.engine.render_view(view_id)

    def snapshot_model(self) -> GaussianModel:
        return self.engine.snapshot_model()

    def targets(self) -> Dict[int, np.ndarray]:
        """Ground-truth images by view id."""
        return dict(self._trainer.targets)

    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Serialize model + optimizer state to ``path`` (.npz)."""
        save_checkpoint(path, self.engine, batches_trained=self.batches_trained)

    def restore(self, path: str) -> dict:
        """Load a checkpoint saved from an engine of the same shape."""
        meta = restore_into_engine(path, self.engine)
        self.batches_trained = int(meta.get("batches_trained", 0))
        return meta


def session(
    scene,
    engine: str = "clm",
    config=None,
    **kwargs,
) -> TrainingSession:
    """Create a :class:`TrainingSession` — the recommended entry point.

    ``engine`` is a registry name (see
    :func:`repro.engines.available_engines`); ``config`` an optional
    :class:`repro.core.config.EngineConfig`.  Remaining keyword arguments
    are forwarded to :class:`TrainingSession`.
    """
    return TrainingSession(scene, engine=engine, config=config, **kwargs)
