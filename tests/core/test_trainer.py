"""Trainer loop: batching, densification integration, evaluation."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.trainer import Trainer, TrainerConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.model import GaussianModel


def make_trainer(scene, engine_type="clm", **trainer_kwargs):
    tc = TrainerConfig(batch_size=5, seed=0, **trainer_kwargs)
    return Trainer(
        scene,
        engine_type=engine_type,
        engine_config=EngineConfig(batch_size=5, seed=0),
        trainer_config=tc,
    )


def test_trainer_constructs_every_registered_engine(trainable_scene):
    model = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1,
    )
    for name in available_engines():
        engine = create_engine(name, model, trainable_scene.cameras,
                               EngineConfig(batch_size=2))
        assert engine.num_gaussians == model.num_gaussians
    with pytest.raises(ValueError):
        create_engine("bogus", model, trainable_scene.cameras, EngineConfig())
    with pytest.raises(ValueError):
        Trainer(trainable_scene, engine_type="bogus")


def test_training_reduces_loss(trainable_scene):
    trainer = make_trainer(trainable_scene, num_batches=14)
    history = trainer.train()
    early = np.mean(history.losses[:3])
    late = np.mean(history.losses[-3:])
    assert late < early


def test_training_improves_psnr(trainable_scene):
    trainer = make_trainer(trainable_scene, num_batches=2, eval_every=1)
    h_short = trainer.train()
    trainer2 = make_trainer(trainable_scene, num_batches=16, eval_every=16)
    h_long = trainer2.train()
    assert h_long.final_psnr > h_short.psnrs[0]


def test_history_records_everything(trainable_scene):
    trainer = make_trainer(trainable_scene, num_batches=4, eval_every=2)
    h = trainer.train()
    assert len(h.losses) == 4
    assert len(h.gaussian_counts) == 4
    assert h.eval_batches[-1] == 4
    assert h.loaded_bytes > 0  # CLM engine reports transfer volume


def test_densification_grows_model(trainable_scene):
    trainer = make_trainer(
        trainable_scene, num_batches=8, densify_every=3, densify_start=1,
    )
    # Force aggressive densification so the structure change actually runs.
    trainer.densify_config.grad_threshold = 1e-7
    h = trainer.train()
    assert h.gaussian_counts[-1] != h.gaussian_counts[0]


def test_densification_keeps_training_stable(trainable_scene):
    trainer = make_trainer(
        trainable_scene, num_batches=10, densify_every=4, densify_start=1,
    )
    trainer.densify_config.grad_threshold = 1e-7
    h = trainer.train()
    assert all(np.isfinite(loss) for loss in h.losses)
    assert np.isfinite(h.final_psnr)


def test_batches_cycle_through_views(trainable_scene):
    trainer = make_trainer(trainable_scene, num_batches=2)
    seen = set()
    b1 = trainer._next_batch()
    b2 = trainer._next_batch()
    seen.update(b1, b2)
    # 2 batches x 5 views covers the whole 10-view epoch without repeats.
    assert len(seen) == 10


def test_deterministic_history(trainable_scene):
    h1 = make_trainer(trainable_scene, num_batches=5).train()
    h2 = make_trainer(trainable_scene, num_batches=5).train()
    np.testing.assert_allclose(h1.losses, h2.losses)


def test_opacity_reset_applied(trainable_scene):
    from repro.gaussians.model import sigmoid

    trainer = make_trainer(trainable_scene, num_batches=3,
                           opacity_reset_every=3,
                           opacity_reset_ceiling=0.05)
    trainer.train()
    model = trainer.engine.snapshot_model()
    # The reset fired on the final batch; nothing can exceed the ceiling
    # by more than the (tiny) last evaluation-only margin.
    assert sigmoid(model.opacity_logits).max() <= 0.05 + 1e-9


def test_opacity_reset_preserves_equivalence(trainable_scene):
    h_clm = make_trainer(trainable_scene, num_batches=6,
                         opacity_reset_every=2).train()
    h_base = make_trainer(trainable_scene, engine_type="enhanced",
                          num_batches=6, opacity_reset_every=2).train()
    np.testing.assert_allclose(h_clm.losses, h_base.losses, atol=1e-10)


def test_baseline_and_clm_same_history(trainable_scene):
    """Trainer-level equivalence: identical losses batch by batch."""
    h_clm = make_trainer(trainable_scene, num_batches=6).train()
    h_base = make_trainer(trainable_scene, engine_type="enhanced",
                          num_batches=6).train()
    np.testing.assert_allclose(h_clm.losses, h_base.losses, atol=1e-10)
    assert h_clm.final_psnr == pytest.approx(h_base.final_psnr, abs=1e-8)


def test_densify_state_accumulates_as_linalg_norm_did(trainable_scene):
    """``densify_state`` after a densifying ``train`` is the accumulation of
    ``np.linalg.norm(g, axis=1)`` over every hook call since the last
    densification, bit for bit."""
    trainer = make_trainer(
        trainable_scene, num_batches=7, densify_every=3, densify_start=1,
    )
    trainer.densify_config.grad_threshold = 1e-7
    calls, record = [], trainer._record_grads

    def hook(view_id, rows, grads):
        calls.append((trainer.densify_state, rows.copy(), np.array(grads)))
        record(view_id, rows, grads)

    trainer._record_grads = hook
    trainer.train()
    state = trainer.densify_state
    since = [(rows, grads) for owner, rows, grads in calls if owner is state]
    assert since and len(since) < len(calls)  # densified, then recorded again
    accum = np.zeros(state.grad_accum.shape)
    count = np.zeros(state.grad_count.shape, dtype=np.int64)
    for rows, grads in since:
        np.add.at(accum, rows, np.linalg.norm(grads, axis=1))
        np.add.at(count, rows, 1)
    assert np.array_equal(state.grad_accum, accum)
    assert np.array_equal(state.grad_count, count)


@pytest.mark.parametrize("engine_type", ["clm", "enhanced"])
def test_without_densification_no_batch_runs_the_hook(trainable_scene, engine_type, monkeypatch):
    """``densify_every == 0``: nothing reads ``densify_state``, so neither
    ``Trainer.train`` nor ``TrainingSession.train_batch`` hands the engine
    the densify hook."""
    from repro.engines.session import TrainingSession

    sess = TrainingSession(
        trainable_scene, engine=engine_type, config=EngineConfig(batch_size=5, seed=0),
        trainer_config=TrainerConfig(batch_size=5, seed=0, num_batches=2),
    )
    trainer, hooks = sess._trainer, []
    monkeypatch.setattr(trainer, "_record_grads", lambda *args: hooks.append(args))
    train_batch = trainer.engine.train_batch

    def spy(view_ids, targets, position_grad_hook=None):
        hooks.append(position_grad_hook)
        return train_batch(view_ids, targets, position_grad_hook)

    monkeypatch.setattr(trainer.engine, "train_batch", spy)
    sess.train(2)
    sess.train_batch([0, 1, 2, 3, 4])
    assert hooks == [None, None, None]
    assert not trainer.densify_state.grad_count.any()
    getattr(sess.engine, "close", lambda: None)()
