"""TrainingSession facade: train/evaluate/checkpoint/metrics."""

from unittest import mock

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.core.trainer import TrainerConfig
from repro.engines import BatchResult, TrainingSession, UnknownEngineError
from test_view_floor import record_forward


def make_session(scene, engine="clm", **kwargs):
    return repro.session(
        scene,
        engine=engine,
        config=EngineConfig(batch_size=5, seed=0),
        trainer_config=TrainerConfig(batch_size=5, seed=0, num_batches=4),
        **kwargs,
    )


def test_session_smoke(trainable_scene):
    sess = make_session(trainable_scene)
    assert isinstance(sess, TrainingSession)
    sess.train()
    assert sess.batches_trained == 4
    assert len(sess.metrics.losses) == 4
    assert np.isfinite(sess.metrics.final_psnr)
    assert sess.metrics.loaded_bytes > 0  # CLM reports transfer volume


@pytest.mark.parametrize("backend", [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not repro.kernels.get_backend("native").available(),
        reason="no C compiler here",
    )),
])
def test_a_training_session_plans_every_batch(backend):
    """Training builds each batch's plan for it, even when batches repeat:
    with 4 views and batch 4 every batch holds the same views, and under
    the default ``tsp`` ordering a memoized plan would skip the
    ``plan_batch`` op's RNG draw, so the trained bits would depend on a
    cache's size."""
    scene = repro.make_trainable_scene(
        reference_gaussians=60, num_views=4, image_size=(16, 12), seed=0
    )
    sess = repro.session(
        scene,
        config=EngineConfig(batch_size=4, seed=0, kernel_backend=backend),
        trainer_config=TrainerConfig(batch_size=4, seed=0, num_batches=24),
    )
    sess.train()
    assert sess.config.ordering == "tsp"
    stats = sess.planner.stats()
    assert stats["requests"] >= 24
    assert stats["plans_built"] == stats["requests"]
    assert stats["cache_hits"] == 0


def test_session_unknown_engine(trainable_scene):
    with pytest.raises(UnknownEngineError, match="choose from"):
        make_session(trainable_scene, engine="bogus")


def test_session_train_accumulates_across_calls(trainable_scene):
    sess = make_session(trainable_scene)
    sess.train(batches=3)
    sess.train(batches=2)
    assert sess.batches_trained == 5
    assert len(sess.metrics.losses) == 5
    # Eval batch indices keep counting up across calls.
    assert sess.metrics.eval_batches == [3, 5]


def test_session_split_train_matches_single_run(trainable_scene):
    """Incremental train() calls continue the absolute step timeline:
    schedules see global steps and the config is never mutated, so
    3+3 batches equals one 6-batch run exactly."""
    from repro.optim.schedule import ExponentialDecay

    def build():
        return repro.session(
            trainable_scene,
            config=EngineConfig(batch_size=5, seed=0),
            trainer_config=TrainerConfig(
                batch_size=5, seed=0, num_batches=6,
                position_lr_decay=ExponentialDecay(2e-4, 2e-6, 6),
            ),
        )

    single = build()
    single.train()
    split = build()
    split.train(batches=3)
    split.train(batches=3)
    np.testing.assert_array_equal(single.metrics.losses, split.metrics.losses)
    # train(batches=...) must not clobber the configured default.
    assert split._trainer.config.num_batches == 6


def test_session_training_reduces_loss(trainable_scene):
    sess = make_session(trainable_scene)
    sess.train(batches=14)
    assert np.mean(sess.metrics.losses[-3:]) < np.mean(sess.metrics.losses[:3])


def test_session_train_batch_low_level(trainable_scene):
    sess = make_session(trainable_scene)
    result = sess.train_batch([0, 1, 2, 3])
    assert isinstance(result, BatchResult)
    assert np.isfinite(result.loss)
    assert sess.batches_trained == 1
    assert sess.metrics.losses == [result.loss]


def test_session_evaluate_and_render(trainable_scene):
    sess = make_session(trainable_scene, engine="enhanced")
    value = sess.evaluate()
    assert 3.0 < value < 60.0
    image = sess.render_view(0).image
    assert np.isfinite(image).all()
    assert sess.snapshot_model().num_gaussians == sess.num_gaussians


@pytest.mark.parametrize("capacity", [None, 1e12], ids=["unpooled", "pooled"])
def test_session_evaluate_is_the_engines_evaluate(trainable_scene, capacity, monkeypatch):
    """``TrainingSession.evaluate()`` renders on the engine's backend and
    forward-only settings — a ``numpy`` engine makes no ``native`` call and
    keeps no blend state, pooled or not — and scores what
    ``engine.evaluate`` over every view does."""
    from repro.kernels import get_backend, native_backend

    sess = repro.session(
        trainable_scene, engine="clm",
        config=EngineConfig(
            batch_size=4, seed=0, kernel_backend="numpy", gpu_capacity_bytes=capacity
        ),
        trainer_config=TrainerConfig(batch_size=4, seed=0),
    )
    sess.train(batches=2)
    native = {}
    if get_backend("native").available():
        lib = get_backend("native").library().load()
        for entry in native_backend._OPERANDS:
            native[entry] = mock.Mock(wraps=getattr(lib, entry))
            monkeypatch.setattr(lib, entry, native[entry])
    calls = record_forward(monkeypatch)
    value = sess.evaluate()
    assert not [entry for entry, spy in native.items() if spy.called]
    assert len(calls) == len(trainable_scene.cameras)
    assert all(used == "numpy" and not settings.cache_blend_state
               for used, _, _, settings, *_ in calls)
    views = [c.view_id for c in trainable_scene.cameras]
    assert value == sess.engine.evaluate(views, sess.targets())


def test_session_checkpoint_roundtrip(tmp_path, trainable_scene):
    path = str(tmp_path / "session.npz")
    sess = make_session(trainable_scene)
    sess.train(batches=3)
    sess.checkpoint(path)
    ref = sess.snapshot_model()

    fresh = make_session(trainable_scene)
    meta = fresh.restore(path)
    assert meta["batches_trained"] == 3
    assert fresh.batches_trained == 3
    restored = fresh.snapshot_model()
    for name in ref.parameters():
        np.testing.assert_array_equal(
            restored.parameters()[name], ref.parameters()[name]
        )


@pytest.mark.parametrize("engine", repro.available_engines())
def test_a_restored_session_trains_the_next_batch_to_the_same_loss(
        tmp_path, trainable_scene, engine):
    path = str(tmp_path / "session.npz")
    sess = make_session(trainable_scene, engine=engine)
    sess.train(batches=2)
    sess.checkpoint(path)
    resumed = make_session(trainable_scene, engine=engine)
    resumed.restore(path)
    loss = sess.train(batches=1).losses[-1]
    assert resumed.train(batches=1).losses[-1] == loss
    assert resumed.batches_trained == sess.batches_trained == 3


def test_session_all_engines_constructible(trainable_scene):
    for name in repro.available_engines():
        sess = make_session(trainable_scene, engine=name)
        assert sess.engine_name == name
        assert sess.num_gaussians > 0
