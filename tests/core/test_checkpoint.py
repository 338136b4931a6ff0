"""Checkpoint save/load: exact training resumption."""

import json

import numpy as np
import pytest

import repro
from repro.core.checkpoint import (
    CheckpointError,
    load_model,
    read_checkpoint,
    restore_into_engine,
    save_checkpoint,
)
from repro.core.config import EngineConfig
from repro.core.trainer import TrainerConfig
from repro.engines import CLMEngine, GpuOnlyEngine
from repro.gaussians.densify import DensifyConfig
from repro.gaussians.model import GaussianModel


@pytest.fixture()
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {
        c.view_id: img
        for c, img in zip(trainable_scene.cameras, trainable_scene.images)
    }
    return trainable_scene, init, targets


def test_model_roundtrip(tmp_path, setup):
    scene, init, targets = setup
    engine = CLMEngine(init, scene.cameras, EngineConfig(batch_size=4))
    engine.train_batch([0, 1, 2, 3], targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, engine, batches_trained=1)
    model, meta = load_model(path)
    trained = engine.snapshot_model()
    for name in trained.parameters():
        np.testing.assert_array_equal(
            model.parameters()[name], trained.parameters()[name]
        )
    assert meta["batches_trained"] == 1
    assert meta["engine"] == "CLMEngine"


def make_engine(engine_type, model, cameras, ordering="tsp"):
    config = EngineConfig(batch_size=4, ordering=ordering)
    if engine_type == "clm":
        return CLMEngine(model, cameras, config)
    return GpuOnlyEngine(model, cameras, config, enhanced=True)


@pytest.mark.parametrize("ordering", ["tsp", "random", "camera"])
@pytest.mark.parametrize("engine_type", ["clm", "enhanced"])
def test_resume_is_bit_exact(tmp_path, setup, engine_type, ordering):
    """train(4 batches) == train(2) -> save -> load -> train(2), to the
    bit: the file carries the RNG stream the planner orders batches by."""
    scene, init, targets = setup
    batches = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 1, 3], [0, 2, 5, 7]]

    def make(model):
        return make_engine(engine_type, model, scene.cameras, ordering)

    straight = make(init)
    for b in batches:
        straight.train_batch(b, targets)

    first = make(init)
    for b in batches[:2]:
        first.train_batch(b, targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, first, batches_trained=2)

    model, meta = load_model(path)
    resumed = make(model)
    restore_into_engine(path, resumed)
    for b in batches[2:]:
        resumed.train_batch(b, targets)

    a = straight.snapshot_model()
    b = resumed.snapshot_model()
    for name in a.parameters():
        np.testing.assert_array_equal(
            a.parameters()[name], b.parameters()[name], err_msg=name
        )
    assert resumed._rng.bit_generator.state == straight._rng.bit_generator.state


def test_restore_rejects_mismatched_size(tmp_path, setup):
    scene, init, targets = setup
    engine = CLMEngine(init, scene.cameras, EngineConfig(batch_size=4))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, engine)
    smaller = CLMEngine(init.gather(np.arange(init.num_gaussians - 2)),
                        scene.cameras, EngineConfig(batch_size=4))
    with pytest.raises(ValueError, match="Gaussians"):
        restore_into_engine(path, smaller)


def test_optimizer_state_restored(tmp_path, setup):
    scene, init, targets = setup
    engine = CLMEngine(init, scene.cameras, EngineConfig(batch_size=4))
    engine.train_batch([0, 1, 2, 3], targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, engine)
    fresh = CLMEngine(load_model(path)[0], scene.cameras,
                      EngineConfig(batch_size=4))
    assert not np.any(fresh.adam_noncritical.steps)  # fresh optimizer
    restore_into_engine(path, fresh)
    np.testing.assert_array_equal(
        fresh.adam_noncritical.steps, engine.adam_noncritical.steps
    )
    for name in engine.adam_critical.m:
        np.testing.assert_array_equal(
            fresh.adam_critical.m[name], engine.adam_critical.m[name]
        )


def test_a_refused_restore_writes_nothing(tmp_path, setup):
    """A ``clm`` file into an ``enhanced`` engine of the same N lacks the
    engine's optimizer arrays: refused before any parameter is written."""
    scene, init, targets = setup
    source = make_engine("clm", init, scene.cameras)
    source.train_batch([0, 1, 2, 3], targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, source)
    target = make_engine("enhanced", init, scene.cameras)
    before = target.snapshot_model().parameters()
    with pytest.raises(CheckpointError, match="missing optimizer array"):
        restore_into_engine(path, target)
    after = target.snapshot_model().parameters()
    for name in before:
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)
    opt = target.optimizer  # still as constructed: all zeros
    assert not opt.steps.any()
    assert not any(a.any() for a in [*opt.m.values(), *opt.v.values()])


def test_a_version_2_file_still_restores(tmp_path, setup):
    """A version-2 file (no RNG state) restores parameters and optimizer
    state; the engine keeps the RNG stream it was constructed with."""
    scene, init, targets = setup
    engine = make_engine("clm", init, scene.cameras)
    engine.train_batch([0, 1, 2, 3], targets)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, engine, batches_trained=1)
    arrays, meta = read_checkpoint(path)
    meta["version"] = 2
    del meta["rng"]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    fresh = make_engine("clm", load_model(path)[0], scene.cameras)
    constructed = fresh._rng.bit_generator.state
    assert restore_into_engine(path, fresh)["version"] == 2
    assert fresh._rng.bit_generator.state == constructed
    np.testing.assert_array_equal(
        fresh.snapshot_model().positions, engine.snapshot_model().positions
    )
    for name, opt in engine.optimizers().items():
        got = fresh.optimizers()[name].state_arrays()
        for key, arr in opt.state_arrays().items():
            np.testing.assert_array_equal(got[key], arr, err_msg=f"{name}.{key}")


@pytest.mark.parametrize("densify", [False, True], ids=["plain", "densify"])
def test_a_resumed_session_continues_the_uninterrupted_run(
    tmp_path, trainable_scene, densify
):
    """3 batches, checkpoint, a fresh session from ``load_model`` restores
    and trains 3 more: the losses and the parameter bits of one 6-batch
    session (the file carries the sampler and the densify accumulators)."""
    trainer = dict(batch_size=4, seed=0, eval_every=0)
    if densify:
        trainer.update(densify_every=2, densify_start=1)

    def session(initial_model=None):
        return repro.session(
            trainable_scene, engine="clm",
            config=EngineConfig(batch_size=4, seed=0),
            trainer_config=TrainerConfig(**trainer),
            densify_config=DensifyConfig(grad_threshold=1e-7, max_gaussians=400),
            initial_model=initial_model,
        )

    straight = session()
    straight.train(batches=6)
    first = session()
    first.train(batches=3)
    path = str(tmp_path / "session.npz")
    first.checkpoint(path)
    resumed = session(load_model(path)[0])
    resumed.restore(path)
    resumed.train(batches=3)

    assert first.metrics.losses + resumed.metrics.losses == straight.metrics.losses
    counts = first.metrics.gaussian_counts + resumed.metrics.gaussian_counts
    assert counts == straight.metrics.gaussian_counts
    if densify:
        assert len(set(counts)) > 1  # densification rebuilt the stores
    want = straight.snapshot_model().parameters()
    got = resumed.snapshot_model().parameters()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
