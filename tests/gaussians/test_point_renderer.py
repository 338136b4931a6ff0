"""Alternative rendering backend (§8 backend-agnosticism)."""

import numpy as np
import pytest

from repro.gaussians.camera import look_at_camera
from repro.gaussians.loss import l1_loss
from repro.gaussians.model import GaussianModel
from point_renderer import point_render, point_render_backward


@pytest.fixture(scope="module")
def setup():
    model = GaussianModel.random(25, extent=0.5, sh_degree=1, seed=4)
    cam = look_at_camera(eye=(0.2, -2.0, 0.4), target=(0, 0, 0),
                         width=28, height=22, view_id=0)
    target = np.random.default_rng(0).uniform(0, 1, (22, 28, 3))
    return model, cam, target


def test_forward_shape_and_range(setup):
    model, cam, _ = setup
    result = point_render(cam, model)
    assert result.image.shape == (22, 28, 3)
    assert np.isfinite(result.image).all()
    assert result.num_rendered > 0


def test_empty_model_black(setup):
    model, cam, _ = setup
    empty = model.gather(np.array([], dtype=np.int64))
    result = point_render(cam, empty)
    assert not np.any(result.image)


def test_subset_matches_full(setup):
    """The §5.1 property the engines rely on, for this backend too."""
    from repro.gaussians.frustum import cull_gaussians

    model, cam, _ = setup
    s = cull_gaussians(cam, model.positions, model.log_scales,
                       model.quaternions)
    full = point_render(cam, model).image
    sub = point_render(cam, model.gather(s)).image
    np.testing.assert_allclose(full, sub, atol=1e-12)


@pytest.mark.parametrize("param", ["positions", "log_scales", "sh",
                                   "opacity_logits"])
def test_gradients_match_fd(setup, param):
    model, cam, target = setup

    def loss_of():
        return l1_loss(point_render(cam, model).image, target)[0]

    result = point_render(cam, model)
    _, g_img = l1_loss(result.image, target)
    grads = point_render_backward(result, model, g_img)
    flat = model.parameters()[param].reshape(-1)
    gflat = grads[param].reshape(-1)
    eps = 1e-6
    rng = np.random.default_rng(hash(param) % 2**31)
    checked = 0
    for i in rng.permutation(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_of()
        flat[i] = orig - eps
        lm = loss_of()
        flat[i] = orig
        fd = (lp - lm) / (2 * eps)
        # Skip entries whose FD crosses the radius gate (max(r, 0.5)).
        if abs(fd) < 1e-12 and abs(gflat[i]) < 1e-12:
            checked += 1
            continue
        if gflat[i] == pytest.approx(fd, rel=5e-3, abs=2e-6):
            checked += 1
        if checked >= 5:
            break
    assert checked >= 5


def test_quaternion_gradient_zero(setup):
    """Isotropic splats cannot see orientation."""
    model, cam, target = setup
    result = point_render(cam, model)
    _, g_img = l1_loss(result.image, target)
    grads = point_render_backward(result, model, g_img)
    assert not np.any(grads["quaternions"])


def test_clm_equivalence_under_alternative_backend(trainable_scene):
    """§8's claim, end to end: swap the renderer, offloading stays
    invisible — CLM == enhanced baseline under the point backend."""
    from repro.core.config import EngineConfig
    from repro.engines import create_engine

    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {c.view_id: img for c, img in
               zip(trainable_scene.cameras, trainable_scene.images)}

    def cfg():
        return EngineConfig(batch_size=4, seed=0,
                            renderer=point_render,
                            renderer_backward=point_render_backward)

    clm = create_engine("clm", init, trainable_scene.cameras, cfg())
    base = create_engine("enhanced", init, trainable_scene.cameras, cfg())
    for batch in ([0, 1, 2, 3], [4, 5, 6, 7]):
        r1 = clm.train_batch(batch, targets)
        r2 = base.train_batch(batch, targets)
        assert r1.loss == pytest.approx(r2.loss, abs=1e-12)
    a, b = clm.snapshot_model(), base.snapshot_model()
    for name in a.parameters():
        np.testing.assert_allclose(a.parameters()[name],
                                   b.parameters()[name], atol=1e-10)


def test_point_backend_trains(trainable_scene):
    """The alternative backend actually reduces loss through the trainer."""
    from repro.core.config import EngineConfig
    from repro.core.trainer import Trainer, TrainerConfig

    trainer = Trainer(
        trainable_scene,
        engine_type="clm",
        engine_config=EngineConfig(batch_size=5, seed=0,
                                   renderer=point_render,
                                   renderer_backward=point_render_backward),
        trainer_config=TrainerConfig(num_batches=10, batch_size=5, seed=0),
    )
    history = trainer.train()
    assert np.mean(history.losses[-3:]) < np.mean(history.losses[:3])
