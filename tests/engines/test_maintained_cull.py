"""The maintained culling grid against a fresh cull, batch by batch.

``EngineBase.cull_views`` answers every batch from one culling grid kept
across batches and refit to the rows each Adam step reported
(:class:`repro.core.culling_index.CullingIndex`).  Here every
``cull_views`` call of long training runs is checked against a fresh
``cull_batch`` on the same arrays — ``array_equal``, every view, every
batch — for every engine family and both kernel backends, through the
events that replace or move rows without an Adam step: a densify/prune
``rebuild``, a checkpoint restore, a fail-stop recovery, a
``remove_device`` and a camera field assignment.  An ``evaluate`` culls
through the same grid, so an evaluation after every batch must train to
the same bits as none.

The renderer is a stand-in (``EngineConfig.renderer``): the index does not
look at images, and a pseudo-random gradient per row with a large learning
rate moves enough rows across frustum planes (and cell bounds) every batch
that a stale row or cell anywhere shows as a mismatch within a few
batches.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import culling_index
from repro.core.config import EngineConfig
from repro.core.culling_index import CullingIndex
from repro.core.trainer import TrainerConfig
from repro.engines.clm import CRITICAL
from repro.engines.session import TrainingSession
from repro.gaussians.camera import look_at_camera
from repro.gaussians.densify import DensifyConfig
from repro.gaussians.frustum import cull_batch
from repro.gaussians.model import GaussianModel
from repro.gaussians.spatial import CullingGrid
from repro.optim.adam import AdamConfig
from repro.resilience.faults import FaultEvent, FaultSchedule
from repro.scenes.datasets import build_scene
from repro.scenes.images import TrainableScene, make_trainable_scene

BACKENDS = ("numpy", "native")


def stand_in_render(camera, model, settings):
    return SimpleNamespace(
        image=np.zeros((camera.height, camera.width, 3)), num_rendered=model.num_gaussians
    )


def stand_in_backward(result, model, dL_dimage):
    """A gradient per row that depends on the row's own bits, so rows move
    in scattered directions and keep changing them (critical attributes
    only: nothing else reaches the cull)."""
    return {
        name: np.cos(7919.0 * arr) if name in CRITICAL else np.zeros_like(arr)
        for name, arr in model.parameters().items()
    }


def config(backend, **extra):
    return EngineConfig(
        batch_size=4,
        kernel_backend=backend,
        ssim_lambda=0.0,
        ordering="identity",
        adam=AdamConfig(lr=0.05),
        renderer=stand_in_render,
        renderer_backward=stand_in_backward,
        **extra,
    )


@pytest.fixture(scope="module")
def city():
    """A ``sparse``-regime scene: each view sees a few percent of rows."""
    scene = build_scene(
        "bigcity", scale=1e-5, num_views=16, image_size=(8, 6), seed=3
    )
    truth = scene.model
    rng = np.random.default_rng(0)
    trainable = TrainableScene(
        cameras=scene.cameras,
        images=[np.zeros((c.height, c.width, 3)) for c in scene.cameras],
        init_points=truth.positions,
        init_colors=np.zeros_like(truth.positions),
        reference=truth,
    )
    initial = GaussianModel(
        positions=truth.positions
        + 0.02 * rng.standard_normal(truth.positions.shape),
        log_scales=truth.log_scales,
        quaternions=truth.quaternions,
        sh=truth.sh,
        opacity_logits=truth.opacity_logits,
        sh_degree=truth.sh_degree,
    )
    return trainable, initial


@pytest.fixture()
def grid_events(monkeypatch):
    """What the maintained grids did — ``builds`` and ``refits`` — and the
    events that call for a build: a refresh over an array set (or backend)
    not seen before, a ``reset`` from outside ``refresh``, and a refit that
    left the grid bloated."""
    events = dict(builds=0, refits=0, array_sets=0, resets=0, bloats=0)
    seen, refreshing = [], []
    refresh, reset = CullingIndex.refresh, CullingIndex.reset

    class CountingGrid(CullingGrid):
        def __init__(self, *args, **kwargs):
            events["builds"] += 1
            super().__init__(*args, **kwargs)

        def refit(self, rows):
            events["refits"] += 1
            was = self.bloated
            super().refit(rows)
            events["bloats"] += self.bloated and not was

    def counting_refresh(self, cameras, *arrays, kernel_backend=None):
        key = (*arrays, kernel_backend)
        if not any(
            all(a is b for a, b in zip(key[:3], old[:3])) and key[3] == old[3]
            for old in seen
        ):
            seen.append(key)
            events["array_sets"] += 1
        refreshing.append(True)
        try:
            return refresh(self, cameras, *arrays, kernel_backend=kernel_backend)
        finally:
            refreshing.pop()

    def counting_reset(self):
        events["resets"] += not refreshing
        reset(self)

    monkeypatch.setattr(culling_index, "CullingGrid", CountingGrid)
    monkeypatch.setattr(CullingIndex, "refresh", counting_refresh)
    monkeypatch.setattr(CullingIndex, "reset", counting_reset)
    return events


def assert_built_only_when_due(events):
    """At most one build per array set, reset or bloat event."""
    due = events["array_sets"] + events["resets"] + events["bloats"]
    assert events["builds"] <= due, events


def check_every_cull(engine, backend):
    """Wrap ``engine.cull_views``: each call's sets must equal a fresh
    ``cull_batch`` over the engine's current arrays.  Returns the call
    log (one entry per call)."""
    calls = []
    maintained = engine.cull_views

    def cull_views(view_ids):
        sets = maintained(view_ids)
        fresh = cull_batch(
            [engine.cameras[v] for v in view_ids],
            *engine._culling_arrays(),
            kernel_backend=backend,
        )
        for vid, got, want in zip(view_ids, sets, fresh):
            assert np.array_equal(got, want), (
                f"view {vid} after {engine.batches_trained} batches: "
                f"{np.setxor1d(got, want).size} rows differ"
            )
        calls.append(len(view_ids))
        return sets

    engine.cull_views = cull_views
    return calls


def turn_the_first_camera(session):
    """Turn view 0, in place, toward a row that no view's frustum holds —
    so no Adam step has moved it lately and only the planes check can
    bring it into view 0's set.  The view keeps its id."""
    engine = session.engine
    cameras = session.scene.cameras
    arrays = engine._culling_arrays()
    seen = np.concatenate(cull_batch(cameras, *arrays))
    unseen = np.setdiff1d(np.arange(engine.num_gaussians), seen)
    eye = cameras[0].center
    far = np.linalg.norm(arrays[0][unseen] - eye, axis=1) > 5.0
    turned = look_at_camera(eye, arrays[0][unseen[far][0]])
    cameras[0].rotation = turned.rotation
    cameras[0].center = turned.center


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "engine", ["clm", "naive", "enhanced", "baseline", "clm_sharded"]
)
def test_maintained_sets_equal_a_fresh_cull_every_batch(
    engine, backend, city, grid_events, tmp_path
):
    scene, initial = city
    scene = copy.deepcopy(scene)  # the run assigns a camera field
    extra = {}
    if engine == "clm_sharded":
        extra = dict(
            num_devices=3,
            fault_schedule=FaultSchedule(
                events=(FaultEvent.fail_stop(batch=30, device=2),)
            ),
        )
    session = TrainingSession(
        scene,
        engine=engine,
        config=config(backend, **extra),
        trainer_config=TrainerConfig(
            batch_size=4, densify_every=50, densify_start=50,
            densify_stop=50, seed=1,
        ),
        densify_config=DensifyConfig(max_gaussians=initial.num_gaussians + 64),
        initial_model=initial,
    )
    calls = check_every_cull(session.engine, backend)
    n_before = session.num_gaussians

    session.train(50)  # densify/prune at step 50: a rebuild
    assert session.num_gaussians != n_before
    checkpoint = str(tmp_path / "mid.npz")
    session.checkpoint(checkpoint)
    session.train(30)
    session.restore(checkpoint)  # rows rewritten in place, no Adam step
    session.train(30)
    turn_the_first_camera(session)
    session.train(30)
    if engine == "clm_sharded":
        assert session.engine.alive == [0, 1]  # the fail-stop recovered
        session.engine.remove_device(1)
    session.train(60)

    assert len(calls) >= 200
    # The grid was refit, not rebuilt, between the events that replace it.
    assert grid_events["refits"] >= 100
    assert_built_only_when_due(grid_events)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dense_regime_sets_equal_a_fresh_cull_every_batch(backend, grid_events):
    """Every view sees most of a yard scene, so a batch moves most rows and
    the refit widens most cells: the sets still equal a fresh cull's."""
    scene = make_trainable_scene(
        reference_gaussians=120, num_views=8, image_size=(8, 6), seed=0
    )
    session = TrainingSession(
        scene, engine="clm", config=config(backend),
        trainer_config=TrainerConfig(batch_size=4, seed=1),
    )
    calls = check_every_cull(session.engine, backend)
    session.train(30)
    assert len(calls) >= 30
    assert grid_events["refits"] >= 20
    assert_built_only_when_due(grid_events)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "engine", ["clm", "naive", "enhanced", "baseline", "clm_sharded"]
)
def test_an_evaluate_between_batches_leaves_training_unchanged(engine, backend, city):
    """``evaluate`` culls through the maintained grid, refitting it to the
    rows the last Adam step moved: an evaluation after every batch trains
    to the same bits as none, through a densify/prune ``rebuild``."""
    scene, initial = city
    runs = []
    for eval_every in (1, 0):
        # The library renderer: ``evaluate`` renders through the bound op.
        cfg = config(backend, **({"num_devices": 2} if engine == "clm_sharded" else {}))
        cfg.renderer = cfg.renderer_backward = None
        session = TrainingSession(
            scene,
            engine=engine,
            config=cfg,
            trainer_config=TrainerConfig(
                batch_size=4, eval_every=eval_every, densify_every=10,
                densify_start=10, densify_stop=10, seed=1,
            ),
            densify_config=DensifyConfig(
                grad_threshold=0.0, max_gaussians=initial.num_gaussians + 64
            ),
            initial_model=initial,
        )
        session.train(20)
        runs.append((session.metrics, session.snapshot_model().parameters()))
    (evaluated, params), (plain, want) = runs
    assert evaluated.eval_batches == list(range(1, 21)) and plain.eval_batches == [20]
    assert evaluated.gaussian_counts[-1] != initial.num_gaussians  # densified
    assert evaluated.losses == plain.losses
    assert evaluated.psnrs[-1] == plain.psnrs[-1]
    assert all(np.array_equal(params[name], want[name]) for name in want)
