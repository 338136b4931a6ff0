"""The task-graph execution path must be *bit-identical* to the classic
submit/barrier loop — at every worker count and under the overlap
ablation.

Same §4.2.2 argument as ``test_overlap_equivalence``: concurrently
runnable graph nodes touch disjoint rows (chunk disjointness), and the
render spine stays a linear dependency chain, so no schedule can change a
bit.  ``overlap_workers`` is an execution detail the auto-tuner varies
per batch — this suite is what licenses it to do so.
"""

import numpy as np
import pytest

import repro
from repro.core.config import EngineConfig
from repro.gaussians.model import GaussianModel
from repro.runtime import WorkerError

BATCHES = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 1, 3]]


@pytest.fixture(scope="module")
def setup(trainable_scene):
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points,
        colors=trainable_scene.init_colors,
        sh_degree=1,
        seed=0,
    )
    return trainable_scene, init


def run(setup, seed=0, workers=0, **cfg_kwargs):
    scene, init = setup
    sess = repro.session(
        scene,
        engine="clm",
        config=EngineConfig(
            batch_size=4, seed=seed, overlap_workers=workers, **cfg_kwargs
        ),
        initial_model=init,
    )
    for batch in BATCHES:
        sess.train_batch(batch)
    return sess


def assert_bit_identical(a: GaussianModel, b: GaussianModel) -> None:
    for name in a.parameters():
        assert np.array_equal(
            a.parameters()[name], b.parameters()[name]
        ), f"{name} differs"


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_graph_equals_classic_at_every_worker_count(setup, workers):
    classic = run(setup, workers=0)
    graph = run(setup, workers=workers, use_task_graph=True)
    assert_bit_identical(classic.snapshot_model(), graph.snapshot_model())


def test_graph_ablation_batch_end_adam_identical(setup):
    classic = run(setup, workers=0)
    ablated = run(setup, workers=2, use_task_graph=True,
                  enable_overlap_adam=False)
    assert_bit_identical(classic.snapshot_model(), ablated.snapshot_model())


def test_graph_optimizer_state_identical(setup):
    classic = run(setup, workers=0)
    graph = run(setup, workers=2, use_task_graph=True)
    for a, b in [
        (classic.engine.adam_noncritical, graph.engine.adam_noncritical),
        (classic.engine.adam_critical, graph.engine.adam_critical),
    ]:
        assert np.array_equal(a.packed_m, b.packed_m)
        assert np.array_equal(a.packed_v, b.packed_v)
        assert np.array_equal(a.steps, b.steps)


def test_graph_stats_flow_into_perf(setup):
    graph = run(setup, workers=2, use_task_graph=True)
    perf = graph.perf
    assert perf.batches == len(BATCHES)
    assert perf.adam_s > 0.0
    # hidden_s may be ~0 on a loaded machine but must never be negative.
    assert perf.overlap_hidden_s >= 0.0


def test_graph_worker_error_propagates(setup):
    scene, init = setup
    sess = repro.session(
        scene,
        engine="clm",
        config=EngineConfig(
            batch_size=4, seed=0, overlap_workers=2, use_task_graph=True
        ),
        initial_model=init,
    )

    def boom(rows):
        raise RuntimeError("injected adam fault")

    sess.engine._apply_noncritical_adam = boom
    with pytest.raises(WorkerError, match="injected adam fault"):
        sess.train_batch(BATCHES[0])
