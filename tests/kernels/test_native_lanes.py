"""``train_batch``'s render lanes: a batch's views rendered on several
threads, folded in node order, give the node walk's bits.

The binding works the lanes out (``min(views, cores)``); here
``native_backend._cores`` is patched so one box runs 1, 2 and 3 lanes.  Each
run is compared with the walk of native steps (``walked``) on both ruler
recipes, with blend records on and off, pooled: losses, transfer counts,
parameters, both optimizers' state and the pool peak are equal.  A render
short of its lane's arenas resumes to the same bits, and a refused plan leaves the engine as it was.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_native_train_step import (
    assert_refused,
    assert_same_run,
    batch_calls,
    nodes_of,
    recipes,  # noqa: F401  (a fixture)
    replace_step,
    run_batches,
    walked,
    working_sets,
)

from repro.gaussians.rasterizer import RasterSettings
from repro.kernels import get_backend, native_backend

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)


def lanes_of(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(native_backend, "_cores", lambda: cores)


@pytest.mark.parametrize("records", [False, True], ids=["no-records", "records"])
@pytest.mark.parametrize("recipe", ["dense", "sparse"])
def test_every_lane_count_trains_to_the_walks_bits(recipes, recipe, records, tmp_path, monkeypatch):
    config = dict(
        gpu_capacity_bytes=1e12, raster=RasterSettings(cache_blend_state=records),
    )
    with monkeypatch.context() as patched:
        walked(patched)
        want = run_batches(recipes, recipe, tmp_path, batches=8, **config)
    for cores in (1, 2, 3):
        with monkeypatch.context() as patched:
            lanes_of(patched, cores)
            made = batch_calls(patched)
            got = run_batches(recipes, recipe, tmp_path, batches=8, **config)
        call = got[4]._workspace.calls["train_batch"]
        assert call.lanes == min(cores, recipes[recipe][0].batch_size)
        assert made and all(status in ("ok", "_ArenaShort") for _, status in made)
        assert_same_run(got, want)


def test_a_short_render_resumes_to_the_same_bits(recipes, tmp_path, monkeypatch):
    """The first batch starts from empty render blocks, so its renders on
    both lanes report them short; the call grows every lane's and resumes
    at the earliest, and trains the walk's bits."""
    with monkeypatch.context() as patched:
        walked(patched)
        want = run_batches(recipes, "dense", tmp_path, batches=3)
    with monkeypatch.context() as patched:
        lanes_of(patched, 2)
        made = batch_calls(patched)
        got = run_batches(recipes, "dense", tmp_path, batches=3)
    assert "_ArenaShort" in {status for _, status in made}
    assert_same_run(got, want)


def test_a_refusal_at_a_later_step_leaves_the_state_as_it_was(recipes, monkeypatch):
    """A plan whose step 2 is malformed is refused before any lane renders:
    no store, optimizer state, loss or counter is written."""
    lanes_of(monkeypatch, 3)
    engine, plan, targets = working_sets(recipes, "sparse")
    engine.train_batch(plan.view_ids, targets)  # warmed
    steps = list(plan.steps)
    outside = np.setdiff1d(np.arange(engine.num_gaussians), steps[2].working_set)[:1]
    steps[2] = replace_step(steps[2], loads=outside)
    broken = replace(plan, steps=tuple(steps))
    assert_refused(
        engine, broken, nodes_of(broken), targets, ValueError,
        "plan: a malformed node list or row vector",
    )
