"""Worker crashes inside a real training batch leave consistent state."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.engines import CLMEngine
from repro.gaussians.model import GaussianModel
from repro.runtime import WorkerError


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_crashed_adam_chunk_leaves_noncritical_params_untouched(
    trainable_scene, workers
):
    """If every noncritical CPU-Adam chunk crashes, the batch raises
    WorkerError at the barrier and the noncritical (offloaded) parameters
    are bit-identical to their pre-batch state — the recovery path can
    restore from a consistent boundary."""
    init = GaussianModel.from_point_cloud(
        trainable_scene.init_points, colors=trainable_scene.init_colors,
        sh_degree=1, seed=0,
    )
    targets = {
        c.view_id: img
        for c, img in zip(trainable_scene.cameras, trainable_scene.images)
    }
    engine = CLMEngine(
        init, trainable_scene.cameras,
        EngineConfig(batch_size=4, overlap_workers=workers),
    )
    before = engine.snapshot_model()
    pre = {
        "sh": before.sh.copy(),
        "opacity_logits": before.opacity_logits.copy(),
    }

    def poisoned(rows):
        raise RuntimeError("pinned-store DMA fault")

    engine._apply_noncritical_adam = poisoned
    with pytest.raises(WorkerError) as excinfo:
        # Hooked, so that inline too the batch walks its nodes, each chunk
        # through the poisoned method (unhooked, it is one native call).
        engine.train_batch([0, 1, 2, 3], targets, lambda *hooked: None)
    assert isinstance(excinfo.value.__cause__, RuntimeError)

    after = engine.snapshot_model()
    np.testing.assert_array_equal(after.sh, pre["sh"])
    np.testing.assert_array_equal(after.opacity_logits, pre["opacity_logits"])
    engine.close()
