#!/usr/bin/env python
"""Quickstart: train a 3DGS scene with CLM on a memory-capped "GPU".

This is the paper's pitch in one script: on a simulated GPU too small to
hold the full model state, the GPU-only baseline OOMs immediately while CLM
trains the very same model by keeping only selection-critical attributes
(10 of 59 floats per Gaussian) plus the per-view working set on the GPU.

Everything goes through the public API: engines come from the registry
(``repro.create_engine``) and training runs through the
``repro.session(...)`` facade.  The run ends by checkpointing the session,
restoring the file into a fresh one and training one more batch on each:
the two losses are equal, because a resumed run continues the
uninterrupted one bit for bit.

Run:
    python examples/quickstart.py
"""

import os

import repro
from repro.core.checkpoint import load_model
from repro.core.config import EngineConfig
from repro.core.memory_model import CLM_CRITICAL_BPG, MODEL_STATE_FULL_BPG
from repro.core.trainer import TrainerConfig
from repro.gaussians.model import GaussianModel
from repro.hardware.memory import OutOfMemoryError
from repro.scenes.images import make_trainable_scene


def measured_peak(engine_name, init, scene, targets):
    """One throwaway training batch against an unlimited pool."""
    cfg = EngineConfig(batch_size=4, gpu_capacity_bytes=1e12)
    engine = repro.create_engine(engine_name, init, scene.cameras, cfg)
    engine.train_batch([0, 1, 2, 3], targets)
    return engine.pool.peak


def main() -> None:
    print("Building a synthetic scene (ground-truth renders + SfM-like "
          "init cloud)...")
    scene = make_trainable_scene(
        reference_gaussians=1200, num_views=12, image_size=(32, 24), seed=3
    )
    init = GaussianModel.from_point_cloud(
        scene.init_points, colors=scene.init_colors, sh_degree=1, seed=0
    )
    targets = {c.view_id: img for c, img in zip(scene.cameras, scene.images)}
    n = init.num_gaussians
    print(f"  {n} Gaussians, {scene.num_views} posed training images")

    baseline_peak = measured_peak("baseline", init, scene, targets)
    clm_peak = measured_peak("clm", init, scene, targets)
    capacity = 0.5 * (clm_peak + baseline_peak)
    print(f"\nGPU memory needed — baseline: {baseline_peak / 1e6:.2f} MB "
          f"(model state alone: {MODEL_STATE_FULL_BPG * n / 1e6:.2f} MB), "
          f"CLM: {clm_peak / 1e6:.2f} MB")
    print(f"Simulated GPU capacity: {capacity / 1e6:.2f} MB")

    print("\n[1/2] GPU-only baseline on that budget:")
    try:
        engine = repro.create_engine(
            "baseline", init, scene.cameras,
            EngineConfig(batch_size=4, gpu_capacity_bytes=capacity),
        )
        engine.train_batch([0, 1, 2, 3], targets)
        print("  unexpectedly fit!")
    except OutOfMemoryError as exc:
        print(f"  OOM, as the paper predicts -> {exc}")

    print("\n[2/2] CLM (offloaded) on the same budget:")

    def clm_session(initial_model):
        return repro.session(
            scene,
            engine="clm",
            config=EngineConfig(batch_size=4, gpu_capacity_bytes=capacity),
            trainer_config=TrainerConfig(num_batches=15, batch_size=4,
                                         eval_every=5),
            initial_model=initial_model,
        )

    sess = clm_session(init)
    sess.train()
    print(f"  resident critical attributes: "
          f"{CLM_CRITICAL_BPG * n / 1e6:.2f} MB on the GPU; "
          f"SH+opacity offloaded to pinned CPU memory")
    for step, psnr in zip(sess.metrics.eval_batches, sess.metrics.psnrs):
        print(f"  batch {step:3d}: PSNR {psnr:.2f} dB")
    print(f"  total parameters moved over 'PCIe': "
          f"{sess.metrics.loaded_bytes / 1e6:.1f} MB")

    out_dir = os.path.join(os.path.dirname(__file__), "output")
    os.makedirs(out_dir, exist_ok=True)
    image = sess.render_view(0).image
    from repro.utils.image_io import save_ppm

    save_ppm(os.path.join(out_dir, "quickstart_render.ppm"), image)
    save_ppm(os.path.join(out_dir, "quickstart_target.ppm"), scene.images[0])
    print(f"\nSaved a trained render vs ground truth to {out_dir}/")

    path = os.path.join(out_dir, "quickstart.npz")
    sess.checkpoint(path)
    resumed = clm_session(load_model(path)[0])
    resumed.restore(path)
    loss = sess.train(batches=1).losses[-1]
    resumed_loss = resumed.train(batches=1).losses[-1]
    if resumed_loss != loss:
        raise SystemExit(f"resumed loss {resumed_loss!r} != {loss!r}")
    print(f"Checkpointed to {path} and restored into a fresh session; one "
          f"more batch on each: loss {loss!r} on both (equal)")


if __name__ == "__main__":
    main()
