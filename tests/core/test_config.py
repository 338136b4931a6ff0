"""The configuration surfaces, pinned: a knob that comes back (or a new
one) shows up as a diff of this file."""

from dataclasses import fields

from repro.core.config import EngineConfig
from repro.gaussians.rasterizer import RasterSettings


def test_the_knob_sets_are_pinned():
    assert [f.name for f in fields(RasterSettings)] == [
        "tile_size", "background", "alpha_threshold", "transmittance_min",
        "max_alpha", "active_sh_degree", "cache_blend_state", "kernel_backend",
    ]
    assert [f.name for f in fields(EngineConfig)] == [
        "batch_size", "ordering", "enable_cache", "enable_overlap_adam",
        "overlap_workers", "ssim_lambda",
        "adam", "raster", "seed", "gpu_capacity_bytes", "renderer",
        "renderer_backward", "num_devices", "topology", "work_stealing",
        "fault_schedule", "kernel_backend",
        "use_task_graph", "autotune", "autotune_workers", "autotune_orderings",
    ]
