"""The training part of a workload, untraced.

Five variants run the *same* seeded batch schedule through
`TrainingSession.train_batch`, interleaved batch by batch (every variant
trains batch k before any trains batch k+1), so machine drift and the
box's seconds-long interference bursts land on every variant alike and on
a minority of each variant's samples.  A throughput is
`B / median(calibrated batch wall)` over the measured batches, timed by
the driver around the public call and divided by the machine slowdown
its two neighbouring reference samples show (see `calibrate`).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from bench_e2e.calibrate import Reference, slowdown
from bench_e2e.catalog import TRAIN_VARIANTS
from bench_e2e.stats import summarize
from bench_e2e.workloads import Sizes, TrainInputs, TrainSpec, batch_schedule

#: `variant -> (engine registry name, EngineConfig overrides)`.
VARIANT_CONFIGS: Dict[str, tuple] = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "naive": ("naive", {}),
    "enhanced": ("enhanced", {}),
    # Traced-pass extras:
    "autotune": ("clm", {"autotune": True, "use_task_graph": True}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
}

#: The capacity that turns pool accounting on without ever binding.
POOL_BYTES = 1e12


def make_session(
    variant: str,
    spec: TrainSpec,
    inputs: TrainInputs,
    *,
    pool: bool = False,
    renderers: Optional[tuple] = None,
):
    """A fresh `TrainingSession` for `variant` on the workload's scene."""
    import repro
    from repro import EngineConfig

    engine, overrides = VARIANT_CONFIGS[variant]
    config = EngineConfig(batch_size=spec.batch_size, **overrides)
    if pool:
        config.gpu_capacity_bytes = POOL_BYTES
    if renderers is not None:
        config.renderer, config.renderer_backward = renderers
    initial = inputs.initial_model
    return repro.session(
        inputs.scene,
        engine=engine,
        config=config,
        initial_model=None if initial is None else initial.clone(),
    )


def close_session(sess) -> None:
    """Stop the session's worker threads (CLM variants own executors)."""
    close = getattr(sess.engine, "close", None)
    if close is not None:
        close()


@dataclass
class VariantRun:
    """One variant's session plus everything the driver observed."""

    name: str
    session: object
    walls: List[float] = field(default_factory=list)
    #: `walls` in calibrated seconds (see `calibrate`).
    calibrated: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Set when a batch raised; the variant is not driven further.
    error: Optional[str] = None

    def step(self, view_ids: List[int], measured: bool) -> Optional[float]:
        """Train one batch; returns its wall seconds when it was measured
        and completed."""
        if self.error is not None:
            return None
        if measured:
            self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.session.train_batch(view_ids)
        except Exception:  # boundary: record, keep the other variants going
            self.error = traceback.format_exc()
            if measured:
                self.failed += 1
            return None
        wall = time.perf_counter() - start
        if not measured:
            return None
        self.walls.append(wall)
        self.losses.append(float(result.loss))
        if not np.isfinite(result.loss):
            self.failed += 1
        return wall


@dataclass
class PerfSnapshot:
    """The `PerfCounters` fields the benchmark reads as deltas."""

    images: int
    transfer_bytes: float

    @classmethod
    def of(cls, sess) -> "PerfSnapshot":
        perf = sess.perf
        return cls(perf.images, perf.transfer_bytes)


@dataclass
class TrainResult:
    runs: Dict[str, VariantRun]
    images_per_s: Dict[str, dict]
    transfer_bytes_per_image: Dict[str, float]
    psnr_db: float
    gpu_peak_bytes: float


def pool_peak_bytes(
    variant: str, spec: TrainSpec, inputs: TrainInputs, batches: List[List[int]]
) -> float:
    """`MemoryPool.peak` after running `batches` with GPU-pool accounting
    on (a capacity that never binds)."""
    sess = make_session(variant, spec, inputs, pool=True)
    try:
        for view_ids in batches:
            sess.train_batch(view_ids)
        return float(sess.engine.pool.peak)
    finally:
        close_session(sess)


def run_training(
    spec: TrainSpec,
    inputs: TrainInputs,
    sizes: Sizes,
    seed: int,
    reference: Reference,
    sessions: Optional[Dict[str, object]] = None,
    warmed: int = 0,
) -> TrainResult:
    """Warm up, then measure `sizes.measured_batches` interleaved batches.

    `sessions` (from the last set-up repeat) are reused when given; their
    `clm` session has already trained `warmed` schedule batches.
    """
    schedule = batch_schedule(
        spec, seed, sizes.warmup_batches + sizes.measured_batches
    )
    if sessions is None:
        sessions = {v: make_session(v, spec, inputs) for v in TRAIN_VARIANTS}
    runs = {v: VariantRun(v, sessions[v]) for v in TRAIN_VARIANTS}

    for k in range(sizes.warmup_batches):
        for name, run in runs.items():
            if name == "clm" and k < warmed:
                continue
            run.step(schedule[k], measured=False)
    before = {v: PerfSnapshot.of(runs[v].session) for v in TRAIN_VARIANTS}

    # A reference sample on either side of every measured batch.
    before_ref = reference.sample()
    for view_ids in schedule[sizes.warmup_batches :]:
        for run in runs.values():
            wall = run.step(view_ids, measured=True)
            after_ref = reference.sample()
            if wall is not None:
                run.calibrated.append(wall / slowdown(before_ref, after_ref))
            before_ref = after_ref

    images_per_s: Dict[str, dict] = {}
    transfer: Dict[str, float] = {}
    for name, run in runs.items():
        if run.walls:
            stats = summarize(run.calibrated)
            stats["value"] = spec.batch_size / stats["median"]
            stats["raw_median"] = summarize(run.walls)["median"]
        else:
            stats = {"value": float("nan"), "n": 0}
        images_per_s[name] = stats
        after = PerfSnapshot.of(run.session)
        images = max(1, after.images - before[name].images)
        transfer[name] = (
            after.transfer_bytes - before[name].transfer_bytes
        ) / images

    psnr_db = float(runs["clm"].session.evaluate())
    gpu_peak = pool_peak_bytes(
        "clm", spec, inputs, schedule[: sizes.pool_batches]
    )
    return TrainResult(
        runs=runs,
        images_per_s=images_per_s,
        transfer_bytes_per_image=transfer,
        psnr_db=psnr_db,
        gpu_peak_bytes=gpu_peak,
    )
