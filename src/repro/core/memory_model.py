"""GPU and pinned-host memory accounting for the four systems (§6.2).

Reproduces the memory-side experiments: maximum trainable model size before
OOM (Figure 8), GPU memory breakdowns (Figure 10) and pinned memory usage
(Table 6).

Per-Gaussian GPU footprints:

===========  =========================================================
system       bytes per Gaussian on the GPU
===========  =========================================================
baseline     59 params x 4 copies x 4 B = 944 (params/grads/2 moments)
             + full-N activations (fused kernels touch every Gaussian)
enhanced     944 + activations only for in-frustum Gaussians (§5.1)
naive        59 x 2 x 4 = 472 (params + grads; optimizer lives on CPU)
             + in-frustum activations
clm          10 x 4 x 4 = 160 (critical attrs with GPU-side optimizer)
             + double buffers 2 x (49 param + 49 grad floats) x 4 B per
               *in-frustum* Gaussian (§5.3)
             + in-frustum activations
===========  =========================================================

Activation constants are calibrated against the OOM boundaries of Figure 8
and the breakdowns of Figure 10 (DESIGN.md §2); what matters downstream is
that they are *shared* across systems, so ratios (CLM trains ~6x larger
than the enhanced baseline, ~2.2x larger than naive) are structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import attributes
from repro.hardware.specs import Testbed

SYSTEMS = ("baseline", "enhanced", "naive", "clm")

BYTES_PER_FLOAT = 4
TRAIN_COPIES = 4  # param + grad + two Adam moments

#: Full model state per Gaussian when everything lives on the GPU.
MODEL_STATE_FULL_BPG = attributes.total_floats() * TRAIN_COPIES * BYTES_PER_FLOAT
#: Naive offloading keeps params + grads on GPU, optimizer on CPU.
NAIVE_MODEL_BPG = attributes.total_floats() * 2 * BYTES_PER_FLOAT
#: CLM keeps the 10 critical floats resident with their optimizer state.
CLM_CRITICAL_BPG = attributes.critical_floats() * TRAIN_COPIES * BYTES_PER_FLOAT
#: CLM double buffers: two in-flight microbatch buffers of non-critical
#: params + their gradients (§5.3).
CLM_BUFFER_BPG = 2 * 2 * attributes.noncritical_floats() * BYTES_PER_FLOAT

#: Overlapped execution and pool accounting: the overlap runtime
#: (:mod:`repro.runtime`) changes *when* the finalized-chunk CPU Adam
#: runs, never *where* state lives — the worker threads update pinned CPU
#: rows and CPU-resident moments in place, so no model byte above moves
#: and no extra GPU allocation appears (the double buffer stays two
#: microbatches deep regardless of ``overlap_workers``; the executor's
#: staging queue holds row-index arrays, not parameter copies).  What
#: overlap *does* change is unaccounted here by design: transient CPU-side
#: kernel temporaries of one in-flight chunk per worker (a few chunk-sized
#: rows), which belong to host RAM the pool model never budgeted.
#: Figure 8/10 numbers are therefore identical under any worker count.

#: Per-Gaussian activation state of the rasterizer (projected means,
#: conics, colours, tile keys, and their saved gradients).  Like the
#: paper's CUDA kernels, this assumes the backward pass *recomputes* the
#: per-tile blending state; the functional substrate's optional blend
#: state (``RasterSettings.cache_blend_state``, on by default) retains
#: extra bytes that are deliberately outside this analytic allowance — they
#: are reported by ``RenderContext.activation_bytes``/``blend_state_bytes``
#: instead, and every engine opts out of retention
#: (``EngineBase.raster_settings``) whenever a GPU memory pool enforces
#: this model's budget.  Both backends retain it: NumPy as its slab cache
#: (three cell tensors, 17 bytes a cell), ``native`` as blend records (20
#: bytes for each cell the footprints could pass, plus each tile's final
#: ``T``: 1.2–1.7 MB a ``dense`` view, 0.3–0.5 MB a ``sparse`` one; a
#: training view keeps them in the engine's workspace, see the
#: kernel-backend note).  The
#: rasterizer's two-level binning (8x8 compute tiles over thresholded
#: footprints) moves only those *reported* bytes — on ``bench_e2e``
#: ``dense`` a view retains 4.1 MB of NumPy blend cache and 25.6 KB of CSR
#: tile keys, a third and twice what full ``tile_size`` spans held — and
#: nothing this analytic model budgets: Figure 8/10 numbers and the engines'
#: ``gpu_peak_bytes`` do not depend on the binning.  What *is* inside this
#: allowance is the per-Gaussian state a render context holds between
#: forward and backward: 272 bytes of screen-space state (means, depths,
#: camera-space points and covariances, conics, colours, radii) plus the
#: 168 bytes of geometry the forward pass retains so that the backward pass
#: rebuilds none of it (activated scales, quaternion norms, unit
#: quaternions, rotation matrices; unit view directions and their norms) —
#: 440 bytes, counted by ``RenderContext.activation_bytes`` and pinned
#: below this constant by ``tests/gaussians/test_retained_geometry.py``,
#: so the analytic model stays an upper bound and pool accounting did not
#: move when the retained geometry was added.  The ``native`` view ops
#: hold the same fields in one block per render, sized by the survivors:
#: 52 float64 + the int64 id + a 3-byte clamp mask = 427 bytes a Gaussian
#: (``activation_bytes`` budgets the mask as three floats and the id with
#: the tile keys, hence its 440), never by the rows that were handed in —
#: ``tests/kernels/test_native_view.py`` pins both.
ACT_PER_GAUSSIAN = 500
#: Per-pixel activation state (composited colour, transmittance, per-pixel
#: gradient staging).
ACT_PER_PIXEL = 240

#: Recovery note: elastic recovery snapshots (retaken after every
#: successful batch by ``clm_sharded`` under a fault schedule, to re-shard
#: onto survivors after a fail-stop) are transient *host-side* copies of
#: model parameters, optimizer moments, and RNG state.  They live outside
#: the simulated GPU memory pool and outside the pinned-store budget of
#: Table 6, exist only between one batch and the next overwrite, and
#: restoring one re-populates
#: the survivors' shards through the same accounted paths as a cold
#: start — so taking or restoring a snapshot never double-counts pool
#: bytes, and Figure 8/10 numbers are identical with recovery on or off.

#: Culling-index note: every training engine keeps a culling grid and its
#: views' in-frustum sets across batches (``EngineBase.cull_views`` over a
#: :class:`repro.core.culling_index.CullingIndex`) — per row a cell-ordered
#: copy of its 10 critical doubles and reach bound plus two int64 (member
#: and slot), and the held index sets, ``104 N + 8 sum_i |S_i|`` host
#: bytes (plus a few KB of cell tables).  That
#: is bookkeeping on the host, outside the simulated GPU pool and this
#: model, like the index :func:`profile_from_scene` builds: Figure 8/10
#: numbers and ``gpu_peak_bytes`` do not change with it.

#: Serving note: forward-only render serving (:mod:`repro.serving`) sits
#: entirely outside the training budgets above.  Every forward-only render
#: (also ``evaluate``, ``render_view``) forces ``cache_blend_state=False``
#: (``rasterizer.forward_only_settings``) so no per-tile blending state is
#: retained, and it never materializes gradient buffers, Adam moments, or
#: the CLM double buffers — a served model costs one read-only parameter
#: copy plus the per-request activations of the (frustum ∩ LOD) working
#: set.  With the library renderer those activations live in the session's
#: (or engine's) workspace arenas: the working set is read through its
#: rows, not copied, and the arenas grow to the largest request seen (~510
#: bytes an input row of projection scratch and work, 52 doubles a
#: survivor, the image) and stay.  They are host bytes outside the
#: simulated pool, like a training engine's workspace.

#: Sharding note: the ``clm_sharded`` engine (:mod:`repro.sharding`)
#: divides the budgets above by owned rows, not evenly.  Each of the K
#: devices holds ``CLM_CRITICAL_BPG`` for its *owned* shard (spatial
#: median cut → within ~±1 row of N/K) plus the same two-microbatch
#: double buffer, and the host pins only owned non-critical rows + CPU
#: moments per shard, so the K-device pool totals equal the single-device
#: figures — sharding spreads the model, it does not replicate it.  The
#: one overhead the single-device model lacks is the **halo**: boundary
#: Gaussians a device reads but does not own are fetched per batch
#: (critical params in, gradients back — ``ShardedBatchPlan.halo_bytes``
#: counts both directions) and discarded afterwards, costing transient
#: per-batch buffer space proportional to the shard boundary surface,
#: never resident bytes.  Owners alone step Adam on halo rows, so moments
#: are never duplicated across devices.

#: Kernel-backend note: the kernel backends (:mod:`repro.kernels`) change
#: *timing and scratch allocation*, never pool accounting.  The ``native``
#: backend fuses compositing into one per-tile C loop.  Unpooled, it keeps
#: its blend records (above: outside the analytic allowance, reported by
#: ``blend_state_bytes``) and its backward pass walks them.  Under a pool
#: it retains nothing beyond the per-Gaussian state, so its activation
#: footprint matches the allowance exactly, and, like the paper's CUDA
#: kernels, its backward pass *recomputes* the blend state instead — a
#: replay of the forward into per-tile scratch (20 bytes per thresholded
#: cell of the deepest tile) allocated transiently inside one kernel call.
#: The NumPy reference pays a second slab forward per view in the same
#: regime.  The gradients are bit-identical either way.  Every byte this
#: model budgets — parameters, gradients, moments, double buffers — is
#: identical under any backend; switching backends moves wall-clock time,
#: not Figure 8/10 numbers.
#:
#: A ``native`` training view holds those bytes in the engine's
#: :class:`~repro.kernels.workspace.Workspace` rather than in per-render
#: blocks: grow-only arenas for the projection scratch, the per-Gaussian
#: and CSR blocks, the blend records, the image, the loss gradient and the
#: five parameter-gradient arrays of one view — and, for a CLM microbatch
#: run as ``train_step``, the working set's block and carried gradients,
#: two of each (the double buffer ``CLM_BUFFER_BPG`` charges twice), and
#: for a ``train_batch`` call a block a render lane and one more and the
#: render arenas and a gradient slot once a lane (the stand-in device's own
#: parallelism; the paper's runs one microbatch at a time).  They are
#: host bytes held at the largest step seen (plus an eighth), for the
#: engine's lifetime, outside the pool model like the records: the pool
#: still charges each step's double buffer and activations analytically
#: (``GpuWorkingSet.reserve``, on either path), so ``gpu_peak_bytes`` and
#: Figure 8/10 numbers do not move with them.

#: Auto-tuning note: the adaptive runtime (:mod:`repro.autotune` +
#: ``repro.runtime.GraphExecutor``) changes *timing only*, never pool
#: accounting.  Every knob the tuner turns is an execution detail of the
#: same plans this model already budgets: ``overlap_workers`` moves Adam
#: chunks between threads (worker pools hold row-*index* arrays, not
#: parameter copies) and ordering permutes which microbatch occupies the
#: same two-slot double buffer; the kernel backend is never tuned (see the
#: kernel-backend note above).  Cost-model calibration state is a handful
#: of scalar rates.  Auto-tuned runs therefore report bit-identical
#: pool budgets — the tuner optimizes the schedule through the
#: :mod:`repro.hardware` simulator, not the memory plan.


@dataclass(frozen=True)
class SceneMemoryProfile:
    """Scene statistics the memory model needs.

    ``rho_max`` bounds the in-frustum working set (buffers and activations
    must be sized for the worst view); ``pixels`` is the paper-scale
    training resolution.
    """

    pixels: int
    rho_max: float
    rho_mean: float = 0.0
    name: str = ""


def profile_from_scene(scene, culling_index=None) -> SceneMemoryProfile:
    """Measure a profile from a built synthetic scene.

    ``culling_index`` may be passed to reuse an existing index; otherwise
    the scene's cameras are culled here.
    """
    from repro.core.culling_index import CullingIndex

    index = culling_index or CullingIndex.build(scene.model, scene.cameras)
    rhos = index.sparsities()
    return SceneMemoryProfile(
        pixels=scene.spec.paper_pixels,
        rho_max=float(rhos.max()) if rhos.size else 0.0,
        rho_mean=float(rhos.mean()) if rhos.size else 0.0,
        name=scene.name,
    )


def gpu_memory_bytes(
    system: str, num_gaussians: float, profile: SceneMemoryProfile
) -> Dict[str, float]:
    """GPU footprint split into ``model_states`` and ``others`` (Figure 10).

    ``others`` covers activations, CLM's double buffers and index buffers —
    matching the paper's two-part bars.
    """
    n = float(num_gaussians)
    in_frustum = profile.rho_max * n
    pixel_act = ACT_PER_PIXEL * profile.pixels

    if system == "baseline":
        model = MODEL_STATE_FULL_BPG * n
        others = ACT_PER_GAUSSIAN * n + pixel_act
    elif system == "enhanced":
        model = MODEL_STATE_FULL_BPG * n
        others = ACT_PER_GAUSSIAN * in_frustum + pixel_act
    elif system == "naive":
        model = NAIVE_MODEL_BPG * n
        others = ACT_PER_GAUSSIAN * in_frustum + pixel_act
    elif system == "clm":
        model = CLM_CRITICAL_BPG * n
        others = (
            CLM_BUFFER_BPG * in_frustum
            + ACT_PER_GAUSSIAN * in_frustum
            + pixel_act
        )
    else:
        raise ValueError(f"unknown system '{system}'; choose from {SYSTEMS}")
    return {"model_states": model, "others": others, "total": model + others}


def peak_gpu_bytes(
    system: str, num_gaussians: float, profile: SceneMemoryProfile
) -> float:
    return gpu_memory_bytes(system, num_gaussians, profile)["total"]


def fits(
    system: str,
    num_gaussians: float,
    profile: SceneMemoryProfile,
    testbed: Testbed,
) -> bool:
    avail = testbed.gpu.vram_bytes - testbed.gpu.reserved_bytes
    return peak_gpu_bytes(system, num_gaussians, profile) <= avail


def max_model_size(
    system: str,
    testbed: Testbed,
    profile: SceneMemoryProfile,
    upper: float = 1e10,
) -> float:
    """Largest N (Gaussians) trainable without OOM (Figure 8).

    Binary search over :func:`peak_gpu_bytes`; returns 0 when even a tiny
    model does not fit (e.g. 4K activations on an 11 GB card would still
    fit, but the guard exists for robustness).
    """
    if not fits(system, 1.0, profile, testbed):
        return 0.0
    if fits(system, upper, profile, testbed):
        return upper
    lo, hi = 1.0, upper
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if fits(system, mid, profile, testbed):
            lo = mid
        else:
            hi = mid
    return lo


def memory_breakdown(
    system: str, num_gaussians: float, profile: SceneMemoryProfile, testbed: Testbed
) -> Optional[Dict[str, float]]:
    """Figure 10 bar (GB): breakdown, or None when the system OOMs."""
    if not fits(system, num_gaussians, profile, testbed):
        return None
    parts = gpu_memory_bytes(system, num_gaussians, profile)
    return {k: v / 1e9 for k, v in parts.items()}


def pinned_memory_bytes(system: str, num_gaussians: float) -> float:
    """Pinned host memory (Table 6).

    Only tensors the GPU DMAs into are pinned: parameters and gradients.
    Optimizer moments stay in regular (unpinned) RAM (§6.4).  CLM pins the
    49 offloaded floats (+ gradient buffer); naive pins all 59 of each.
    Padding bytes (§5.2's cache-line alignment) are excluded, matching the
    paper's reported tensor sizes.
    """
    n = float(num_gaussians)
    if system == "clm":
        per = 2 * attributes.noncritical_floats() * BYTES_PER_FLOAT
    elif system == "naive":
        per = 2 * attributes.total_floats() * BYTES_PER_FLOAT
    elif system in ("baseline", "enhanced"):
        per = 0.0
    else:
        raise ValueError(f"unknown system '{system}'")
    return per * n


def host_memory_bytes(system: str, num_gaussians: float) -> float:
    """Total CPU RAM: pinned tensors plus unpinned optimizer state."""
    n = float(num_gaussians)
    pinned = pinned_memory_bytes(system, n)
    if system == "clm":
        moments = 2 * attributes.noncritical_floats() * BYTES_PER_FLOAT * n
    elif system == "naive":
        moments = 2 * attributes.total_floats() * BYTES_PER_FLOAT * n
    else:
        moments = 0.0
    return pinned + moments
