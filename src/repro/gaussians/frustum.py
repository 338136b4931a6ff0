"""Frustum culling on selection-critical attributes.

This module implements the paper's §4.1 observation: deciding whether a
Gaussian intersects the view frustum requires only its *position, scale and
rotation* (10 of 59 floats) — the attributes CLM keeps resident on the GPU.
The function signatures enforce that separation: nothing here touches SH
coefficients or opacity.

The intersection test matches the reference implementations: a Gaussian is
in-frustum when its 3-sigma ellipsoid intersects the frustum, evaluated per
frustum plane through the ellipsoid support function
``r(n) = 3 * sqrt(n^T Sigma n)``.

That exact test costs a rotation matrix and six norms per Gaussian per
view, and §8 of the paper warns that culling which "iterates over every
Gaussian" is the bottleneck on city-scale scenes, where a view keeps under
1% of the rows.  So the test is two-level (:func:`cull_batch`):

1. a *bounding-sphere prefilter* — ``r(n) <= 3 * max(scale)`` whatever the
   rotation, so ``n . p + d + 3 * max(scale) >= 0`` on all six planes is
   necessary for the exact test to pass.  It is one plane-major GEMM for
   every view of a batch at once, blocked so its temporaries do not grow
   with the number of views or Gaussians (a scalar C loop over N with a
   per-view early-out was measured and is no faster: it stays BLAS.  Run
   as one C loop per view, the prefilter made ``clm``'s cull of a
   ``sparse`` batch slower at N = 400 000, 12.6-13.4 ms against the GEMM's
   9.8-10.0 ms; serving's grid, which skips whole cells, is the cull that
   went to C, see :mod:`repro.gaussians.spatial`);
2. the exact ellipsoid test on the survivors only (:func:`exact_cull`) — a
   kernel op (:mod:`repro.kernels`): the NumPy reference below, or the C
   arbiter of the ``native`` backend, which walks the survivors over the
   full arrays (strided views of a packed block included) without
   gathering them.

The prefilter only ever removes rows the exact test would remove, so the
index sets are those of the single-level test, bit for bit.  This module
caches nothing between calls.  It culls snapshots — the simulator's, the
CLI's and the memory model's index (:meth:`CullingIndex.build
<repro.core.culling_index.CullingIndex.build>`).  Training and serving
cull through a :class:`~repro.gaussians.spatial.CullingGrid` instead,
which skips whole cells and puts every row it does not skip to the same
arbiter, so the same verdicts; training keeps its grid across batches and
refits it to the rows CLM's sparse Adam moved.

The reference exact test is :func:`ellipsoids_in_frustum`, and it has an
*accept path*: ``r(n) >= 0``, so a row whose centre is on the inner side
of all six planes is in the set whatever its shape, and only the boundary
band — centre outside some plane — pays for a rotation and norms.  On
``bench_e2e`` ``dense`` 83% of the prefilter's survivors have their centre
inside (36% on ``sparse``), which is what had ``dense`` culling 4 x 1000
rows in 3.1 ms.  Same sets, bit for bit; a row with a non-finite scale or
quaternion keeps the full test's verdict by taking the full test.

That one function is also the reference rasterizer's fused cull:
``preprocess`` calls it on every input row with the rotations it has built
for the covariance anyway, instead of running a second
:func:`cull_gaussians` on the already-culled working set — so culling and
rendering agree on every row because they execute the same arithmetic, and
a view's geometry is computed once (§5.1: the rendering kernels receive
``S_i`` and stop paying for the test).  ``native`` keeps the property the
same way, with one C function behind both its ``exact_cull`` and its
``view_project``; callers hand every cull the ``kernel_backend`` their
renders run on.  *Across* backends the sets are equal except on a rounding
tie (``|n . p + d + r|`` within a few ulps: BLAS and program-order sums
round differently), which at worst leaves one grazing splat unrendered.

On the ``bench_e2e`` ``sparse`` workload (N=20 000, a view sees 0.6%) a
fresh 8-view batch cull takes ~2 ms (``native``; 2.8 ms on the reference)
where the single-level test took 114 ms.  On ``dense``
(every view sees most rows, so the exact stage runs on most of them) a
4-view batch culls in 0.24 ms (1.0 ms on the reference, 3.1 ms before the
accept path).
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gaussians import quaternion
from repro.gaussians.camera import Camera

#: Number of standard deviations used for the extent of a Gaussian; 3-sigma
#: culling is standard practice in 3DGS implementations (paper §4.1).
CULL_SIGMA = 3.0

#: Relative margin by which every term of the prefilter inequality is
#: inflated, so that rounding can never make it reject a row the exact test
#: accepts.  Both tests evaluate ``n . p + d + r >= 0`` in floating point:
#: the two signed distances differ by a few ulps of ``|p| + |d|`` (different
#: summation order), and the exact radius can exceed the sphere bound by a
#: few ulps of itself (normals and rotations are unit only to rounding; it
#: *equals* the bound for an isotropic Gaussian).  The prefilter therefore
#: adds ``margin * (|p|_1 + |d| + r_bound)``; at 1e-9 that is ~10^6 times
#: the accumulated rounding (a few dozen ulps of 2.2e-16) and admits no
#: measurable number of extra candidates.  Fixed, not configurable: a
#: smaller value buys nothing, and correctness needs only "much larger
#: than rounding".
_PREFILTER_MARGIN = 1e-9

#: Views per prefilter GEMM and Gaussians per prefilter GEMM.  The
#: ``(6 * _VIEW_BLOCK, _ROW_BLOCK)`` product (384 KB) is the prefilter's
#: largest temporary whatever the batch and model size, and fits in L2.
_VIEW_BLOCK = 8
_ROW_BLOCK = 1024


def frustum_planes(camera: Camera) -> np.ndarray:
    """World-space frustum planes of ``camera`` as ``(6, 4)`` rows ``(n, d)``.

    Each row encodes the half-space ``n . p + d >= 0`` with ``n`` a unit
    inward normal; a point is inside the frustum iff all six constraints
    hold.  Plane order: near, far, left, right, top, bottom.  Computed once
    per pose (the camera drops the cache when a field is assigned) and
    handed out read-only: every caller gets the same array.
    """
    if camera._cached_planes is not None:
        return camera._cached_planes
    lo_x = -camera.cx / camera.fx
    hi_x = (camera.width - camera.cx) / camera.fx
    lo_y = -camera.cy / camera.fy
    hi_y = (camera.height - camera.cy) / camera.fy
    cam_planes = np.array(
        [
            [0.0, 0.0, 1.0, -camera.znear],  # z >= znear
            [0.0, 0.0, -1.0, camera.zfar],  # z <= zfar
            [1.0, 0.0, -lo_x, 0.0],  # x >= lo_x * z
            [-1.0, 0.0, hi_x, 0.0],  # x <= hi_x * z
            [0.0, 1.0, -lo_y, 0.0],  # y >= lo_y * z
            [0.0, -1.0, hi_y, 0.0],  # y <= hi_y * z
        ],
        dtype=np.float64,
    )
    normals_cam = cam_planes[:, :3]
    norms = np.linalg.norm(normals_cam, axis=1, keepdims=True)
    normals_cam = normals_cam / norms
    offsets = cam_planes[:, 3] / norms[:, 0]
    normals_world = normals_cam @ camera.rotation  # W^T n per row
    d_world = offsets - normals_world @ camera.center
    planes = np.concatenate([normals_world, d_world[:, None]], axis=1)
    planes.setflags(write=False)
    camera._cached_planes = planes
    return planes


def _support_radii(
    normals: np.ndarray, scales: np.ndarray, rotations: np.ndarray
) -> np.ndarray:
    """:func:`support_radii` from activated scales ``(N, 3)`` and rotation
    matrices ``(N, 3, 3)``.  Every step is row-wise, so a row's radii do not
    depend on which other rows are passed with it."""
    # v[p, n, :] = diag(s_n) R_n^T normal_p
    v = np.einsum("nji,pj->pni", rotations, normals) * scales[None, :, :]
    return CULL_SIGMA * np.linalg.norm(v, axis=-1)


def support_radii(
    normals: np.ndarray, log_scales: np.ndarray, raw_quats: np.ndarray
) -> np.ndarray:
    """3-sigma support radius of each Gaussian along each plane normal.

    ``n^T Sigma n = |diag(s) R^T n|^2`` so no covariance matrix is
    materialized.  Returns shape ``(P, N)`` for ``P`` planes, ``N``
    Gaussians.
    """
    rot = quaternion.to_rotation_matrices(quaternion.normalize(raw_quats))
    return _support_radii(normals, np.exp(log_scales), rot)


def max_support_radius(log_scales: np.ndarray) -> np.ndarray:
    """Upper bound of the 3-sigma support in any direction.

    ``sqrt(n^T Sigma n) <= s_max`` for unit ``n``, so ``3 s_max`` bounds
    the ellipsoid's reach regardless of rotation.
    """
    largest = np.maximum(
        np.maximum(log_scales[:, 0], log_scales[:, 1]), log_scales[:, 2]
    )
    return CULL_SIGMA * np.exp(largest)


def signed_distances(planes: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(K, P)`` signed distances ``n . p + d`` of ``K`` centres to ``P``
    planes — the one step of the exact test that is not row-wise.

    The BLAS product rounds each element the same for any number of rows
    *but one*: NumPy hands a one-row product to ``gemv``, which rounds
    differently from ``gemm``.  A lone row is therefore evaluated as two, so
    a row's distances (and verdict) never depend on which other rows, if
    any, are tested with it.
    """
    if positions.shape[0] == 1:
        return signed_distances(planes, np.repeat(positions, 2, axis=0))[:1]
    return positions @ planes[:, :3].T + planes[:, 3]


def ellipsoids_in_frustum(
    planes: np.ndarray,
    positions: np.ndarray,
    scales: np.ndarray,
    raw_quats: np.ndarray,
    rotations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean ``(K,)``: which of ``K`` Gaussians have a 3-sigma ellipsoid
    reaching inside all of ``planes`` — the exact support-function test.

    ``scales`` are activated (``exp(log_scales)``).  The one arithmetic
    behind the reference :func:`exact_cull` and the reference rasterizer's
    fused test (:func:`repro.gaussians.rasterizer.preprocess`, which passes
    the ``rotations`` it builds anyway), so pre-rendering culling and
    rendering agree on every row, bit for bit.

    *Accept path*: the reach ``3 |diag(s) R^T n|`` is never negative, so a
    row whose centre is on the inner side of all six planes passes whatever
    its shape, and only the *boundary band* — centre outside some plane —
    pays for a rotation matrix and six norms.  The exception is a row
    whose scale or quaternion is not finite: its reach may be NaN (a NaN
    parameter, or ``0 * inf`` once a scale overflows), which the full test
    rejects, so such a row is sent through the full test here as well.
    With finite scales and quaternions the reach is in ``[0, inf]`` and
    the two paths cannot disagree.

    A row's verdict does not depend on which other rows are tested with
    it: the arithmetic is row-wise except for the BLAS product of the
    signed distances, which :func:`signed_distances` keeps on one path.
    """
    normals = planes[:, :3]
    signed = signed_distances(planes, positions)  # (K, P)
    # Column by column: NumPy reduces a short trailing axis one row at a
    # time.  The NaN-propagating sum stands in for seven ``isfinite`` tests
    # a row; a finite row whose sum overflows merely takes the full test.
    nearest = functools.reduce(np.minimum, signed.T)
    finite = np.isfinite(sum(scales.T) + sum(raw_quats.T))
    inside = (nearest >= 0.0) & finite
    band = np.flatnonzero(~inside)
    if band.size:
        if rotations is None:
            rot = quaternion.to_rotation_matrices(
                quaternion.normalize(raw_quats[band])
            )
        else:
            rot = rotations[band]
        radii = _support_radii(normals, scales[band], rot)  # (P, B)
        inside[band] = np.all(signed[band].T + radii >= 0.0, axis=0)
    return inside


def _arbiter(kernel_backend: Optional[str]) -> Callable:
    """The ``exact_cull`` kernel op of ``kernel_backend``."""
    from repro.kernels import compile_with_fallback, resolve_backend

    return compile_with_fallback(resolve_backend(kernel_backend), "exact_cull")[0]


def exact_cull(
    planes: np.ndarray,
    positions: np.ndarray,
    log_scales: np.ndarray,
    raw_quats: np.ndarray,
    rows: np.ndarray,
    kernel_backend: Optional[str] = None,
) -> np.ndarray:
    """The members of ``rows`` whose 3-sigma ellipsoid reaches inside all
    of ``planes`` — the arbiter of ``kernel_backend`` on those rows only,
    whose verdict on a row is the same in any company, so a prefiltered cull
    cannot disagree with a whole-model one in the last bit.

    One kernel-op dispatch (:mod:`repro.kernels`): the reference runs
    :func:`ellipsoids_in_frustum`, ``native`` the C function its renders
    call on every input row — a backend's cull and its render always share
    one arithmetic.
    """
    return _arbiter(kernel_backend)(planes, positions, log_scales, raw_quats, rows)


def _prefilter_points(positions: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    """Per-Gaussian right-hand side of the prefilter GEMM, ``(5, N)``:
    ``x, y, z, 1, slack`` of every row.

    ``slack`` is the bounding-sphere radius (:func:`max_support_radius`)
    inflated by the margin, plus the margin's share of the centre's
    magnitude (see :data:`_PREFILTER_MARGIN`).  Columns are copied one at a
    time, which reads a strided ``(N, 3)`` view (CLM's packed critical
    block) as fast as a contiguous one.
    """
    points = np.empty((5, positions.shape[0]))
    for j in range(3):
        points[j] = positions[:, j]
    points[3] = 1.0
    largest = np.maximum(
        np.maximum(log_scales[:, 0], log_scales[:, 1]), log_scales[:, 2]
    )
    points[4] = CULL_SIGMA * np.exp(largest) * (1.0 + _PREFILTER_MARGIN)
    points[4] += _PREFILTER_MARGIN * np.abs(points[:3]).sum(axis=0)
    return points


def _prefilter_planes(planes: np.ndarray) -> np.ndarray:
    """Per-plane left-hand side of the prefilter GEMM, ``(P, 5)``:
    ``nx, ny, nz, d + margin * |d|, 1`` for ``(P, 4)`` plane rows."""
    coeffs = np.ones((planes.shape[0], 5))
    coeffs[:, :4] = planes
    coeffs[:, 3] += _PREFILTER_MARGIN * np.abs(planes[:, 3])
    return coeffs


def cull_batch(
    cameras: Sequence[Camera],
    positions: np.ndarray,
    log_scales: np.ndarray,
    raw_quats: np.ndarray,
    kernel_backend: Optional[str] = None,
) -> List[np.ndarray]:
    """The sorted in-frustum index set ``S_i`` of every camera, in order.

    This is the pre-rendering frustum culling of §5.1: it runs *before*
    rasterization, producing the explicit index sets that drive CLM's
    selective loading, caching and scheduling.  Two-level (see the module
    docstring): a bounding-sphere prefilter for a block of views at once,
    then the exact test of ``kernel_backend`` (:func:`exact_cull`) on each
    view's survivors.
    """
    cameras = list(cameras)
    arbiter = _arbiter(kernel_backend)
    points = _prefilter_points(positions, log_scales)
    n = points.shape[1]
    sets: List[np.ndarray] = []
    for first in range(0, len(cameras), _VIEW_BLOCK):
        planes = np.stack(
            [frustum_planes(c) for c in cameras[first : first + _VIEW_BLOCK]]
        )  # (V, 6, 4)
        views = planes.shape[0]
        coeffs = _prefilter_planes(planes.reshape(-1, 4))
        survives = np.empty((views, n), dtype=bool)
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            # Signed distance of each sphere's far side to each plane; a
            # sphere survives a view when it reaches inside all six.
            reach = (coeffs @ points[:, lo:hi]).reshape(views, 6, hi - lo)
            np.greater_equal(reach.min(axis=1), 0.0, out=survives[:, lo:hi])
        for view_planes, mask in zip(planes, survives):
            candidates = np.flatnonzero(mask)
            if candidates.size == 0:
                sets.append(candidates)
                continue
            sets.append(
                arbiter(view_planes, positions, log_scales, raw_quats, candidates)
            )
    return sets


def cull_gaussians(
    camera: Camera,
    positions: np.ndarray,
    log_scales: np.ndarray,
    raw_quats: np.ndarray,
    kernel_backend: Optional[str] = None,
) -> np.ndarray:
    """Return the sorted indices of Gaussians intersecting the frustum
    (:func:`cull_batch` for a single view)."""
    return cull_batch(
        [camera], positions, log_scales, raw_quats, kernel_backend
    )[0]


def sparsity(camera: Camera, positions, log_scales, raw_quats) -> float:
    """The per-view sparsity ``rho_i = |S_i| / N`` of §3."""
    n = positions.shape[0]
    if n == 0:
        return 0.0
    return cull_gaussians(camera, positions, log_scales, raw_quats).size / n
