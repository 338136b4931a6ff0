"""Tile-binned forward rasterization of 3D Gaussians.

This mirrors the structure of the CUDA rasterizers the paper builds on
(3DGS / gsplat): a *preprocess* step projects every input Gaussian to screen
space (mean, conic, colour, opacity, pixel radius), Gaussians are binned
into fixed-size tiles, and each tile composites its depth-sorted splats
front-to-back with alpha blending.

Differences from the CUDA kernels are purely executional.  Since PR 4 the
hot path is a *vectorized substrate*:

- **Two-level CSR tile binning** (:func:`build_tile_bins`): instead of a
  Python triple loop appending rows into a dict of per-tile lists, the
  binning is one flat array program — Gaussians sorted near-to-far,
  per-Gaussian tile counts, ``np.repeat`` to emit ``(tile_id, gauss_row)``
  pairs, one stable sort by tile id and ``np.bincount`` offsets.
  ``RasterSettings.tile_size`` (16) is the *semantic* level: a splat may
  reach the pixels of the ``tile_size`` tiles its 3-sigma radius spans, and
  no others.  The bins themselves are built on 8x8 *compute tiles*
  (``_COMPUTE_TILE``) from each splat's **footprint**: its span, clipped to
  the image and to the bounding box of ``{alpha_raw >= alpha_threshold}`` —
  for the conic ``[[a, b], [b, c]]`` the ellipse
  ``q(d) <= 2 ln(opacity / alpha_threshold)`` with half-extents
  ``sqrt(level * c / det)`` and ``sqrt(level * a / det)``, inflated by
  ``_FOOTPRINT_MARGIN``.  A splat with ``opacity < alpha_threshold`` is in
  no bin; ``alpha_threshold <= 0`` or a non-finite extent keeps the whole
  span.  A dropped ``(compute tile, splat)`` pair has ``alpha_eff == 0`` on
  every pixel of that tile, so transmittance, contributor sets and
  gradients are those of single-level binning (only BLAS summation order
  differs) while the slabs shed about half of their cells, all of which
  blended to zero (``bench_e2e`` ``dense``: 481k -> 240k cells per view,
  share passing the threshold 0.22 -> 0.38), and the canvas padding outside
  the image shrinks to under one compute tile per edge.
  The result is a :class:`TileBins` CSR structure over compute tiles::

      tile_ids : (T,)   linear ids (ty * tiles_x + tx) of non-empty tiles
      offsets  : (T+1,) CSR offsets into ``order``
      order    : (E,)   rows into the projected arrays, near-to-far per tile

- **Grouped compositing**: tiles are processed in groups of equal *padded*
  bin length (:func:`iter_tile_groups`): ``T`` tiles by ``G`` splats (the
  slab's longest bin; pad rows carry zero opacity) by the compute tile's
  ``P`` pixels, so the forward blend, the transmittance scan and the
  backward suffix sums batch across tiles instead of paying one Python
  iteration per tile.  The kernels themselves live in
  :mod:`repro.kernels.numpy_backend` and are two-level: per-``(tile,
  splat)`` work happens once per view on the flat CSR entries (the lane
  terms of the separable exponent before the slab loop, all pair math and
  one segment sum after it), the slabs only do per-cell work.
  ``_MAX_GROUP_TILES`` bounds the tiles per slab.  Every array is
  float64, on both backends.

- **Shared blend cache**: with ``RasterSettings.cache_blend_state`` the
  forward pass retains, per slab, the three cell tensors the backward pass
  reads (``weights``, ``odds``, ``gate``; 17 bytes a cell) on the
  :class:`RenderContext`; without it the forward pass does not even form
  the two backward-only ones and the backward pass regenerates the state,
  bit for bit.  ``native`` keeps blend records instead: 20 bytes for each
  cell its footprints could pass, and each tile's final ``T``.  The
  retained bytes are reported by
  :meth:`RenderContext.activation_bytes` (the reference CUDA kernels
  recompute blending backward, which is why retention is opt-out for the
  memory-accounted CLM path).

The golden reference is the pre-substrate per-tile loop — single-level
binning, one tile at a time blended by ``tile_alpha_weights`` — kept
verbatim as a test-only oracle in ``tests/reference/legacy_raster.py``:
``tests/gaussians/test_raster_parity.py``, ``test_compute_bins.py`` and
``test_slab_kernels.py`` pin the substrate against it.

Since the whole-view kernel ops, :func:`rasterize_forward` is one backend
dispatch (``view_forward``, :mod:`repro.kernels`).  The NumPy reference
implements it as the array programs above — :func:`preprocess`, then
:func:`build_tile_bins`, then the slab kernels, all of which stay public
NumPy functions with no dispatch inside them (the oracles and the parity
suites call them directly) — and ``native`` implements it in C:
projection, binning and compositing are two calls over one float64 block
per render, out of which the :class:`ProjectedGaussians`,
:class:`~repro.gaussians.covariance.GaussianShape` and :class:`TileBins`
of the :class:`RenderContext` are cut as views (``RenderContext.blocks``).
Each backend applies, per input row, the 3-sigma frustum test its
``exact_cull`` op applies (:func:`~repro.gaussians.frustum.ellipsoids_in_frustum`
here, one C function under ``native``), which keeps pre-rendering culling
and rendering in agreement, bit for bit.

The rasterizer deliberately accepts an arbitrary subset of a scene's
Gaussians: CLM's selective loading feeds it exactly the in-frustum set
``S_i``, which is what makes pre-rendering frustum culling (§5.1) a pure
win for compute and activation memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.gaussians import sh as sh_module
from repro.gaussians.camera import Camera
from repro.gaussians.covariance import (
    GaussianShape,
    invert_cov2d,
    project_covariance,
)
from repro.gaussians.frustum import ellipsoids_in_frustum, frustum_planes
from repro.gaussians.model import GaussianModel, sigmoid
from repro.gaussians.projection import project_means, splat_radii
from repro.gaussians.quaternion import unit_and_norm

#: Upper bound on ``tiles x splats x pixels`` cells materialized per
#: grouped slab; keeps the (T, G, P) working tensors at tens of MB even
#: when a single tile's bin is very deep.
_MAX_GROUP_CELLS = 1 << 22
#: Upper bound on the tiles of one grouped slab.  Slab width is pure
#: blocking: it never changes a result, and ``native`` does not slab.
_MAX_GROUP_TILES = 256
#: Padding budget of a slab: padded entries may exceed real entries by at
#: most this factor before the slab is cut.
_MAX_PAD_WASTE = 1.25
#: Edge, in pixels, of the square *compute tile* the CSR bins and the
#: ``(T, G, P)`` slabs are built on.  ``RasterSettings.tile_size`` only
#: defines which splats may reach which pixels; compositing on 8x8 tiles
#: lets the footprint test below skip most of a 16x16 tile's zero-alpha
#: cells and wastes less canvas outside the image.  Measured on
#: ``bench_e2e`` ``dense``: 4 was slower than 8 (more, shallower slabs) and
#: footprints at 16 gained nothing, so this is a constant, not a knob.  A
#: ``tile_size`` that 8 does not divide is its own compute tile.
_COMPUTE_TILE = 8
#: Margin by which the footprint test is inflated so that rounding can
#: never drop a ``(compute tile, splat)`` pair the compositing kernels
#: would have given a non-zero alpha.  The kernels evaluate
#: ``opacity * exp(-q/2) >= alpha_threshold`` per pixel; the binning
#: solves the same inequality for the bounding box of the ellipse
#: ``q <= level``.  Both sides round: the product and the logarithm by a
#: few ulps of ``level``, the quadratic form ``q`` by a few ulps times the
#: conic's condition number (<= ~1e8 with the 0.3 px low-pass), the
#: extents by a few ulps of themselves.  So the level and then the
#: half-extents are each grown by ``margin * (1 + value)``; at 1e-6 that
#: is >100x the worst of those errors in float64 and widens a footprint by
#: about a millionth of its size, i.e. admits no measurable number of
#: extra pairs.  Fixed, not configurable (the ``frustum._PREFILTER_MARGIN``
#: idiom): correctness needs only "much larger than rounding".  The
#: ``native`` kernels read this value (their generated header's
#: ``FOOTPRINT_MARGIN``), so both backends bin by one margin.
_FOOTPRINT_MARGIN = 1e-6


def compute_tile(settings: "RasterSettings") -> int:
    """The compute-tile edge of a render: ``_COMPUTE_TILE``, or
    ``settings.tile_size`` itself when 8 does not divide it — the one rule
    both backends bin by.  Raises ``ValueError`` for a tile size below 1."""
    ts = int(settings.tile_size)
    if ts < 1:
        raise ValueError(f"tile_size must be positive, got {ts}")
    return _COMPUTE_TILE if ts % _COMPUTE_TILE == 0 else ts


@dataclass
class RasterSettings:
    """Knobs of the rasterization pipeline.

    ``alpha_threshold`` and ``max_alpha`` follow the reference
    implementation (1/255 contribution floor, 0.99 opacity ceiling);
    ``transmittance_min`` is the early-termination threshold expressed as a
    mask (set to 0 for exact full compositing, e.g. in gradient checks).

    Substrate knobs:

    - ``cache_blend_state``: the forward pass keeps its blending state on
      the :class:`RenderContext` (NumPy: the slab cache in
      ``blend_cache``; ``native``: blend records in ``blocks``) and the
      backward pass reads it instead of replaying the forward.  Opting out
      trades that replay for activation memory (what the paper's CUDA
      kernels do, and what CLM's activation accounting assumes: the
      engines turn it off under a GPU pool and for forward-only renders).
    - ``kernel_backend``: which registered kernel backend executes the
      compositing (see :mod:`repro.kernels`).  ``None``/``"auto"`` defers
      to the ``REPRO_KERNEL_BACKEND`` env override, then the fastest
      available backend.
    """

    tile_size: int = 16
    background: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    alpha_threshold: float = 1.0 / 255.0
    transmittance_min: float = 1e-4
    max_alpha: float = 0.99
    active_sh_degree: Optional[int] = None
    cache_blend_state: bool = True
    kernel_backend: Optional[str] = None


@dataclass
class ProjectedGaussians:
    """Per-view screen-space quantities for the *valid* (renderable) subset.

    ``ids`` maps rows of every array here back to the caller's input
    ordering, so gradients can be scattered into full-size tensors.

    ``shapes``, ``dirs`` and ``dir_norms`` are the geometry the forward pass
    derived from the model and the backward pass needs again (rotation
    matrices, activated scales, unit quaternions; unit view directions).
    :func:`preprocess` retains them — 21 floats a Gaussian — so a view's
    geometry is computed once; a projection built without them makes the
    backward pass rebuild them from the model, to the same gradients.
    """

    ids: np.ndarray  # (M,) indices into the input model
    means2d: np.ndarray  # (M, 2)
    depths: np.ndarray  # (M,)
    t_cam: np.ndarray  # (M, 3)
    offsets: np.ndarray  # (M, 3) world offset from camera centre
    cov_cam: np.ndarray  # (M, 3, 3) camera-space covariance (saved for bwd)
    cov2d: np.ndarray  # (M, 2, 2)
    conics: np.ndarray  # (M, 2, 2)
    colors: np.ndarray  # (M, 3)
    clamp_mask: np.ndarray  # (M, 3) colour channels clamped at zero
    opacities: np.ndarray  # (M,) activated
    radii: np.ndarray  # (M,) pixel radii
    sh_degree_used: int = 0
    shapes: Optional[GaussianShape] = None  # scales, unit quats, rotations
    dirs: Optional[np.ndarray] = None  # (M, 3) unit camera->Gaussian
    dir_norms: Optional[np.ndarray] = None  # (M, 1) |offsets|, clamped


@dataclass
class TileBins:
    """CSR binning of one view over *compute tiles*.

    ``tile_size`` here is the compute-tile edge (``_COMPUTE_TILE``, or
    ``RasterSettings.tile_size`` when 8 does not divide it), not the
    semantic ``RasterSettings.tile_size``; ``tiles_x``/``tiles_y`` is the
    compute-tile grid covering the image.
    ``order[offsets[i] : offsets[i + 1]]`` are the rows (into the
    :class:`ProjectedGaussians` arrays) whose footprint touches the compute
    tile with linear id ``tile_ids[i]`` (``tile_id = ty * tiles_x + tx``),
    sorted near-to-far (ties broken by row index, matching the legacy
    stable sort).  A row absent from a tile has zero alpha on every pixel
    of it, so compositing over these bins equals compositing over the full
    ``tile_size`` spans (see :func:`build_tile_bins`).
    """

    tile_size: int
    tiles_x: int
    tiles_y: int
    width: int
    height: int
    tile_ids: np.ndarray  # (T,) ascending linear tile ids, non-empty only
    offsets: np.ndarray  # (T + 1,)
    order: np.ndarray  # (E,) rows into ProjectedGaussians, depth-sorted

    @property
    def num_tiles(self) -> int:
        return int(self.tile_ids.size)

    @property
    def num_entries(self) -> int:
        return int(self.order.size)

    def counts(self) -> np.ndarray:
        """Per-tile bin lengths ``(T,)``."""
        return np.diff(self.offsets)

    def tile_xy(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(tx, ty)`` tile coordinates of every non-empty tile."""
        return self.tile_ids % self.tiles_x, self.tile_ids // self.tiles_x


@dataclass
class RenderContext:
    """Everything the backward pass needs (the 'activation state')."""

    camera: Camera
    settings: RasterSettings
    proj: ProjectedGaussians
    bins: TileBins
    num_input: int = 0
    #: Per-slab blending state retained by the forward pass when
    #: ``settings.cache_blend_state``: one dict of arrays per slab, owned
    #: by the kernel backend (``repro.kernels.numpy_backend._blend_slab``:
    #: ``weights``/``odds``/``gate`` cell tensors, ``t_final``, and the
    #: slab's tile and CSR-entry indices).
    blend_cache: Optional[List[dict]] = None
    #: Name of the kernel backend that actually composited this render
    #: (after auto-selection and a failed build's fallback) — stamped by
    #: :func:`rasterize_forward`, surfaced through ``PerfCounters`` and
    #: the bench records.
    kernel_backend: str = "numpy"
    #: ``(proj, floats, ints, clamp)`` of a render whose backend laid the
    #: per-Gaussian state out in blocks of its own (``native``: one float64
    #: block of 52 values a survivor, one int64 block of ids and CSR arrays,
    #: one byte block) — ``proj`` and ``bins`` are views into them, no other
    #: context shares them, and they are sized by the survivors, not by the
    #: input rows.  With ``settings.cache_blend_state`` three more blocks
    #: follow: the blend records its backward pass reads instead of
    #: replaying the forward (``native_backend._kept_blocks``).
    blocks: Optional[tuple] = None
    #: The backward pass of the backend that laid the state out in
    #: ``blocks`` (``native``: one C call over them), ``(ctx, model,
    #: dL_dimage) -> gradients``; ``None`` when the NumPy reference made the
    #: context.
    backward: Optional[Callable] = None

    def backward_pass(self) -> Callable:
        """The backward pass for this context: its maker's, while ``proj`` is
        still the object that was cut out of the maker's blocks; the NumPy
        reference for a context NumPy made or whose projection was
        replaced."""
        if self.backward is not None and self.blocks[0] is self.proj:
            return self.backward
        from repro.kernels.numpy_backend import view_backward

        return view_backward

    def blend_state_bytes(self) -> int:
        """Bytes of blend state retained for the backward pass: the NumPy
        blend cache or the ``native`` blend records."""
        arrays = list(self.blocks[4:]) if self.blocks else []
        for group in self.blend_cache or ():
            arrays += [v for v in group.values() if isinstance(v, np.ndarray)]
        return sum(arr.nbytes for arr in arrays)

    def activation_bytes(self) -> int:
        """Actual activation footprint: the per-Gaussian projected state,
        the CSR tile keys, and (when retained) the blend state.  Tests
        sanity-check the memory model's claim that activations scale with
        ``|S_i|`` against this.  The per-Gaussian term is 34 floats of
        screen-space state plus, when :func:`preprocess` retained it, the
        21 floats of geometry the backward pass reads back
        (:class:`~repro.gaussians.covariance.GaussianShape` 17, view
        directions 4) — 440 bytes, inside the analytic pool model's
        ``ACT_PER_GAUSSIAN`` (``core/memory_model``).  Tile keys and blend
        cache both count ``(compute tile, splat)`` pairs that survive the
        footprint test: against full ``tile_size`` spans the blend cache
        roughly halves (fewer zero-alpha cells retained, 17 bytes each)
        while the tile keys, 8 bytes a pair, roughly double (four times
        the tiles).  The analytic pool model reads neither.  A context
        whose state lives in ``blocks`` holds exactly these fields and no
        more: 427 bytes a Gaussian (the clamp mask as 3 bytes, not the 3
        floats budgeted here, plus the 8-byte id, which is not), the tile
        keys, a ``2 T + 1`` int64 CSR header and any blend records."""
        floats = 2 + 1 + 3 + 3 + 9 + 4 + 4 + 3 + 3 + 1 + 1
        if self.proj.shapes is not None:
            floats += 3 + 1 + 4 + 9
        if self.proj.dirs is not None:
            floats += 3 + 1
        return (
            self.proj.ids.size * floats * 8
            + self.bins.num_entries * 8
            + self.blend_state_bytes()
        )


def _splat_on_screen(
    x: np.ndarray, y: np.ndarray, r: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Whether a splat rectangle ``[x - r, x + r] x [y - r, y + r]``
    intersects the image ``[0, width) x [0, height)``.

    Strict bounds: a Gaussian whose rectangle only *touches* an image edge
    (``x - r == width``) covers no pixel and no tile — the non-strict
    ``<=``/``>=`` bounds used before PR 4 kept a one-pixel band of such
    never-visible Gaussians alive through binning and compositing.
    """
    return (x + r > 0) & (x - r < width) & (y + r > 0) & (y - r < height)


def preprocess(
    camera: Camera, model: GaussianModel, settings: RasterSettings
) -> ProjectedGaussians:
    """Project all input Gaussians and drop the unrenderable ones.

    A Gaussian survives when it is in front of the near plane, its 2D
    covariance is positive definite, its radius is non-zero and its splat
    rectangle intersects the image.
    """
    degree = (
        settings.active_sh_degree
        if settings.active_sh_degree is not None
        else model.sh_degree
    )
    degree = min(degree, model.sh_degree)

    # One geometry pass: the scales, unit quaternions and rotations behind
    # the covariance are also what the frustum test below and the backward
    # pass read.
    shapes = GaussianShape.of(model.log_scales, model.quaternions)
    means2d, depths, t_cam = project_means(camera, model.positions)
    cov2d, cov_cam = project_covariance(
        shapes.covariance(), t_cam, camera.rotation, camera.fx, camera.fy
    )
    conics, det = invert_cov2d(cov2d)
    radii = splat_radii(cov2d)

    in_front = depths > camera.znear
    positive = det > 0
    visible = in_front & positive & (radii > 0)
    # Fused frustum culling (§5.1): the rendering kernels apply the same
    # 3-sigma support test that pre-rendering culling uses — the same
    # function, on every row — so rendering the whole model and rendering
    # the pre-culled subset S_i are *identical*: the property the enhanced
    # baseline and CLM rely on.  On a pre-culled subset nearly every centre
    # is inside the frustum and takes the test's accept path.
    visible &= ellipsoids_in_frustum(
        frustum_planes(camera),
        model.positions,
        shapes.scales,
        model.quaternions,
        shapes.rotations,
    )
    if visible.any():
        visible &= _splat_on_screen(
            means2d[:, 0], means2d[:, 1], radii, camera.width, camera.height
        )
    ids = np.nonzero(visible)[0].astype(np.int64)

    offsets = model.positions[ids] - camera.center
    dirs, dir_norms = unit_and_norm(offsets)
    colors, clamp_mask = sh_module.sh_to_color(model.sh[ids], dirs, degree)
    opacities = sigmoid(model.opacity_logits[ids])

    return ProjectedGaussians(
        ids=ids,
        means2d=means2d[ids],
        depths=depths[ids],
        t_cam=t_cam[ids],
        offsets=offsets,
        cov_cam=cov_cam[ids],
        cov2d=cov2d[ids],
        conics=conics[ids],
        colors=colors,
        clamp_mask=clamp_mask,
        opacities=opacities,
        radii=radii[ids],
        sh_degree_used=degree,
        shapes=shapes.take(ids),
        dirs=dirs,
        dir_norms=dir_norms,
    )


def _tile_spans(
    camera: Camera, proj: ProjectedGaussians, ts: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-Gaussian inclusive rectangles ``(x0, x1, y0, y1)`` of the
    ``ts``-pixel tiles their 3-sigma radius touches, clipped to the grid."""
    tiles_x = (camera.width + ts - 1) // ts
    tiles_y = (camera.height + ts - 1) // ts
    x = proj.means2d[:, 0]
    y = proj.means2d[:, 1]
    r = proj.radii

    def tile(coord: np.ndarray, last: int) -> np.ndarray:
        # min(max()) is np.clip without its per-call dtype-limit checks.
        return np.minimum(np.maximum((coord // ts).astype(np.int64), 0), last)

    x0, x1 = tile(x - r, tiles_x - 1), tile(x + r, tiles_x - 1)
    y0, y1 = tile(y - r, tiles_y - 1), tile(y + r, tiles_y - 1)
    return x0, x1, y0, y1


def _compute_tile_rects(
    camera: Camera, proj: ProjectedGaussians, settings: RasterSettings, sub: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-Gaussian compute-tile rectangles ``(rows, cx0, cx1, cy0, cy1)``.

    ``rows`` are the Gaussians with a non-empty *footprint*: the pixels of
    their semantic tile span (:func:`_tile_spans` at ``settings.tile_size``),
    inside the image, whose centres lie in the inflated bounding box of
    ``{alpha_raw >= alpha_threshold}`` (see ``_FOOTPRINT_MARGIN``).  The
    rectangles are inclusive ranges of ``sub``-pixel compute tiles.
    """
    ts = settings.tile_size
    x0, x1, y0, y1 = _tile_spans(camera, proj, ts)
    # Inclusive pixel ranges of the semantic span clipped to the image.
    lo_x = (x0 * ts).astype(np.float64)
    hi_x = np.minimum((x1 + 1) * ts, camera.width) - 1.0
    lo_y = (y0 * ts).astype(np.float64)
    hi_y = np.minimum((y1 + 1) * ts, camera.height) - 1.0

    tau = settings.alpha_threshold
    opac = proj.opacities
    keep = np.ones(opac.size, dtype=bool)
    if tau > 0:
        a = proj.conics[:, 0, 0]
        b = proj.conics[:, 0, 1]
        c = proj.conics[:, 1, 1]
        # alpha_raw = opacity * exp(-q/2) >= tau  <=>  q <= 2 ln(opacity/tau),
        # an ellipse whose bounding box has half-extents sqrt(level * c/det),
        # sqrt(level * a/det).  A non-finite extent (degenerate conic, NaN
        # opacity) falls back to the whole span.
        with np.errstate(divide="ignore", invalid="ignore"):
            level = 2.0 * np.log(opac / tau)
            level += _FOOTPRINT_MARGIN * (1.0 + level)
            det = a * c - b * b
            half_x = np.sqrt(level * c / det)
            half_y = np.sqrt(level * a / det)
            half_x += _FOOTPRINT_MARGIN * (1.0 + half_x)
            half_y += _FOOTPRINT_MARGIN * (1.0 + half_y)
        half_x = np.where(np.isfinite(half_x), half_x, np.inf)
        half_y = np.where(np.isfinite(half_y), half_y, np.inf)
        # Pixel i has its centre at i + 0.5.
        mx = proj.means2d[:, 0] - 0.5
        my = proj.means2d[:, 1] - 0.5
        lo_x = np.maximum(lo_x, np.ceil(mx - half_x))
        hi_x = np.minimum(hi_x, np.floor(mx + half_x))
        lo_y = np.maximum(lo_y, np.ceil(my - half_y))
        hi_y = np.minimum(hi_y, np.floor(my + half_y))
        # opacity < tau passes the threshold nowhere (exp(.) <= 1).
        keep &= ~(opac < tau)

    keep &= (lo_x <= hi_x) & (lo_y <= hi_y)
    rows = np.nonzero(keep)[0]

    def tiles(px: np.ndarray) -> np.ndarray:
        return px[rows].astype(np.int64) // sub

    return rows, tiles(lo_x), tiles(hi_x), tiles(lo_y), tiles(hi_y)


def build_tile_bins(
    camera: Camera, proj: ProjectedGaussians, settings: RasterSettings
) -> TileBins:
    """Bin projected Gaussians into compute tiles as one flat CSR array
    program.

    Two levels: ``settings.tile_size`` defines which splats may reach which
    pixels (the 3-sigma tile span), the bins are built at the compute tile
    (``_COMPUTE_TILE``, or ``tile_size`` itself when 8 does not divide it)
    from each splat's thresholded footprint inside that span.  The
    Gaussians are put in ``(depth, row)`` order first — the legacy stable
    sort's near-to-far order and tie-breaking — so that after per-Gaussian
    compute-tile counts and ``np.repeat`` have emitted the flat
    ``(tile_id, gauss_row)`` pair list, one *stable* sort by tile id alone
    (a radix sort, the ids being small) yields the CSR order and one
    ``np.bincount`` the offsets.  No Python loop over Gaussians or tiles.
    """
    sub = compute_tile(settings)
    tiles_x = (camera.width + sub - 1) // sub
    tiles_y = (camera.height + sub - 1) // sub
    kept, x0, x1, y0, y1 = _compute_tile_rects(camera, proj, settings, sub)
    # ``kept`` ascends, so a stable sort by depth breaks ties by row.
    near_first = np.argsort(proj.depths[kept], kind="stable")
    kept, x0, x1, y0, y1 = (a[near_first] for a in (kept, x0, x1, y0, y1))

    nx = x1 - x0 + 1
    counts = nx * (y1 - y0 + 1)
    total = int(counts.sum())
    rows = np.repeat(kept, counts)
    # Local rank of each emitted pair inside its Gaussian's rectangle, then
    # the (tx, ty) offset within it.
    starts = np.cumsum(counts) - counts
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    nx_flat = np.repeat(nx, counts)
    lx = local % nx_flat
    ly = local // nx_flat
    tile = (np.repeat(y0, counts) + ly) * tiles_x + (np.repeat(x0, counts) + lx)

    num_tiles = tiles_x * tiles_y
    # NumPy's stable sort is a linear-time radix sort on 16-bit keys.
    key = tile.astype(np.int16) if num_tiles < 2**15 else tile
    per_tile = np.bincount(tile, minlength=num_tiles)
    tile_ids = np.flatnonzero(per_tile)
    offsets = np.zeros(tile_ids.size + 1, dtype=np.int64)
    np.cumsum(per_tile[tile_ids], out=offsets[1:])
    return TileBins(
        tile_size=sub,
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        width=camera.width,
        height=camera.height,
        tile_ids=tile_ids,
        offsets=offsets,
        order=rows[np.argsort(key, kind="stable")],
    )


# ----------------------------------------------------------------------
# Grouped substrate
# ----------------------------------------------------------------------


@dataclass
class _AugArrays:
    """Projected per-Gaussian quantities with one zero pad row appended.

    Row ``M`` (the pad) carries zero opacity, so padded bin entries
    composite and differentiate to exactly nothing; scatter reductions drop
    the pad row after the fact.
    """

    means_x: np.ndarray
    means_y: np.ndarray
    conic_a: np.ndarray
    conic_b: np.ndarray
    conic_c: np.ndarray
    opac: np.ndarray
    colors: np.ndarray

    @classmethod
    def from_proj(cls, proj: ProjectedGaussians) -> "_AugArrays":
        m = proj.ids.size
        # One zeroed block; each scalar field is a contiguous row of it.
        fields = np.zeros((6, m + 1))
        fields[0, :m] = proj.means2d[:, 0]
        fields[1, :m] = proj.means2d[:, 1]
        fields[2, :m] = proj.conics[:, 0, 0]
        fields[3, :m] = proj.conics[:, 0, 1]
        fields[4, :m] = proj.conics[:, 1, 1]
        fields[5, :m] = proj.opacities
        colors = np.zeros((m + 1, 3))
        colors[:m] = proj.colors
        return cls(*fields, colors)


def iter_tile_groups(bins: TileBins) -> Iterator["tuple[np.ndarray, int]"]:
    """Yield ``(tile_indices, padded_len)`` slabs over the CSR bins.

    Tiles are sorted by bin length and chunked greedily: a slab holds at
    most ``_MAX_GROUP_TILES`` tiles, at most ``_MAX_GROUP_CELLS``
    ``tiles x splats x pixels`` cells, and each tile is padded to the
    slab's longest bin with the padded total capped at ``_MAX_PAD_WASTE``
    of the real entries.  Sorting keeps neighbouring bin lengths close, so
    the cap rarely cuts.  The iteration order is deterministic, so a
    cached forward pass and a cache-less backward pass walk identical
    groups.
    """
    counts = bins.counts()
    n = counts.size
    if n == 0:
        return
    by_len = np.argsort(counts, kind="stable")
    sorted_counts = counts[by_len]
    csum = np.concatenate([[0], np.cumsum(sorted_counts)])
    pixels = bins.tile_size**2
    i = 0
    while i < n:
        j = i + 1
        while (
            j < n
            and (j - i) < _MAX_GROUP_TILES
            and (j - i + 1) * int(sorted_counts[j]) * pixels
            <= _MAX_GROUP_CELLS
            and (j - i + 1) * int(sorted_counts[j])
            <= _MAX_PAD_WASTE * (csum[j + 1] - csum[i])
        ):
            j += 1
        yield by_len[i:j], int(sorted_counts[j - 1])
        i = j


def _tile_major_to_image(
    canvas: np.ndarray, bins: TileBins
) -> np.ndarray:
    """Reorder a ``(tiles, P, ...)`` tile-major canvas into image layout and
    crop the tile padding."""
    ts = bins.tile_size
    trailing = canvas.shape[2:]
    img = (
        canvas.reshape((bins.tiles_y, bins.tiles_x, ts, ts) + trailing)
        .transpose((0, 2, 1, 3) + tuple(range(4, 4 + len(trailing))))
        .reshape((bins.tiles_y * ts, bins.tiles_x * ts) + trailing)
    )
    return np.ascontiguousarray(img[: bins.height, : bins.width])


def image_to_tile_major(image: np.ndarray, bins: TileBins) -> np.ndarray:
    """Pad an ``(H, W, ...)`` image to the tile grid and reorder it into a
    ``(tiles, P, ...)`` tile-major tensor (used to gather per-tile upstream
    gradients in the backward pass)."""
    ts = bins.tile_size
    trailing = image.shape[2:]
    padded = np.zeros(
        (bins.tiles_y * ts, bins.tiles_x * ts) + trailing, dtype=image.dtype
    )
    padded[: bins.height, : bins.width] = image
    return (
        padded.reshape((bins.tiles_y, ts, bins.tiles_x, ts) + trailing)
        .transpose((0, 2, 1, 3) + tuple(range(4, 4 + len(trailing))))
        .reshape((bins.tiles_y * bins.tiles_x, ts * ts) + trailing)
    )


def rasterize_forward(
    camera: Camera,
    model: GaussianModel,
    settings: Optional[RasterSettings] = None,
) -> "tuple[np.ndarray, np.ndarray, RenderContext]":
    """Render ``model`` through ``camera`` on the grouped substrate.

    Returns ``(image, transmittance, ctx)`` where ``image`` is
    ``(H, W, 3)`` float64, ``transmittance`` the per-pixel
    residual ``T`` (1 where nothing rendered) and ``ctx`` the saved state
    for the backward pass (including the blend cache when
    ``settings.cache_blend_state``).
    """
    settings = settings or RasterSettings()
    # One dispatch per render: the NumPy reference runs ``preprocess``,
    # ``build_tile_bins`` and its slab kernels; ``native`` runs the whole
    # view in C.
    from repro.kernels import compile_with_fallback, resolve_backend

    fn, _ = compile_with_fallback(resolve_backend(settings.kernel_backend), "view_forward")
    return fn(camera, model, settings)
