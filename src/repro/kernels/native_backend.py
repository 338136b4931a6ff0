"""The ``native`` kernel backend — a view in C, built at first use.

Where the NumPy reference streams a view through a few hundred small
array calls (projection, binning, ~25 whole-tensor passes over padded
``(G, T, P)`` slabs, the gradient chain), ``native_kernels.c`` runs it as
three native calls:

- ``view_forward`` is two — ``view_project`` (the 3-sigma frustum test and
  ``preprocess`` for the rows it lets through, then the counting half of
  ``build_tile_bins``: it reports how many rows survived, how many tiles
  are non-empty and how many ``(tile, splat)`` entries there are) and
  ``view_composite`` (fills the CSR arrays, composites, crops the image);
- ``view_backward`` is one: the compositing gradient, then
  ``_chain_to_parameters`` scattered to the five full-size arrays.

Between the two forward calls Python allocates the render's own buffers,
sized by what survived: **one float64 block** of 52 values a survivor
(:data:`_FIELDS`: means2d, depths, t_cam, offsets, cov_cam, cov2d, conics,
colours, opacities, radii, scales, quat norms, unit quats, rotations, dirs,
dir norms — field after field, each C-contiguous), one int64 block (ids,
then ``tile_ids | offsets | order``) and one byte block (the clamp mask),
plus the blend records below when the backward pass is to read them.
``ProjectedGaussians``, ``GaussianShape`` and ``TileBins`` are views into
them, they ride on ``RenderContext.blocks``, and nothing else — no other
render, no cache on the camera, model or engine — ever shares them.  The
scratch ``view_project`` writes into is sized by the *input* rows and dies
with the forward call, so a 20 000-row model of which 130 rows survive
retains 130 rows.  What pays is the few calls over few pointers: ctypes
marshalling costs 2.8 us an ``ndpointer`` argument, the parent's per-array
granularity made ~110 of them a view, 18 ``np.empty`` calls cost 0.009 ms.

The 3-sigma frustum verdict is one ``static`` C function, ``in_frustum``,
called from two places: ``view_project``, per input row, and the
``exact_cull`` op behind :func:`repro.gaussians.frustum.exact_cull` — so
under this backend, as under the reference, pre-rendering culling and
rendering execute one arithmetic and agree on every row bit for bit.
``exact_cull`` walks the named rows over the *full* critical arrays without
gathering them and takes a row stride per array, so the strided views of
``GpuCriticalStore``'s packed ``(N, 10)`` block run here too.  Against the
reference (:func:`~repro.gaussians.frustum.ellipsoids_in_frustum`, whose
signed distances come out of a BLAS product) the index sets are equal
except on a rounding tie, ``|n . p + d + r|`` within a few ulps.

Inside, the view ops run the same two compositing loops the raster ops
expose (``raster_forward`` / ``raster_backward``): they walk the CSR
:class:`~repro.gaussians.rasterizer.TileBins` once per tile and keep the
compositing recurrence in registers, like the paper's CUDA kernels: per
``(tile, splat)`` entry only the pixels of the splat's thresholded
footprint rectangle (computed once per splat) are visited, and along each
of its rows ``exp`` is taken once at the first cell past the cut, then
advanced by two multiplies a cell — re-anchored every 8 cells, and
recomputed with libm wherever the value lies within 1e-12 of the alpha
threshold, so that libm decides which cells pass.  With
``RasterSettings.cache_blend_state`` ``view_composite`` keeps the exp
value, ``T_before`` and pixel of every cell that passed — the **blend
records** (:func:`_records`), sized by the footprint area ``view_project``
reports — and ``view_backward`` walks them back to front in one sweep;
without it (under a GPU pool, for forward-only renders, and in the raster
ops) the backward pass first replays the forward through the same walk to
regenerate them, to bit-identical gradients.  ``group_size`` has no
effect here.

CLM's data path is the third part, one native call per public method of
the stores and optimizers, over row indices: ``assemble_rows``
(``GpuWorkingSet.assemble``: cache copies, pinned-row loads and the
critical gather into one block per working set, gradients zeroed but for
the carried rows), ``add_grads_rows``, ``retire_rows`` (the offload into
the padded pinned gradient rows, plus the carried copy), ``zero_rows``
(both stores' ``zero_grads``) and ``adam_rows`` (``PackedSparseAdam`` /
``SparseAdam``: the fused Adam step in place over the rows, no gathered
block).  Where the reference places a set with ``np.searchsorted`` the C
walks it through the sorted set it indexes, needing no scratch, and each
call checks every row before it writes: one outside the store raises
``IndexError``, one that is not a member, in order, of the set it indexes
(or, for Adam, one that repeats) ``ValueError``.  These calls are copies,
adds and ``fused_adam_update``'s operations in its order, so unlike the
view ops they are bit-identical to NumPy.  Their binding cost is the
addresses (~1.1 us an ``ndarray.ctypes``; a ctypes view of a writable
buffer, :func:`_address`, ~0.35 us), so each call takes few.

The kernels are kept as C source inside the package and compiled at run
time (the MOT ``CLFunction`` idiom of SNIPPETS.md) with the first of
``$CC``, ``cc``, ``gcc``, ``clang`` found on ``PATH``:

- flags :data:`CFLAGS` — no ``-ffast-math``, no ``-march``, no FMA
  contraction, one thread: every operation rounds as an IEEE double in
  program order, so two runs are ``np.array_equal`` on any x86-64/aarch64
  host and the results sit inside the 1e-12 image / 1e-10 gradient bars of
  the per-tile oracle in ``tests/reference/`` (not bit-equal to NumPy,
  which reduces through BLAS);
- built once per ``sha256(source + flags + "cc --version")`` into
  ``${XDG_CACHE_HOME:-~/.cache}/repro-kernels/`` (created 0700) through a
  temporary file and an atomic rename; the file name also carries the
  digest of the library itself, so a truncated or altered file is rebuilt,
  never loaded;
- a cache that is not the user's own — the directory cannot be created or
  written, or it or a cached file is owned by someone else or writable by
  others — is not used: the library is built into a private ``mkdtemp``
  for this process instead;
- loaded through :mod:`ctypes` (which releases the GIL around each call)
  under a lock, once per process.

Without a compiler the backend registers as unavailable and ``auto``
lands on NumPy silently.  A build or load that fails raises from
:meth:`~repro.kernels.registry.KernelBackend.compile`, which
:func:`~repro.kernels.registry.compile_with_fallback` turns into one
:class:`RuntimeWarning`; the failure is remembered, so from then on the
backend reports itself unavailable (``repro backends`` shows the reason)
and every caller runs on the reference.  All ten ops are implemented,
over float64 C-contiguous operands (``exact_cull``: float64 rows, each
contiguous): a float32 blend state (``dtype="float32"``), a model array
that is float32 or not C-contiguous, a backward pass over a context NumPy
made or whose projection was replaced, and float32 gradient staging
(``grad_dtype="float32"``) stay on NumPy through the registry's per-op
fallback — and a view the view ops declined still composites on the
raster kernels here.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
from importlib import resources
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.kernels.registry import (
    KernelBackend,
    KernelSpec,
    register_backend,
    rows_contiguous,
)

SOURCE = "native_kernels.c"
#: Everything that decides how the library rounds is here, and keys the
#: cache.  ``-O3`` may vectorize and unroll but, without ``-ffast-math``,
#: not reorder a floating-point operation; ``-fno-math-errno`` only stops
#: libm calls from writing ``errno``.
CFLAGS = (
    "-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off",
    "-fno-math-errno",
)
_COMPILERS = ("cc", "gcc", "clang")
_ROW_OPS = ("assemble_rows", "add_grads_rows", "retire_rows", "zero_rows", "adam_rows")
_OPS = frozenset({
    "exact_cull", "view_forward", "view_backward", "raster_forward_slab",
    "raster_backward_slab", *_ROW_OPS,
})

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# ndpointer arguments check dtype and contiguity on every call and keep the
# array alive for its duration; sizes are checked by :func:`_operands`.
_I64S = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64S = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_BINS = [_I64, _I64S, _I64S, _I64S, _I64, _I64, _I64, _I64]
_SPLATS = [_I64] + [_F64S] * 7  # rows; means x/y, conic a/b/c, opacity, colours
_SIGNATURES = {
    "raster_forward": _BINS + _SPLATS + [_F64S, _F64, _F64, _F64, _F64S, _F64S],
    "raster_backward": _BINS + _SPLATS
    + [_F64S, _F64S, _F64, _F64, _F64, _F64S, _F64S, _F64S, _F64S],
    # The view ops take addresses: their operands are the model's arrays
    # (checked by :func:`_model_arrays`) and blocks allocated right here,
    # and 2.8 us of ``ndpointer`` marshalling an argument is what they save.
    "exact_cull": [_I64, _PTR] + [_PTR, _I64] * 3 + [_PTR, _I64, _PTR],
    "view_project": [_I64] + [_PTR] * 6 + [_I64, _I64, _PTR] + [_I64] * 4 + [_PTR] * 2,
    "view_composite": [_I64, _PTR, _PTR, _PTR, _I64, _I64, _I64] + [_PTR] * 8,
    "view_backward": [_I64] * 5 + [_PTR] * 7 + [_I64, _I64, _PTR]
    + [_I64] * 3 + [_PTR] * 6,
    # The data path takes addresses too (``.ctypes.data`` costs ~1.2 us an
    # array): its buffers are the stores' and the optimizers', checked by
    # :func:`_buffer`, and index vectors, coerced by :func:`_rows`.
    "rows_assemble": [_I64] * 3 + [_PTR] * 3 + [_I64, _PTR, _I64, _PTR, _I64]
    + [_PTR, _I64, _PTR, _PTR] * 2 + [_PTR],
    "rows_add_grads": [_I64, _I64, _PTR, _I64] + [_PTR] * 8,
    "rows_retire": [_I64] * 3 + [_PTR] * 2 + [_I64] + [_PTR] * 3
    + [_I64, _PTR, _I64, _PTR],
    "rows_zero": [_I64, _I64, _PTR, _PTR, _I64],
    "adam_rows": [_PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR]
    + [_I64, _PTR, _F64, _F64, _F64, _PTR, _PTR, _I64, _I64],
}
#: Per-Gaussian fields of a render's float64 block, in the order and widths
#: of ``native_kernels.c``'s ``F_*`` table: field after field, each a
#: C-contiguous ``(m, *shape)`` array.
_FIELDS = (
    ("means2d", (2,)), ("depths", ()), ("t_cam", (3,)), ("offsets", (3,)),
    ("cov_cam", (3, 3)), ("cov2d", (2, 2)), ("conics", (2, 2)),
    ("colors", (3,)), ("opacities", ()), ("radii", ()), ("scales", (3,)),
    ("quat_norms", (1,)), ("unit_quats", (4,)), ("rotations", (3, 3)),
    ("dirs", (3,)), ("dir_norms", (1,)),
)
_WIDTHS = [int(np.prod(shape)) for _, shape in _FIELDS]
_RETAINED = sum(_WIDTHS)  # 52 doubles
_SCRATCH = _RETAINED + 5  # + means x / y, conic a / b / c as separate arrays
_FLOAT64 = np.dtype(np.float64)


def find_compiler() -> Optional[List[str]]:
    """``argv`` prefix of the C compiler to build with: ``$CC`` (which may
    carry arguments), then ``cc``, ``gcc``, ``clang`` — the first whose
    program is on ``PATH``; ``None`` without one."""
    for candidate in (os.environ.get("CC", ""),) + _COMPILERS:
        argv = shlex.split(candidate)
        program = shutil.which(argv[0]) if argv else None
        if program:
            return [program] + argv[1:]
    return None


def cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro-kernels``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _own(path: Path) -> bool:
    """Whether ``path`` belongs to this user and nobody else can write it —
    the condition for loading code from it (never met where there are no
    POSIX owners to ask about)."""
    info = path.stat()
    return (
        hasattr(os, "getuid")
        and info.st_uid == os.getuid()
        and not info.st_mode & 0o022
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class NativeLibrary:
    """The compiled kernels of one process: found, built and loaded at most
    once.  :attr:`failure` is why the library cannot be used (``None`` while
    it can, or has not been tried)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lib: Optional[ctypes.CDLL] = None
        self.compiler = find_compiler()
        self.compiler_version: Optional[str] = None
        self.path: Optional[Path] = None
        self.failure: Optional[str] = (
            None
            if self.compiler
            else "no C compiler found ($CC, " + ", ".join(_COMPILERS) + ")"
        )

    def load(self) -> ctypes.CDLL:
        """The loaded library, building it on first use; raises
        ``RuntimeError`` (every time) once that has failed."""
        with self._lock:
            if self._lib is None and self.failure is None:
                try:
                    self._lib = self._build_and_load()
                except (OSError, subprocess.SubprocessError, RuntimeError) as exc:
                    self.failure = f"{type(exc).__name__}: {exc}"
            if self._lib is None:
                raise RuntimeError(f"native kernels unavailable: {self.failure}")
            return self._lib

    def _build_and_load(self) -> ctypes.CDLL:
        version = subprocess.run(
            self.compiler + ["--version"],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        self.compiler_version = version.splitlines()[0] if version else None
        source = resources.files("repro.kernels").joinpath(SOURCE).read_bytes()
        key = _digest(source + " ".join(CFLAGS).encode() + version.encode())
        directory = self._directory()
        # The name carries the library's own digest: what is loaded is what
        # a build under this key once wrote, whole.
        for cached in sorted(directory.glob(f"native-{key}-*.so")):
            if _own(cached) and cached.name == self._name(key, cached.read_bytes()):
                break
        else:
            cached = self._build(source, key, directory)  # replaces a bad file
        lib = ctypes.CDLL(str(cached))
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, ctypes.c_int
        self.path = cached
        return lib

    @staticmethod
    def _name(key: str, library: bytes) -> str:
        return f"native-{key}-{_digest(library)}.so"

    @staticmethod
    def _directory() -> Path:
        """The user's cache directory when it is theirs alone and writable,
        else a private temporary directory removed at exit."""
        directory = cache_dir()
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _own(directory) and os.access(directory, os.W_OK | os.X_OK):
                return directory
        except OSError:
            pass
        directory = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        return directory

    def _build(self, source: bytes, key: str, directory: Path) -> Path:
        fd, scratch = tempfile.mkstemp(
            dir=directory, prefix=f"native-{key}-", suffix=".tmp"
        )
        os.close(fd)
        try:
            done = subprocess.run(
                self.compiler + list(CFLAGS)
                + ["-x", "c", "-", "-o", scratch, "-lm"],
                input=source, capture_output=True, timeout=300,
            )
            if done.returncode != 0:
                tail = done.stderr.decode(errors="replace").strip()[-400:]
                raise RuntimeError(
                    f"{' '.join(self.compiler)} exited {done.returncode}"
                    + (f": {tail}" if tail else "")
                )
            os.chmod(scratch, 0o700)
            final = directory / self._name(key, Path(scratch).read_bytes())
            os.replace(scratch, final)
            return final
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)


def _require_shapes(**expected) -> None:
    """``name=(array, shape)``: the sizes the C loops will index by."""
    wrong = [
        f"{name} is {arr.shape}, not {shape}"
        for name, (arr, shape) in expected.items()
        if arr.shape != shape
    ]
    if wrong:
        raise ValueError("native kernel operands: " + "; ".join(wrong))


def _operands(bins, aug) -> list:
    """The leading arguments of both kernels — CSR bins and per-Gaussian
    arrays — after checking every size and index the C loops rely on."""
    tiles, entries, rows = bins.num_tiles, bins.num_entries, aug.opac.shape[0]
    offsets, order, tile_ids = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (bins.offsets, bins.order, bins.tile_ids)
    )
    splats = dict(
        means_x=aug.means_x, means_y=aug.means_y, conic_a=aug.conic_a,
        conic_b=aug.conic_b, conic_c=aug.conic_c, opac=aug.opac,
    )
    _require_shapes(
        offsets=(offsets, (tiles + 1,)), order=(order, (entries,)),
        colors=(aug.colors, (rows, 3)),
        **{name: (arr, (rows,)) for name, arr in splats.items()},
    )
    if not (
        offsets[0] == 0
        and offsets[-1] == entries
        and (np.diff(offsets) >= 0).all()
        and (entries == 0 or (0 <= order.min() and order.max() < rows))
        and 0 <= tile_ids.min()
        and tile_ids.max() < bins.tiles_x * bins.tiles_y
    ):
        raise ValueError("native kernel operands: inconsistent tile bins")
    return [
        tiles, offsets, order, tile_ids,
        bins.tiles_x, bins.tile_size, bins.width, bins.height,
        rows, *splats.values(), aug.colors,
    ]


def _scalars(settings, bg) -> list:
    return [
        np.ascontiguousarray(bg, dtype=np.float64).reshape(3),
        float(settings.alpha_threshold),
        float(settings.transmittance_min),
        float(settings.max_alpha),
    ]


def _bind(lib: ctypes.CDLL, op: str) -> Callable:
    """The backend-contract callable for ``op`` over the loaded library."""

    def raster_forward(bins, aug, settings, bg, canvas_rgb, canvas_t):
        if bins.num_tiles:
            cells = (bins.tiles_x * bins.tiles_y, bins.tile_size**2)
            _require_shapes(
                canvas_rgb=(canvas_rgb, cells + (3,)), canvas_t=(canvas_t, cells)
            )
            if lib.raster_forward(
                *_operands(bins, aug), *_scalars(settings, bg),
                canvas_rgb, canvas_t,
            ):
                raise MemoryError(
                    "native raster_forward could not allocate its footprints "
                    f"({aug.opac.shape[0]} splats)"
                )
        return None  # no blend cache: raster_backward replays the forward

    def raster_backward(
        bins, aug, settings, g_tiles, bg,
        d_colors, d_opac, d_means2d, d_conics,
        blend_cache=None,
    ):
        if not bins.num_tiles:
            return
        rows = aug.opac.shape[0]
        _require_shapes(
            g_tiles=(g_tiles, (bins.tiles_x * bins.tiles_y, bins.tile_size**2, 3)),
            d_colors=(d_colors, (rows, 3)), d_opac=(d_opac, (rows,)),
            d_means2d=(d_means2d, (rows, 2)), d_conics=(d_conics, (rows, 2, 2)),
        )
        failed = lib.raster_backward(
            *_operands(bins, aug), g_tiles, *_scalars(settings, bg),
            d_colors, d_opac, d_means2d, d_conics,
        )
        if failed:
            raise MemoryError(
                "native raster_backward could not allocate its blend-state "
                f"scratch ({int(bins.counts().max())} splats in one tile)"
            )

    return raster_forward if op == "raster_forward_slab" else raster_backward


def _bind_cull(lib: ctypes.CDLL) -> Callable:
    """``exact_cull`` over the loaded library: every shape, dtype and stride
    the C loop relies on is checked here, row bounds by the loop itself."""

    def exact_cull(planes, positions, log_scales, raw_quats, rows):
        n = positions.shape[0]
        planes = np.ascontiguousarray(planes, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        arrays = dict(
            positions=(positions, (n, 3)), log_scales=(log_scales, (n, 3)),
            raw_quats=(raw_quats, (n, 4)),
        )
        _require_shapes(planes=(planes, (6, 4)), rows=(rows, (rows.size,)), **arrays)
        strided = []
        for name, (arr, _) in arrays.items():
            if arr.dtype != np.float64 or not rows_contiguous(arr):
                raise ValueError(
                    f"native exact_cull: {name} is {arr.dtype} with strides "
                    f"{arr.strides}, not float64 rows"
                )
            strided += [arr.ctypes.data, arr.strides[0] // 8]
        kept = np.empty(rows.size + 1, np.int64)
        if lib.exact_cull(
            n, planes.ctypes.data, *strided, rows.ctypes.data, rows.size,
            kept.ctypes.data,
        ):
            raise IndexError(f"native exact_cull: a row outside [0, {n})")
        return kept[1 : 1 + kept[0]].copy()

    return exact_cull


def _model_arrays(model) -> dict:
    """``model.parameters()``, after checking what the C loops index by:
    float64, C-contiguous, one row per Gaussian."""
    arrays = model.parameters()
    n, k = model.sh.shape[:2] if model.sh.ndim == 3 else (-1, -1)
    shapes = ((n, 3), (n, 3), (n, 4), (n, k, 3), (n,))
    for (name, arr), shape in zip(arrays.items(), shapes):
        if arr.shape != shape or arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ValueError(
                f"native view operands: {name} is {arr.dtype}{arr.shape}, "
                f"not C-contiguous float64{shape}"
            )
    return arrays


def _check(code: int, call: str, wanted: str) -> None:
    """Turn a view call's status into the exception it stands for."""
    if code == 1:
        raise MemoryError(f"native {call} could not allocate {wanted}")
    if code == 3:
        raise RuntimeError(f"native {call}: more blend records than footprint cells")
    if code:
        raise ValueError(f"native {call}: inconsistent tile bins")


def _records(lead: int, cells: int, entries: int) -> tuple:
    """The three blend-record blocks of ``native_kernels.c``'s ``records_t``:
    ``lead`` doubles of final ``T`` then the exp values and ``T_before`` of
    at most ``cells`` cells; their tile-local pixels; ``entries + 1`` ends."""
    try:
        return (
            np.empty(lead + 2 * cells),
            np.empty(cells, np.int32),
            np.empty(entries + 1, np.int64),
        )
    except MemoryError as exc:
        raise MemoryError(
            f"native view_forward could not allocate its blend records "
            f"({cells} cells)"
        ) from exc


def _view_params(camera, settings) -> np.ndarray:
    """The ``params`` vector of ``native_kernels.c`` (its ``P_*`` table)."""
    params = np.empty(23)
    params[:9] = camera.rotation.ravel()
    params[9:12] = camera.center
    params[12:] = (
        camera.fx, camera.fy, camera.cx, camera.cy, camera.znear,
        settings.alpha_threshold, settings.transmittance_min, settings.max_alpha,
        *settings.background,
    )
    return params


def _compute_tile(settings) -> int:
    from repro.gaussians.rasterizer import _COMPUTE_TILE

    ts = int(settings.tile_size)
    if ts < 1:
        raise ValueError(f"tile_size must be positive, got {ts}")
    return _COMPUTE_TILE if ts % _COMPUTE_TILE == 0 else ts


def _bind_view(lib: ctypes.CDLL, op: str, name: str) -> Callable:
    """The whole-view callables: ``view_forward`` is two calls
    (``view_project`` sizes the render's blocks, ``view_composite`` fills
    them and composites), ``view_backward`` one."""
    from repro.gaussians import sh as sh_module
    from repro.gaussians.covariance import GaussianShape
    from repro.gaussians.frustum import frustum_planes
    from repro.gaussians.rasterizer import ProjectedGaussians, RenderContext, TileBins

    def view_forward(camera, model, settings):
        arrays = _model_arrays(model).values()
        n, stored = model.sh.shape[:2]
        degree = model.sh_degree
        if settings.active_sh_degree is not None:
            degree = min(settings.active_sh_degree, degree)
        if sh_module.num_basis(degree) > stored:
            raise ValueError(f"SH degree {degree} needs more than {stored} bases")
        width, height, sub = camera.width, camera.height, _compute_tile(settings)
        tiles_x, tiles_y = -(-width // sub), -(-height // sub)
        # ``view_project`` puts every row to the arbiter ``exact_cull`` put
        # it to, on the same bits.
        planes = frustum_planes(camera)
        params = _view_params(camera, settings)
        scratch = np.empty(_SCRATCH * n)
        work = np.empty(5 + 7 * n + tiles_x * tiles_y + (3 * n + 7) // 8, np.int64)
        lib.view_project(
            n, *(a.ctypes.data for a in arrays), planes.ctypes.data, stored,
            degree, params.ctypes.data, width, height, int(settings.tile_size),
            sub, scratch.ctypes.data, work.ctypes.data,
        )
        m, _, tiles, entries, area = work[:5].tolist()
        # The render's own blocks, sized by what survived.
        floats = np.empty(_RETAINED * m)
        ints = np.empty(m + 2 * tiles + 1 + entries, np.int64)
        clamp = np.empty((m, 3), np.bool_)
        records = ()
        if settings.cache_blend_state:  # for view_backward; never for serving
            records = _records(tiles * sub * sub, area, entries)
        image, trans = np.empty((height, width, 3)), np.empty((height, width))
        failed = lib.view_composite(
            n, scratch.ctypes.data, work.ctypes.data, params.ctypes.data,
            width, height, sub, floats.ctypes.data, ints.ctypes.data,
            clamp.ctypes.data, *([b.ctypes.data for b in records] or [None] * 3),
            image.ctypes.data, trans.ctypes.data,
        )
        _check(
            failed, "view_composite",
            f"its canvases ({tiles_x * tiles_y} tiles of {sub}x{sub})",
        )
        fields, at = {}, 0
        for (field, shape), size in zip(_FIELDS, _WIDTHS):
            fields[field] = floats[at : at + m * size].reshape((m,) + shape)
            at += m * size
        shapes = GaussianShape(
            *(fields.pop(f) for f in ("scales", "quat_norms", "unit_quats", "rotations"))
        )
        proj = ProjectedGaussians(
            ids=ints[:m], clamp_mask=clamp, sh_degree_used=degree,
            shapes=shapes, **fields,
        )
        bins = TileBins(
            tile_size=sub, tiles_x=tiles_x, tiles_y=tiles_y, width=width,
            height=height, tile_ids=ints[m : m + tiles],
            offsets=ints[m + tiles : m + 2 * tiles + 1],
            order=ints[m + 2 * tiles + 1 :],
        )
        ctx = RenderContext(
            camera=camera, settings=settings, proj=proj, bins=bins,
            num_input=n, kernel_backend=name,
            blocks=(proj, floats, ints, clamp, *records),
        )
        return image, trans, ctx

    def view_backward(ctx, model, dL_dimage):
        arrays = _model_arrays(model)
        n, stored = model.sh.shape[:2]
        proj, floats, ints, clamp, *records = ctx.blocks
        camera, bins, m = ctx.camera, ctx.bins, proj.ids.size
        d_image = np.ascontiguousarray(dL_dimage, dtype=np.float64)
        _require_shapes(d_image=(d_image, (camera.height, camera.width, 3)))
        tiles, entries = bins.num_tiles, bins.num_entries
        cap = records[1].size if records else 0
        want = (_RETAINED * m, m + 2 * tiles + 1 + entries, 3 * m)
        if records:
            want += (tiles * bins.tile_size**2 + 2 * cap, cap, entries + 1)
        if tuple(block.size for block in ctx.blocks[1:]) != want:
            raise ValueError("native view operands: not this context's blocks")
        if n != ctx.num_input or sh_module.num_basis(proj.sh_degree_used) > stored:
            raise ValueError("native view operands: not the model that was rendered")
        grads = {name: np.zeros(arr.shape) for name, arr in arrays.items()}
        params = _view_params(camera, ctx.settings)
        failed = lib.view_backward(
            m, n, tiles, entries, cap, floats.ctypes.data, ints.ctypes.data,
            clamp.ctypes.data, *([b.ctypes.data for b in records] or [None] * 3),
            model.sh.ctypes.data, stored, proj.sh_degree_used,
            params.ctypes.data, camera.width, camera.height, bins.tile_size,
            d_image.ctypes.data, *(g.ctypes.data for g in grads.values()),
        )
        _check(
            failed, "view_backward",
            f"its scratch ({int(bins.counts().max(initial=0))} splats in one tile)",
        )
        return grads

    return view_forward if op == "view_forward" else view_backward


def _rows(arr) -> np.ndarray:
    """An index vector as the int64 array the C loops walk."""
    rows = np.ascontiguousarray(arr, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError(f"native data path: rows of shape {rows.shape}")
    return rows


def _buffer(arr: np.ndarray, shape: tuple, write: bool = False) -> int:
    """The address of ``arr`` once it is the C-contiguous float64 ``shape``
    the C loops index (and writable, when they write it)."""
    flags = arr.flags
    if not (
        arr.dtype == _FLOAT64
        and flags.c_contiguous
        and arr.shape == shape
        and (flags.writeable or not write)
    ):
        raise ValueError(
            f"native data path: a {arr.dtype}{arr.shape} buffer where "
            f"{'a writable ' if write else ''}C-contiguous float64{shape} "
            "is indexed"
        )
    return _address(arr)


def _address(arr: np.ndarray) -> int:
    """Where a C-contiguous array's data starts.  ``ndarray.ctypes`` builds
    an object (~1.1 us); a ctypes view of a writable buffer costs ~0.35 us,
    and all but the plans' frozen index sets are writable."""
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _strided(arr: np.ndarray, n: int, width: int, write: bool = False) -> tuple:
    """The address and the doubles per row of an ``(n, ...)`` operand whose
    rows are at least ``width`` wide."""
    stride = arr.size // n if n else width
    if arr.shape[:1] != (n,) or stride < width:
        raise ValueError(
            f"native adam_rows: a {arr.shape} operand for {n} rows of {width}"
        )
    return _buffer(arr, arr.shape, write), stride


def _disjoint(*spans: tuple) -> None:
    """Refuse ``(address, nbytes)`` operands that overlap: ``adam_rows``
    takes them ``restrict``."""
    spans = sorted(spans)
    for (start, size), (following, _) in zip(spans, spans[1:]):
        if start + size > following:
            raise ValueError("native adam_rows: operands share memory")


def _refuse(code: int, call: str) -> None:
    """Raise what a data-path call's status stands for (0: done)."""
    if code == 1:
        raise MemoryError(f"native {call} could not allocate its row check")
    if code == 2:
        raise IndexError(f"native {call}: a row outside the store")
    if code == 3:
        raise ValueError(f"native {call}: " + (
            "a row repeats" if call == "adam_rows"
            else "a row that is not a member, in order, of the set it indexes"
        ))


def _bind_rows(lib: ctypes.CDLL, op: str) -> Callable:
    """The data-path op ``op`` as one call into the loaded library: shapes,
    dtypes and contiguity are checked here, rows by the C call before it
    writes anything."""
    from repro.optim.kernels import tables_for

    def assemble_rows(ws, working_set, loads, cached, carried_grads):
        cpu, gpu, k = ws.cpu_store, ws.gpu_store, ws.cpu_store.sh_basis
        n, k3 = cpu.num_rows, 3 * k
        rows, loads, cached = _rows(working_set), _rows(loads), _rows(cached)
        m = rows.size
        prev = carry = (None, 0, None, None)
        if cached.size:
            before = _rows(ws.indices)
            mp = before.size
            prev = (
                _address(before), mp, _buffer(ws.noncrit["sh"], (mp, k, 3)),
                _buffer(ws.noncrit["opacity_logits"], (mp,)),
            )
        if carried_grads is not None:
            carried = _rows(carried_grads[0])
            nc = carried.size
            carry = (
                _address(carried), nc, _buffer(carried_grads[1], (nc, k, 3)),
                _buffer(carried_grads[2], (nc,)),
            )
        block = np.empty(m * (2 * k3 + 12))
        _refuse(lib.rows_assemble(
            n, k3, cpu.row_floats, _buffer(cpu.params, (n, cpu.row_floats)),
            _buffer(gpu.packed_params, (n, 10)), _address(rows), m,
            _address(loads), loads.size, _address(cached), cached.size,
            *prev, *carry, _address(block),
        ), op)
        at = m * (k3 + 1)  # sh | opacity | grad_sh | grad_opacity | critical
        crit = at + at
        critical = {
            "positions": block[crit : crit + 3 * m].reshape(m, 3),
            "log_scales": block[crit + 3 * m : crit + 6 * m].reshape(m, 3),
            "quaternions": block[crit + 6 * m :].reshape(m, 4),
        }
        return (
            block[: m * k3].reshape(m, k, 3), block[m * k3 : at], critical,
            block[at : at + m * k3].reshape(m, k, 3), block[at + m * k3 : crit],
        )

    def add_grads_rows(ws, grads):
        gpu, k = ws.gpu_store, ws.cpu_store.sh_basis
        rows = _rows(ws.indices)
        n, m = gpu.num_rows, rows.size
        shapes = {
            "sh": (m, k, 3), "opacity_logits": (m,), "positions": (m, 3),
            "log_scales": (m, 3), "quaternions": (m, 4),
        }
        _refuse(lib.rows_add_grads(
            n, 3 * k, _address(rows), m,
            _buffer(ws.grad_sh, (m, k, 3), write=True),
            _buffer(ws.grad_opacity, (m,), write=True),
            *(_buffer(grads[name], shape) for name, shape in shapes.items()),
            _buffer(gpu.packed_grads, (n, 10), write=True),
        ), op)

    def retire_rows(ws, stores, carried):
        cpu, k = ws.cpu_store, ws.cpu_store.sh_basis
        n, k3 = cpu.num_rows, 3 * k
        rows, stored, kept = _rows(ws.indices), _rows(stores), _rows(carried)
        m, nc = rows.size, kept.size
        carry = np.empty(nc * (k3 + 1))
        _refuse(lib.rows_retire(
            n, k3, cpu.row_floats,
            _buffer(cpu.grads, (n, cpu.row_floats), write=True),
            _address(rows), m, _buffer(ws.grad_sh, (m, k, 3)),
            _buffer(ws.grad_opacity, (m,)), _address(stored), stored.size,
            _address(kept), nc, _address(carry),
        ), op)
        if not nc:
            return None
        return carried, carry[: nc * k3].reshape(nc, k, 3), carry[nc * k3 :]

    def zero_rows(buffer, rows):
        rows = _rows(rows)
        n = buffer.shape[0]
        _refuse(lib.rows_zero(
            n, buffer.size // n if n else 0,
            _buffer(buffer, buffer.shape, write=True), _address(rows),
            rows.size,
        ), op)

    def adam_rows(
        params, grads, m, v, steps, rows, lr, beta1, beta2, eps, bump=True,
        block_rows=None,  # the C loop walks the rows in place, unblocked
    ):
        rows = _rows(rows)
        n = m.shape[0]
        width = m.size // n if n else 0
        if not (
            steps.dtype == np.int64 and steps.flags.c_contiguous
            and steps.flags.writeable and steps.shape == (n,)
        ):
            raise ValueError(f"native adam_rows: steps {steps.dtype}{steps.shape}")
        lr = np.asarray(lr, dtype=np.float64)
        lr = np.full(width, lr) if lr.ndim == 0 else lr
        p_at, p_stride = _strided(params, n, width, write=True)
        g_at, g_stride = _strided(grads, n, width)
        m_at, v_at = _buffer(m, m.shape, write=True), _buffer(v, m.shape, write=True)
        _disjoint(
            (p_at, params.nbytes), (g_at, grads.nbytes), (m_at, m.nbytes),
            (v_at, v.nbytes),
        )
        operands = (
            p_at, p_stride, g_at, g_stride, m_at, v_at, width, _address(steps),
            n, _address(rows), rows.size,
            _buffer(np.ascontiguousarray(lr), (width,)), beta1, beta2, eps,
        )
        tables, t_max = tables_for(beta1, beta2), 0
        while True:
            bc1, rsqrt_bc2 = tables.covering(t_max)
            code = lib.adam_rows(
                *operands, _address(bc1), _address(rsqrt_bc2),
                min(bc1.size, rsqrt_bc2.size), int(bump),
            )
            if code != 4:
                return _refuse(code, op)
            # A step past the tables' end: grow them, then go again (nothing
            # was written).  Only a negative step count can fail twice.
            reached = int(steps[rows].max()) + int(bump)
            if reached <= t_max:
                raise ValueError("native adam_rows: a negative step count")
            t_max = reached

    return {
        "assemble_rows": assemble_rows, "add_grads_rows": add_grads_rows,
        "retire_rows": retire_rows, "zero_rows": zero_rows,
        "adam_rows": adam_rows,
    }[op]


@register_backend("native")
class NativeKernelBackend(KernelBackend):
    """Compiled C view, raster and data-path kernels."""

    priority = 10
    description = (
        "a view in C (frustum test, projection, binning, fused per-tile "
        "compositing, gradient chain) and CLM's data path and fused Adam "
        "over row indices, built at first use with the system C compiler "
        "(float64 operands)"
    )

    def __init__(self) -> None:
        super().__init__()
        self._library: Optional[NativeLibrary] = None
        self._library_lock = threading.Lock()

    def library(self) -> NativeLibrary:
        lib = self._library
        if lib is None:
            with self._library_lock:  # one library, however many first callers
                if self._library is None:
                    self._library = NativeLibrary()
                lib = self._library
        return lib

    def available(self) -> bool:
        return self.library().failure is None

    def version(self) -> Optional[str]:
        return self.library().compiler_version

    def detail(self) -> Optional[str]:
        """Compiler and loaded library, or why there is none.  Builds the
        library if that has not been tried: a status report states what
        would run."""
        lib = self.library()
        try:
            lib.load()
        except RuntimeError:
            return f"unavailable: {lib.failure}"
        return f"compiler {' '.join(lib.compiler)}; library {lib.path}"

    def capabilities(self) -> "frozenset[str]":
        return _OPS

    def supports(self, spec: KernelSpec) -> bool:
        # The kernels index raw float64 buffers; float32 blend state or
        # gradient staging, strided or float32 model arrays and
        # (``view_backward``) a context without a block of ours stay on the
        # reference.  ``exact_cull``'s
        # spec reads ``contiguous`` per row (``registry.cull_spec``).
        return spec.op in _OPS and all(
            d.dtype == "float64" and d.contiguous for d in spec.operands
        )

    def _compile(self, spec: KernelSpec) -> Callable:
        lib = self.library().load()
        if spec.op == "exact_cull":
            return _bind_cull(lib)
        if spec.op in _ROW_OPS:
            return _bind_rows(lib, spec.op)
        if spec.op.startswith("view_"):
            return _bind_view(lib, spec.op, self.name)
        return _bind(lib, spec.op)
