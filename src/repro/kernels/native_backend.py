"""The ``native`` kernel backend — fused per-tile C kernels, built at first use.

Where the NumPy reference streams a view through ~25 whole-tensor passes
over padded ``(G, T, P)`` slabs, the two entry points of
``native_kernels.c`` walk the CSR :class:`~repro.gaussians.rasterizer.TileBins`
once per tile and keep the compositing recurrence in registers, like the
paper's CUDA kernels: per ``(tile, splat)`` entry only the pixels of the
splat's thresholded footprint rectangle are visited, ``exp`` is called only
where the cell can still pass the alpha threshold, and the backward pass
*recomputes* blending (no blend state is retained, so
``RasterSettings.cache_blend_state`` and ``group_size`` have no effect here
and the pool-enforced regime costs what the unpooled one does).

The kernels are kept as C source inside the package and compiled at run
time (the MOT ``CLFunction`` idiom of SNIPPETS.md) with the first of
``$CC``, ``cc``, ``gcc``, ``clang`` found on ``PATH``:

- flags :data:`CFLAGS` — no ``-ffast-math``, no ``-march``, no FMA
  contraction, one thread: every operation rounds as an IEEE double in
  program order, so two runs are ``np.array_equal`` on any x86-64/aarch64
  host and the results sit inside the 1e-12 image / 1e-10 gradient bars of
  the legacy oracles (not bit-equal to NumPy, which reduces through BLAS);
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
and every caller runs on the reference.  Only the two raster ops are
implemented, over float64 C-contiguous operands; float32 blend state and
the fused Adam update stay on NumPy through the registry's per-op fallback
(a C Adam is not faster through ctypes at the optimizers' chunk sizes).
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

from repro.kernels.registry import KernelBackend, KernelSpec, register_backend

SOURCE = "native_kernels.c"
#: Everything that decides how the library rounds is here, and keys the
#: cache.  ``-fno-math-errno`` only stops libm calls from writing ``errno``.
CFLAGS = (
    "-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off",
    "-fno-math-errno",
)
_COMPILERS = ("cc", "gcc", "clang")
_RASTER_OPS = frozenset({"raster_forward_slab", "raster_backward_slab"})

_I64, _F64 = ctypes.c_int64, ctypes.c_double
# ndpointer arguments check dtype and contiguity on every call and keep the
# array alive for its duration; sizes are checked by :func:`_operands`.
_I64S = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64S = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_BINS = [_I64, _I64S, _I64S, _I64S, _I64, _I64, _I64, _I64]
_SPLATS = [_F64S] * 7  # means x/y, conic a/b/c, opacity, colours
_SIGNATURES = {
    "raster_forward": _BINS + _SPLATS + [_F64S, _F64, _F64, _F64, _F64S, _F64S],
    "raster_backward": _BINS + _SPLATS
    + [_F64S, _F64S, _F64, _F64, _F64, _F64S, _F64S, _F64S, _F64S],
}


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
        *splats.values(), aug.colors,
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
            lib.raster_forward(
                *_operands(bins, aug), *_scalars(settings, bg),
                canvas_rgb, canvas_t,
            )
        return None  # no blend state: backward recomputes it

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


@register_backend("native")
class NativeKernelBackend(KernelBackend):
    """Compiled C raster kernels; everything else on the reference."""

    priority = 10
    description = (
        "fused per-tile C kernels built at first use with the system C "
        "compiler (float64 raster ops; everything else on NumPy)"
    )
    retains_blend_state = False

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
        return _RASTER_OPS

    def supports(self, spec: KernelSpec) -> bool:
        # The kernels index raw float64 buffers; float32 blend state and
        # strided operands stay on the reference.
        return spec.op in _RASTER_OPS and all(
            d.dtype == "float64" and d.contiguous for d in spec.operands
        )

    def _compile(self, spec: KernelSpec) -> Callable:
        return _bind(self.library().load(), spec.op)
