"""The ``native`` kernel backend — a view, its loss, CLM's data path, a
batch's plan and a whole CLM microbatch in C, built at first use.

``native_kernels.c`` exports thirteen entry points; each of its sections
documents its loops and the NumPy reference it reproduces.  Python binds
them to the ten kernel ops:

- ``exact_cull`` — the 3-sigma frustum verdict (``static in_frustum``, the
  one arithmetic ``view_project`` and ``grid_cull`` apply too) on named
  rows of the full critical arrays, each walked with its own row stride,
  so ``GpuCriticalStore``'s column views of its ``(N, 10)`` block run in
  place.  ``grid_cull`` is a :class:`~repro.gaussians.spatial.CullingGrid`
  (:func:`_bind_grid`): ``grid_build`` bins the rows by a counting sort,
  ``grid_refit`` refills the slots of moved rows and widens their cells,
  ``grid_cull`` answers a batch of views in one call.  Against the
  reference the index sets are equal except on a rounding tie, a signed
  distance within a few ulps of a plane;
- ``view_forward`` — ``view_project`` (frustum test, projection and the
  counting half of binning, over every row or a working set ``rows`` read
  in place) then ``view_composite`` (the CSR bins, compositing, the crop)
  (:func:`_forward`), and ``view_backward`` for the context's backward
  pass.  Between the two forward calls a render's own blocks are sized by
  what survived: one float64 block of 52 values a survivor (:data:`_FIELDS`),
  one int64 block (ids, then ``tile_ids | offsets | order``), the clamp
  mask and, when the backward pass reads them
  (``RasterSettings.cache_blend_state``), the blend records.  A direct
  call allocates them, exactly sized, and cuts them into the
  ``RenderContext``; a served request (``rows=``, ``workspace=``) takes
  them from a :class:`~repro.kernels.workspace.Workspace`'s arenas and
  returns a copy of the image and the survivor count;
- ``assemble_rows``, ``zero_rows``, ``adam_rows`` — CLM's data path over
  row indices, bit-identical to NumPy: each call checks every row before it
  writes (one outside the store: ``IndexError``; one not a member, in
  order, of the set it indexes, or a repeated Adam row: ``ValueError``);
- ``photometric_loss`` — L1 + SSIM and its image gradient over the
  target's kept moments, within 1e-14 (value) and 1e-13 of the largest
  gradient entry of the reference's banded-matrix GEMMs;
- ``view_train`` — a training view (:func:`_bind_train`): the four view
  and loss calls over an engine's workspace, no context built;
- ``plan_batch`` — a batch's plan in one call (:func:`_bind_plan`), into
  one int64 buffer of which every array of the plan is a read-only slice;
- ``train_step`` — a CLM microbatch in one call (:func:`_bind_step`):
  load, view, loss, backward, gradient offload, over the engine's
  workspace, the working set's block and carried gradients double-buffered
  so a call can be run again when its render outgrows the arenas
  (``STATUS_ARENA_SHORT``); a failing stage (:data:`_STEP_STAGES`) raises
  what that entry point would.

The view calls are not bit-equal to NumPy (which reduces through BLAS);
they sit inside the 1e-12 image / 1e-10 gradient bars of the per-tile
oracle in ``tests/reference/``.

**The ABI is declared once.**  What the C and Python sides must agree on
is written in one place each and read by the other:

- each entry point's parameters are read from its prototype
  (:func:`prototypes`, the MOT ``_simple_cl_function_parser`` idiom of
  SNIPPETS.md) with their C types: ``int64_t`` and ``double`` by value, a
  pointer to an element type of :data:`_ELEMENTS` by address, anything
  else an :class:`AbiError`;
- each entry point's operands are declared once, in prototype order
  (:data:`_OPERANDS`, the MOT ``KernelInputBuffer`` / ``KernelInputScalar``
  idiom): an :class:`Operand` is a name, a C type and, for an array, a
  symbolic shape (``[n, 3]``, ``[m * (2 * k3 + 12)]``) and whether the C
  writes it, walks it row-strided, reads it as an index vector, takes it
  ``restrict`` or converts it.  A declaration that is not its prototype —
  a name, the count, the order, an element type — is an :class:`AbiError`
  before anything is built;
- one binder (:class:`_Binder`) checks and converts what a caller hands an
  op, by the operands' declared names, into an argument list in prototype
  order, and sizes the blocks and arenas a binding allocates.  A refusal
  is ``ValueError("native <entry>: <operand> is ..., not ...")``, but
  ``IndexError`` for an index vector of another kind than integers, as
  NumPy's.  What a binding makes itself — an arena's address, a count —
  goes into its slot unchecked; what it checks once (the stores, a view's
  vectors, a target's moments, a grid's tables, a served model) it keeps
  in a :meth:`~repro.kernels.workspace.Workspace.binding`.  The hot calls
  (a view's forward and backward, ``train_step``) are made over
  positional lists, which :func:`_checked` counts;
- a nonzero status raises what :data:`_RAISES` says it stands for;
- the layout of a render's block (:data:`_FIELDS`), the ``params`` vector
  (:data:`_PARAMS`), the status codes (:data:`_STATUS`) and the constants
  the C shares with the reference (``rasterizer._FOOTPRINT_MARGIN``,
  ``sh._C0`` .. ``_C3``) are Python: :func:`header` generates their C,
  which :func:`kernel_source` prepends to the file — that text is what is
  hashed, compiled and parsed.

So a mismatch is an error at load or a refusal at the call, never memory
corruption, and editing a declaration rebuilds the library.  ctypes
marshalling costs 2.8 us an ``ndpointer`` argument, so every call passes
raw addresses (:func:`_address`, ~0.35 us).

The library is built at run time (the MOT ``CLFunction`` idiom) with the
first of ``$CC``, ``cc``, ``gcc``, ``clang`` on ``PATH``:

- flags :data:`CFLAGS` — no ``-ffast-math``, no ``-march``, no FMA
  contraction, one thread: every operation rounds as an IEEE double in
  program order, so two runs are ``np.array_equal`` on any host;
- built once per ``sha256(kernel_source() + flags + "cc --version")`` into
  ``${XDG_CACHE_HOME:-~/.cache}/repro-kernels/`` (created 0700) through a
  temporary file and an atomic rename; the file name carries the digest of
  the library itself, so a truncated or altered file is rebuilt, never
  loaded; a cache that is not the user's own is not used (a private
  ``mkdtemp`` instead);
- loaded through :mod:`ctypes` (which releases the GIL around each call)
  under a lock, once per process.

Without a compiler the backend registers as unavailable and ``auto``
lands on NumPy silently.  A build, parse or load that fails raises from
:meth:`~repro.kernels.registry.KernelBackend.compile`, which
:func:`~repro.kernels.registry.compile_with_fallback` turns into one
:class:`RuntimeWarning`; from then on the backend reports itself
unavailable (``repro backends`` shows why).  That is the only way an op
leaves this backend: it runs all ten, by name, over whatever it is handed
— an operand its declaration does not take (a float32 or strided model
array, a grayscale image) is converted where the declaration says
``cast`` and otherwise refused by the binder, never rerouted.  L1 alone
(``ssim_lambda == 0``) is the loss over the same moments.  A backward
pass over a context NumPy made, or whose projection was replaced, runs
the reference's.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import functools
import hashlib
import itertools
import math
import os
import re
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
import types
import weakref
from importlib import resources
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.gaussians import rasterizer, sh, spatial
from repro.gaussians.frustum import _PREFILTER_MARGIN, frustum_planes
from repro.kernels.registry import KERNEL_OPS, KernelBackend, register_backend
from repro.kernels.workspace import Workspace

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

# ---------------------------------------------------------------------------
# The ABI declaration: the C side's F_* / W_*, P_*, STATUS_*, STAGE_* and OUT_*
# come from here
# ---------------------------------------------------------------------------
#: Per-Gaussian fields of a render's float64 block, field after field, each a
#: C-contiguous ``(m, *shape)`` array: ``F_<NAME>`` / ``W_<NAME>`` in C.
_FIELDS = (
    ("means2d", (2,)), ("depths", ()), ("t_cam", (3,)), ("offsets", (3,)),
    ("cov_cam", (3, 3)), ("cov2d", (2, 2)), ("conics", (2, 2)),
    ("colors", (3,)), ("opacities", ()), ("radii", ()), ("scales", (3,)),
    ("quat_norms", (1,)), ("unit_quats", (4,)), ("rotations", (3, 3)),
    ("dirs", (3,)), ("dir_norms", (1,)),
)
#: Fields of ``view_project``'s scratch block only, after those: the
#: compositing loops' separate-array operands (``_AugArrays``' names).
_SCRATCH_FIELDS = (
    ("means_x", ()), ("means_y", ()), ("conic_a", ()), ("conic_b", ()),
    ("conic_c", ()),
)
#: The ``params`` vector every view call reads (``P_<NAME>`` in C):
#: ``(owner, attribute, width)`` slot after slot, the attribute of the
#: camera or of the render settings; :func:`_view_params` fills it.
_PARAMS = (
    ("camera", "rotation", 9), ("camera", "center", 3), ("camera", "fx", 1),
    ("camera", "fy", 1), ("camera", "cx", 1), ("camera", "cy", 1),
    ("camera", "znear", 1), ("settings", "alpha_threshold", 1),
    ("settings", "transmittance_min", 1), ("settings", "max_alpha", 1),
    ("settings", "background", 3),
)
#: What an entry point returns (``STATUS_<NAME>`` in C), numbered from 0:
#: done; an allocation failed; an index outside its range (a row outside the
#: store, tile bins that no render wrote); an order or a bound violated (a
#: row not a member, in order, of its set, a repeated row, more blend
#: records than footprint cells); a step past the Adam bias-correction
#: tables; a render's blocks larger than the arenas ``train_step`` was
#: handed.  ``OK`` is 0, so a nonzero status is a failure on both sides.
_STATUS = ("OK", "NO_MEMORY", "OUT_OF_RANGE", "VIOLATED", "TABLES_SHORT", "ARENA_SHORT")
#: The entry points ``train_step`` calls, in order (``STAGE_<NAME>`` in C):
#: the one that failed is reported at ``out[OUT_STAGE]``.
_STEP_STAGES = (
    "assemble_rows", "view_project", "view_composite", "photometric_loss",
    "view_backward", "retire_rows",
)
#: ``train_step``'s ``out`` vector, slot by slot (``OUT_<NAME>`` in C): the
#: failing stage and its status, ``view_project``'s five counts, the
#: nanoseconds of the forward and backward halves.
_STEP_OUT = (
    "stage", "status", "survivors", "binned", "tiles", "entries", "area",
    "forward_ns", "backward_ns",
)
#: Parameter types of an entry point: the scalars ctypes passes by value,
#: and the element types of the arrays passed by address (``c_void_p``),
#: each with the NumPy dtype it is on this side (a ``uint8_t`` array is a
#: boolean mask).  Anything else — ``float`` among them, until precision is
#: a parameter of the source — is an :class:`AbiError` at load.
_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
_ELEMENTS = {
    "double": np.dtype(np.float64), "int64_t": np.dtype(np.int64),
    "int32_t": np.dtype(np.int32), "uint8_t": np.dtype(np.bool_),
}


@functools.lru_cache(maxsize=64)
def _layout(fields: tuple) -> "tuple[list, int]":
    """``([(name, shape, offset, width), ...], total)``: each field's
    offset in values a row, cumulative over the widths before it (cached:
    a view asks for the same few layouts every time)."""
    out, at = [], 0
    for name, shape in fields:
        width = math.prod(shape)
        out.append((name, shape, at, width))
        at += width
    return out, at


def _cut(block: np.ndarray, m: int, layout: list) -> dict:
    """The ``(m, *shape)`` arrays of a :func:`_layout` laid field after field
    in ``block``: views, not copies."""
    return {
        name: block[at * m : (at + width) * m].reshape((m,) + shape)
        for name, shape, at, width in layout
    }


_RETAINED_LAYOUT, _RETAINED = _layout(_FIELDS)  # 52 doubles
_SCRATCH = _layout(_FIELDS + _SCRATCH_FIELDS)[1]  # + the five raster operands
_PARAM_SIZE = sum(width for *_, width in _PARAMS)


# ---------------------------------------------------------------------------
# The operands of every entry point, declared once
# ---------------------------------------------------------------------------
class Operand(NamedTuple):
    """One parameter of an exported entry point, as :class:`_Binder` checks,
    converts and passes it (the ``KernelInputBuffer`` /
    ``KernelInputScalar`` idiom of SNIPPETS.md).

    ``ctype`` is the C type: a scalar's, passed by value, when ``shape`` is
    None; else an array's element type, passed by address.  A shape entry
    is an ``int``; a dimension's name, taken from the first operand that
    has it (or from a scalar of that name) and checked against every other;
    an expression over names, checked once they are known; or, last,
    ``"*name"``: the remaining axes, whose product is that dimension.  A
    scalar that names a dimension is passed its extent."""

    name: str
    ctype: str
    shape: Optional[tuple] = None
    #: The C writes it: it must be writable.
    write: bool = False
    #: Row-strided: each row's values are adjacent and rows a whole number
    #: of elements apart (``GpuCriticalStore``'s column views), the stride
    #: passed as this parameter, next.
    stride: Optional[str] = None
    #: Its rows hold at least the declared row (a packed layout's padding
    #: travels through); the leading extent is exact.
    padded: bool = False
    #: An index vector into this dimension: integer rows are converted to
    #: int64, any other kind refused with ``IndexError``; the C checks
    #: their bounds before it writes.
    index: Optional[str] = None
    #: May share no memory with another ``restrict`` operand of the call.
    restrict: bool = False
    #: May be absent: passed as NULL (a scalar: 0).
    optional: bool = False
    #: Converted to the declared element type and C order (a scalar
    #: broadcast to the declared shape) rather than refused.
    cast: bool = False


_PARAMETER = re.compile(r"\s*(\w+)\s+(\w+)\s*(?:\[(.*?)\])?\s*(.*)")
_FLAG = re.compile(r"(\w+)(?:\((\w+)\))?")


def _declare(text: str) -> tuple:
    """The :class:`Operand` of each ``;``-separated parameter of ``text``:
    ``ctype name``, an array's ``[shape]`` after its name, then its flags —
    ``write``, ``cast``, ``restrict``, ``optional``, ``padded``,
    ``index(dimension)``, ``stride(parameter)``."""
    operands = []
    for param in text.split(";"):
        ctype, name, shape, flags = _PARAMETER.fullmatch(param).groups()
        if shape is not None:
            shape = tuple(int(e) if e.strip().isdigit() else e.strip() for e in shape.split(","))
        flags = {flag: value or True for flag, value in _FLAG.findall(flags)}
        operands.append(Operand(name, ctype, shape, **flags))
    return tuple(operands)


#: The selection-critical arrays, each walked with its own row stride.
_CRITICAL = (
    "double positions[n, 3] stride(p_stride); double log_scales[n, 3] stride(s_stride);"
    " double quats[n, 4] stride(q_stride)"
)
#: A culling grid's per-cell tables.
_CELLS = (
    "double cell_lo[{0}, 3] {1}; double cell_hi[{0}, 3] {1}; double cell_radius[{0}] {1};"
    " uint8_t cell_finite[{0}] {1}"
)
#: ``view_project``'s int64 work block over ``n`` input rows: five counts,
#: per-row ids / footprints / tile spans, a per-tile count, the clamp bits.
_WORK = "5 + 7 * {0} + -(-width // sub) * -(-height // sub) + (3 * {0} + 7) // 8"
#: A render's own blocks, sized by what survived: the fields, the ids and
#: CSR arrays (``tile_ids | offsets | order``), the clamp mask and —
#: optional — the C's ``records_t``: ``tiles * sub * sub`` final ``T``
#: values then the exp values and ``T_before`` of at most ``cap`` cells,
#: their tile-local pixels, ``entries + 1`` ends.
_RENDER = (
    f"double kept[{_RETAINED} * m] {{0}}; int64_t ikept[m + 2 * tiles + 1 + entries] {{0}};"
    " uint8_t clamp[3 * m] {0}; double rec_f[tiles * sub * sub + 2 * cap] optional {0};"
    " int32_t rec_p[cap] optional {0}; int64_t rec_end[entries + 1] optional {0}"
)
#: Rows the last step held and its values over them (absent: none).
_HELD = (
    "int64_t {0}[{1}] index(n) optional; int64_t {1} optional;"
    " double {2}[{1}, k, 3] optional {4}; double {3}[{1}] optional {4}"
)
_MOMENTS = "double uy[{0}]; double uy2_c1[{0}]; double vy_c2[{0}]"

#: Every exported entry point's parameters, in prototype order: the names,
#: count, order and element types are checked against the parsed prototype
#: when the library loads (:func:`_binders`).
_OPERANDS = {name: _declare(text) for name, text in {
    "exact_cull": (
        f"int64_t n; double planes[6, 4] cast; {_CRITICAL}; int64_t rows[count] index(n);"
        " int64_t count; int64_t kept[count + 1] write"
    ),
    "grid_build": (
        f"int64_t n; {_CRITICAL}; int64_t per_axis; int64_t cap; double frame[4] write;"
        " int64_t head[2] write; int64_t members[n] write; int64_t offsets[cap + 1] write;"
        f" int64_t slots[n] write; {_CELLS.format('cap', 'write')}; double block[n, 11] write"
    ),
    "grid_refit": (
        f"int64_t n; {_CRITICAL}; int64_t rows[count] index(n); int64_t count;"
        " int64_t slots[n]; int64_t cells; int64_t regular; int64_t offsets[cells + 1];"
        f" double limit; {_CELLS.format('cells', 'write')}; double block[n, 11] write;"
        " int64_t bloated[1] write"
    ),
    "grid_cull": (
        "int64_t n; double planes[views, 6, 4] cast; int64_t views; int64_t cells;"
        f" {_CELLS.format('cells', '')}; int64_t offsets[cells + 1]; int64_t members[n];"
        " double rows[n, 11]; int64_t counts[views] write; int64_t kept[cap] write; int64_t cap"
    ),
    "view_project": (
        "int64_t n; int64_t rows[n] index(total) optional; int64_t total;"
        " double positions[total, 3]; double log_scales[total, 3]; double quats[total, 4];"
        " double sh[total, k_stored, 3]; double logits[total]; double planes[6, 4] cast;"
        f" int64_t k_stored; int64_t degree; double params[{_PARAM_SIZE}]; int64_t width;"
        f" int64_t height; int64_t ts; int64_t sub; double f[{_SCRATCH} * n] write;"
        f" int64_t iw[{_WORK.format('n')}] write"
    ),
    "view_composite": (
        f"int64_t n; double f[{_SCRATCH} * n]; int64_t iw[{_WORK.format('n')}] write;"
        f" double params[{_PARAM_SIZE}]; int64_t width; int64_t height; int64_t sub;"
        f" {_RENDER.format('write')}; double image[height, width, 3] write;"
        " double trans[height, width] write"
    ),
    "view_backward": (
        "int64_t m; int64_t n; int64_t tiles; int64_t entries; int64_t cap optional;"
        f" {_RENDER.format('')}; double sh[n, k_stored, 3]; int64_t k_stored; int64_t degree;"
        f" double params[{_PARAM_SIZE}]; int64_t width; int64_t height; int64_t sub;"
        " double d_image[height, width, 3] cast; double g_positions[n, 3] write;"
        " double g_log_scales[n, 3] write; double g_quats[n, 4] write;"
        " double g_sh[n, k_stored, 3] write; double g_logits[n] write"
    ),
    "assemble_rows": (
        "int64_t n; int64_t k3; int64_t stride; double pinned[n, stride];"
        " double critical[n, 10]; int64_t ws[m] index(n); int64_t m;"
        " int64_t loads[num_loads] index(n); int64_t num_loads;"
        " int64_t cached[num_cached] index(n); int64_t num_cached;"
        f" {_HELD.format('prev', 'mp', 'prev_sh', 'prev_opacity', '')};"
        f" {_HELD.format('carried', 'num_carried', 'carried_sh', 'carried_opacity', '')};"
        " double block[m * (2 * k3 + 12)] write"
    ),
    "zero_rows": (
        "int64_t n; int64_t width; double buffer[n, *width] write;"
        " int64_t rows[count] index(n); int64_t count"
    ),
    "adam_rows": (
        "double params[n, width] write stride(p_stride) padded restrict;"
        " double grads[n, width] stride(g_stride) padded restrict;"
        " double m[n, *width] write restrict; double v[n, *width] write restrict;"
        " int64_t width; int64_t steps[n] write restrict; int64_t n;"
        " int64_t rows[count] index(n); int64_t count; double lr[width] cast; double beta1;"
        " double beta2; double eps; double bc1[table]; double rsqrt_bc2[table];"
        " int64_t table; int64_t bump"
    ),
    "photometric_loss": (
        "int64_t h; int64_t w; int64_t channels; double x[h, w, channels];"
        f" double y[h, w, channels]; {_MOMENTS.format('channels, h, w')}; double t[size];"
        " int64_t size; double ssim_lambda; double c1; double c2;"
        " double grad[h, w, channels] write; double value[1] write"
    ),
    "plan_batch": (
        "int64_t count; int64_t sets[total] index(n); int64_t offsets[count + 1]; int64_t n;"
        " int64_t seq[count]; int64_t search; double time_limit; int64_t untimed;"
        " int64_t enable_cache; int64_t out[3 + 4 * count + 5 * total] write"
    ),
    "train_step": (
        "int64_t n; int64_t k3; int64_t stride; double pinned[n, stride];"
        " double pinned_grads[n, stride] write; double critical[n, 10];"
        " double critical_grads[n, 10] write; int64_t ws[m] index(n); int64_t m;"
        " int64_t loads[num_loads] index(n); int64_t num_loads;"
        " int64_t cached[num_cached] index(n); int64_t num_cached;"
        " int64_t stores[num_stores] index(n); int64_t num_stores;"
        " int64_t carried[num_carried] index(n); int64_t num_carried;"
        f" {_HELD.format('prev', 'mp', 'prev_sh', 'prev_opacity', 'restrict')};"
        f" {_HELD.format('carried_in', 'num_carried_in', 'carried_sh', 'carried_opacity', 'restrict')};"
        f" double planes[6, 4]; int64_t degree; double params[{_PARAM_SIZE}]; int64_t width;"
        " int64_t height; int64_t ts; int64_t sub; int64_t records;"
        f" double target[height, width, 3]; {_MOMENTS.format('3, height, width')};"
        " double taps[size]; int64_t size; double ssim_lambda; double c1; double c2;"
        " double batch; double block[m * (2 * k3 + 12)] write restrict;"
        " double carry[num_carried * (k3 + 1)] write restrict;"
        f" double scratch[{_SCRATCH} * m] write; int64_t work[{_WORK.format('m')}] write;"
        f" {_RENDER.format('write')}; int64_t caps[6]; double image[height, width, 3] write;"
        " double trans[height, width] write; double d_image[height, width, 3] write;"
        f" double grads[(11 + k3) * m] write; double value[1] write;"
        f" int64_t out[{len(_STEP_OUT)}] write"
    ),
}.items()}

#: The model arrays ``view_project`` reads, by the names a model has them.
_MODEL = {
    "positions": "positions", "log_scales": "log_scales", "quats": "quaternions",
    "sh": "sh", "logits": "opacity_logits",
}
def header() -> str:
    """The C prepended to ``native_kernels.c``: the declaration above as
    enums, read when called, and ``FOOTPRINT_MARGIN`` / ``PREFILTER_MARGIN``
    / ``SH_C0`` .. ``SH_C3`` from the NumPy reference (``repr`` of a float reads back as
    the same double)."""

    def enum(names) -> str:
        return "enum {\n    " + ",\n    ".join(names) + "\n};"

    retained, end = _layout(_FIELDS)
    fields, total = _layout(_FIELDS + _SCRATCH_FIELDS)
    params = _layout(tuple((name, (width,)) for _, name, width in _PARAMS))[0]
    lines = [
        "/* Generated by repro.kernels.native_backend.header(): edit the",
        " * declaration there, not this. */",
        enum(
            [f"F_{f.upper()} = {at}, W_{f.upper()} = {width}" for f, _, at, width in fields]
            + [f"F_RETAINED = {end}, F_SCRATCH = {total}"]
        ),
        "#define RETAINED_STARTS "
        + ", ".join(f"F_{f.upper()}" for f, *_ in retained) + ", F_RETAINED",
        enum(f"P_{p.upper()} = {at}" for p, _, at, _ in params),
        enum(f"STATUS_{status} = {code}" for code, status in enumerate(_STATUS)),
        enum(f"STAGE_{stage.upper()} = {k}" for k, stage in enumerate(_STEP_STAGES)),
        enum(f"OUT_{slot.upper()} = {k}" for k, slot in enumerate(_STEP_OUT)),
        f"#define FOOTPRINT_MARGIN {rasterizer._FOOTPRINT_MARGIN!r}",
        f"#define PREFILTER_MARGIN {_PREFILTER_MARGIN!r}",
        *(f"#define SH_C{d} {c!r}" for d, c in enumerate((sh._C0, sh._C1))),
        *(
            f"static const double SH_C{d}[] = {{{', '.join(map(repr, c))}}};"
            for d, c in ((2, sh._C2), (3, sh._C3))
        ),
    ]
    return "\n".join(lines) + f'\n#line 1 "{SOURCE}"\n'


def kernel_source(source: Optional[str] = None) -> str:
    """What the backend hashes, parses and compiles: :func:`header`, then
    ``source`` (default: the package's ``native_kernels.c``).  CI compiles
    this text warning-free."""
    if source is None:
        source = resources.files("repro.kernels").joinpath(SOURCE).read_text(encoding="utf-8")
    return header() + source


class AbiError(RuntimeError):
    """The Python and C sides of the kernel ABI disagree: a parameter type
    the binding cannot pass, an entry point missing, or a call with more or
    fewer arguments than its prototype."""



_PROTOTYPE = re.compile(r"^int\s+(\w+)\s*\(([^)]*)\)\s*\{", re.M)


def prototypes(source: str) -> dict:
    """``{name: [(parameter, C type, pointer), ...]}`` of every exported (not
    ``static``) ``int name(...) {`` definition in ``source``: a pointer's C
    type is its element type."""
    found = {}
    for name, params in _PROTOTYPE.findall(source):
        found[name] = []
        for param in params.split(","):
            *words, arg = param.replace("*", " * ").split() or [""]
            kind = [w for w in words if w not in ("const", "restrict", "*")]
            pointer = "*" in words
            if not (len(kind) == 1 and kind[0] in (_ELEMENTS if pointer else _SCALARS)):
                raise AbiError(
                    f"{name}: parameter `{' '.join(param.split())}` is of a "
                    "type the binding does not pass"
                )
            found[name].append((arg, kind[0], pointer))
    missing = sorted(set(_RAISES) - set(found))
    if missing:
        raise AbiError(f"no prototype for {', '.join(missing)}")
    return found


# ---------------------------------------------------------------------------
# What a status raises
# ---------------------------------------------------------------------------
class _TablesShort(Exception):
    """``adam_rows`` met a step past the bias-correction tables it was
    handed (nothing was written): grow them and call again."""


class _ArenaShort(Exception):
    """``train_step`` counted a render larger than the arenas it was handed
    (before writing any store), or ``grid_cull`` more rows than its output
    buffer holds: grow them and call again."""


class _StageFailed(Exception):
    """A call inside ``train_step`` failed: ``out`` names it and its status,
    and the binding raises what that call raises."""


class _Malformed(Exception):
    """``plan_batch`` met an index set that is not sorted, duplicate-free
    and inside the model, at the entry it reported (or an order that is
    not a permutation, reported as -1)."""


_ROWS = {
    "NO_MEMORY": (MemoryError, " could not allocate its row check"),
    "OUT_OF_RANGE": (IndexError, ": a row outside the store"),
    "VIOLATED": (ValueError, ": a row that is not a member, in order, of the set it indexes"),
}
_VIEW = {
    "OUT_OF_RANGE": (ValueError, ": inconsistent tile bins"),
    "VIOLATED": (RuntimeError, ": more blend records than footprint cells"),
}


def _no_memory(what: str) -> dict:
    return {"NO_MEMORY": (MemoryError, f" could not allocate its {what}")}


#: What each exported entry point's nonzero status raises: the exception and
#: the message after ``native <name>``, formatted with the call's arguments
#: by their names in its prototype.  A status an entry point has no entry
#: for raises ``RuntimeError``.
_RAISES = {
    "exact_cull": {"OUT_OF_RANGE": (IndexError, ": a row outside [0, {n})")},
    "grid_build": {
        **_no_memory("bin counts"),
        "OUT_OF_RANGE": (ValueError, ": {per_axis} cells per axis, not 1 to 2^20 - 1"),
    },
    "grid_refit": {"OUT_OF_RANGE": (IndexError, ": a row outside [0, {n})")},
    "grid_cull": {
        "OUT_OF_RANGE": (
            IndexError, ": a member outside [0, {n}) or an offset outside [0, {n}]",
        ),
        "ARENA_SHORT": (_ArenaShort, ""),
    },
    "view_project": {**_VIEW, "OUT_OF_RANGE": (IndexError, ": a row outside [0, {total})")},
    "view_composite": {**_VIEW, **_no_memory("canvases ({width}x{height} on {sub}x{sub} tiles)")},
    "view_backward": {**_VIEW, **_no_memory("scratch ({m} splats, {entries} entries)")},
    **dict.fromkeys(("assemble_rows", "zero_rows"), _ROWS),
    "adam_rows": {
        **_ROWS, "VIOLATED": (ValueError, ": a row repeats"), "TABLES_SHORT": (_TablesShort, ""),
    },
    "photometric_loss": _no_memory("scratch ({h}x{w} image)"),
    "plan_batch": {
        **_no_memory("scratch ({count} sets)"),
        "OUT_OF_RANGE": (_Malformed, ""), "VIOLATED": (_Malformed, ""),
    },
    "train_step": {
        **dict.fromkeys(_STATUS[1:], (_StageFailed, "")),
        "ARENA_SHORT": (_ArenaShort, ""),
    },
}
#: What a failing stage of ``train_step`` (:data:`_STEP_STAGES`) raises: its
#: entry point's entry, or the ``static`` ``retire_rows``'s.
_STAGE_RAISES = {**_RAISES, "retire_rows": _ROWS}


# ---------------------------------------------------------------------------
# The binder: one for every entry point, from its declaration
# ---------------------------------------------------------------------------
def _address(arr: np.ndarray) -> int:
    """Where an array's data starts.  ``ndarray.ctypes`` builds an object
    (~1.1 us); a ctypes view of a writable contiguous buffer costs ~0.35
    us, and all but the plans' frozen index sets and the critical store's
    column views are that."""
    flags = arr.flags
    if flags.writeable and flags.c_contiguous and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _row_stride(arr: np.ndarray) -> Optional[int]:
    """Elements between the rows of an array whose rows each hold their
    values adjacent, in C order, rows a whole number of elements apart and
    not overlapping (None otherwise)."""
    size = arr.itemsize
    if arr.flags.c_contiguous:
        return math.prod(arr.shape[1:])
    for extent, step in zip(reversed(arr.shape[1:]), reversed(arr.strides[1:])):
        if extent > 1 and step != size:
            return None
        size *= extent
    lead = arr.strides[0]
    if lead % arr.itemsize or (arr.shape[0] > 1 and lead < size):
        return None
    return lead // arr.itemsize


_NAME = re.compile(r"[A-Za-z_]\w*")
_UNSET = object()
#: How :meth:`_Binder.bind` takes an array: as it is, as an index vector,
#: or converted (:attr:`Operand.cast`).
_PLAIN, _INDEX, _CAST = "plain", "index", "cast"
_INT64 = np.dtype(np.int64)


class _Taken(NamedTuple):
    """Operands a binding checks once (:meth:`_Binder.take`): each
    parameter's value by name, the dimensions they resolved, and the
    arrays their addresses point into."""

    values: dict
    dims: dict
    held: list


class _Binder:
    """The declared operands of one entry point.  :meth:`bind` checks and
    converts a caller's operands into their slots of an argument list in
    prototype order (:meth:`blank`), which the library's entry point is
    called over; what a binding produces itself — an arena's address, a
    count it computed — it writes into :attr:`slot` unchecked
    (:meth:`put`).  Every refusal is ``ValueError("native <entry>:
    <operand> is <what it is>, not <what is declared>")``, but for an index
    vector of another kind than integers, ``IndexError``, as NumPy refuses
    to index by it."""

    def __init__(self, name: str, operands: tuple) -> None:
        self.name = name
        self.operands = {op.name: op for op in operands}
        self.params, self.signature = [], []
        for op in operands:
            self.params.append(op.name)
            self.signature.append((op.name, op.ctype, op.shape is not None))
            if op.stride:
                self.params.append(op.stride)
                self.signature.append((op.stride, "int64_t", False))
        self.slot = {param: k for k, param in enumerate(self.params)}
        # Each shape (and its size) as one function of the dimensions,
        # compiled once from the declared arithmetic; and each array's check,
        # read once a call: what its own axes say, ``(axis, extent or
        # name)`` (a ``*name``: the product of the axes from there; a padded
        # operand: its leading extent only), the ranks it may have, and
        # whether an expression (or a padded row) waits until every
        # dimension is known.
        self._shapes, self._sizes, self._checks = {}, {}, {}
        for op in operands:
            if op.shape is None:
                continue
            extents = [
                "(" + _NAME.sub(lambda name: f"d[{name[0]!r}]", str(e).lstrip("*")) + ")"
                for e in op.shape
            ]
            self._shapes[op.name] = eval(f"lambda d: ({', '.join(extents)},)", {})
            self._sizes[op.name] = eval(f"lambda d: {' * '.join(extents)}", {})
            shape = op.shape[:1] if op.padded else op.shape
            axes = tuple(
                (axis, e) for axis, e in enumerate(shape)
                if isinstance(e, int) or e.isidentifier() or e[0] == "*"
            )
            rank = len(op.shape)
            ranks = (1, 64) if op.padded else (
                (rank - 1, 64) if str(op.shape[-1])[0] == "*" else (rank, rank)
            )
            self._checks[op.name] = (
                op, self.slot[op.name], _ELEMENTS[op.ctype],
                _INDEX if op.index is not None else _CAST if op.cast else _PLAIN, *ranks,
                tuple((axis, e) for axis, e in axes if isinstance(e, int)),
                tuple((axis, e) for axis, e in axes if isinstance(e, str) and e[0] != "*"),
                next(((axis, e[1:]) for axis, e in axes if isinstance(e, str) and e[0] == "*"), None),
                op.padded or len(axes) < len(shape), self.slot.get(op.stride), op.write,
                op.restrict,
            )

    def blank(self) -> list:
        """An argument list, every parameter 0 (an absent optional operand
        is NULL)."""
        return [0] * len(self.params)

    def shape(self, name: str, dims: dict) -> tuple:
        """Operand ``name``'s shape at dimensions ``dims``."""
        return self._shapes[name](dims)

    def size(self, name: str, dims: dict) -> int:
        """The elements of operand ``name`` at ``dims``: what an arena for
        it must hold."""
        return self._sizes[name](dims)

    def dtype(self, name: str) -> np.dtype:
        return _ELEMENTS[self.operands[name].ctype]

    def take(self, given: dict, dims: Optional[dict] = None) -> _Taken:
        """:meth:`bind` of ``given`` once, for a binding to keep."""
        args, dims = [_UNSET] * len(self.params), dict(dims or ())
        held = self.bind(args, given, dims)
        values = {p: a for p, a in zip(self.params, args) if a is not _UNSET}
        return _Taken(values, dims, held)

    def prepare(self, given: dict, dims: Optional[dict] = None) -> tuple:
        """An argument list with ``given`` bound, for calls that fill in
        the rest: the list, the dimensions resolved, the arrays held."""
        args, dims = self.blank(), dict(dims or ())
        return args, dims, self.bind(args, given, dims)

    def put(self, args: list, values: dict) -> None:
        """``values`` — what a binding made itself: an arena's address, a
        count, an earlier :meth:`take`'s — into their slots, unchecked."""
        slot = self.slot
        for name, value in values.items():
            args[slot[name]] = value

    def bind(self, args, given: dict, dims: Optional[dict] = None) -> list:
        """Check and convert ``given`` — operands by their declared names —
        into their slots of ``args``: an array's address (row-strided, and
        its stride), a scalar as it is, and each dimension the arrays
        resolve into the scalar of its name.  ``dims`` are dimensions known
        already (the ones resolved are added).  Returns the arrays the
        addresses point into: they must outlive the call."""
        dims = {} if dims is None else dims
        slot, checks = self.slot, self._checks
        arrays, held, spans, later, resolved = [], [], [], [], []
        for name, value in given.items():
            check = checks.get(name)
            if check is None:
                args[slot[name]] = dims[name] = value
            else:
                arrays.append((check, value))
        for (
            op, at, dtype, kind, low, high, fixed, named, star, waits, stride_at, write,
            restrict,
        ), v in arrays:
            if v is None:
                if not op.optional:
                    raise ValueError(f"native {self.name}: no {op.name}, which is not optional")
                args[at] = None
                continue
            if kind is _INDEX:
                held.append(self._rows(op, at, named[0][1], v, args, dims, resolved))
                continue
            if kind is _CAST:
                v = np.asarray(v, dtype)
                if not v.ndim:  # broadcast to the declared shape, once it is known
                    later.append((op, v))
                    continue
                if not v.flags.c_contiguous:
                    v = np.ascontiguousarray(v)
            elif v.__class__ is not np.ndarray or v.dtype is not dtype and v.dtype != dtype:
                self._refuse(op, v, dims)
            shape = v.shape
            if stride_at is None:
                laid = v.flags.c_contiguous
            else:
                stride = args[stride_at] = _row_stride(v) if shape else None
                laid = stride is not None
            if not (laid and low <= len(shape) <= high) or write and not v.flags.writeable:
                self._refuse(op, v, dims)
            for axis, want in fixed:
                if shape[axis] != want:
                    self._refuse(op, v, dims)
            for axis, want in named:
                known = dims.get(want)
                if known is None:
                    dims[want] = shape[axis]
                    resolved.append(want)
                elif known != shape[axis]:
                    self._refuse(op, v, dims)
            if star is not None:
                axis, want = star
                known, got = dims.get(want), math.prod(shape[axis:])
                if known is None:
                    dims[want] = got
                    resolved.append(want)
                elif known != got:
                    self._refuse(op, v, dims)
            if waits:
                later.append((op, v))
            address = args[at] = _address(v)
            held.append(v)
            if restrict and v.size:
                extent = v.nbytes if v.flags.c_contiguous else (
                    (shape[0] - 1) * v.strides[0] + v[0].nbytes
                )
                spans.append((address, extent, op.name))
        for op, v in later:  # every dimension is known now
            want = self.shape(op.name, dims)
            if not v.ndim:
                v = np.full(want, v)
                args[slot[op.name]] = _address(v)
                held.append(v)
            elif not (
                v.shape[0] == want[0] and math.prod(v.shape[1:]) >= math.prod(want[1:])
                if op.padded else v.shape == want
            ):
                self._refuse(op, v, dims)
        if len(spans) > 1:
            spans.sort()
            for (start, size, first), (following, _, second) in zip(spans, spans[1:]):
                if start + size > following:
                    raise ValueError(
                        f"native {self.name}: operands share memory ({first}, {second})"
                    )
        for dim in resolved:
            if dim in slot:
                args[slot[dim]] = dims[dim]
        return held

    def rows(self, args: list, name: str, value, dims: dict) -> np.ndarray:
        """:meth:`bind` of the one index vector ``name`` (a served view's
        rows, say): the int64 rows its slot points into."""
        op, at, *_, named, _, _, _, _, _ = self._checks[name]
        resolved = []
        rows = self._rows(op, at, named[0][1], value, args, dims, resolved)
        for dim in resolved:
            if dim in self.slot:
                args[self.slot[dim]] = dims[dim]
        return rows

    def _rows(self, op, at, count, v, args, dims, resolved) -> np.ndarray:
        """Index vector ``op`` — rows into a dimension, ``[count]`` of them,
        whose bounds the C checks — into slot ``at``: integers converted
        to int64, any other kind refused with ``IndexError``; none: NULL."""
        v = np.asarray(v)
        if v.dtype is not _INT64 and v.dtype != _INT64:
            if v.dtype.kind not in "iu" and v.size:
                raise IndexError(f"native {self.name}: {op.name} is {v.dtype} rows, not integers")
            v = v.astype(_INT64)
        if not v.flags.c_contiguous:
            v = np.ascontiguousarray(v)
        if v.ndim != 1:
            self._refuse(op, v, dims)
        n = v.shape[0]
        known = dims.get(count)
        if known is None:
            dims[count] = n
            resolved.append(count)
        elif known != n:
            self._refuse(op, v, dims)
        args[at] = _address(v) if n else 0
        return v

    def _refuse(self, op: Operand, value, dims: dict):
        if isinstance(value, np.ndarray):
            layout = "C-contiguous" if value.flags.c_contiguous else "strided"
            state = "" if value.flags.writeable else "read-only "
            what = f"a {state}{layout} {value.dtype}{value.shape}"
        else:
            what = f"a {type(value).__name__}"
        try:
            extents = ", ".join(map(str, self.shape(op.name, dims)))
        except KeyError:
            extents = ", ".join(map(str, op.shape))
        raise ValueError(
            f"native {self.name}: {op.name} is {what}, not a "
            f"{'writable ' if op.write else ''}"
            f"{'row-strided' if op.stride else 'C-contiguous'} {_ELEMENTS[op.ctype]}"
            f"{' with rows of at least' if op.padded else ''}({extents})"
        )


@functools.lru_cache(maxsize=None)
def _binder(name: str) -> _Binder:
    """The binder of entry point ``name``'s declaration."""
    return _Binder(name, _OPERANDS[name])


def _binders(signatures: dict) -> dict:
    """``{name: binder}`` of every parsed prototype's declaration; one that
    differs from its prototype — a name, the count, the order or an
    element type — is an :class:`AbiError`."""
    binders = {}
    for name, parsed in signatures.items():
        binders[name] = _Binder(name, _OPERANDS.get(name, ()))
        declared = binders[name].signature
        if declared != parsed:
            at = next((k for k, (a, b) in enumerate(zip(declared, parsed)) if a != b), None)
            raise AbiError(f"{name}: the declaration is not the prototype: " + (
                f"parameter {at + 1} is declared {declared[at]}, the prototype has {parsed[at]}"
                if at is not None else
                f"{len(declared)} parameters declared, {len(parsed)} in the prototype"
            ))
    return binders


def _checked(lib: ctypes.CDLL, binder: _Binder, prototype: list) -> Callable:
    """Entry point ``binder.name`` of ``lib``, called over an argument list
    in prototype order (positionally), its nonzero status raised as
    :data:`_RAISES` says."""
    name, params, arity = binder.name, binder.params, len(binder.params)
    fn = getattr(lib, name)
    fn.argtypes = [ctypes.c_void_p if pointer else _SCALARS[ctype] for _, ctype, pointer in prototype]
    fn.restype = ctypes.c_int

    def call(*args):
        if len(args) != arity:
            raise AbiError(f"native {name} takes {arity} arguments, got {len(args)}")
        status = fn(*args)
        if status:
            label = _STATUS[status] if 0 < status < len(_STATUS) else status
            exc, text = _RAISES.get(name, {}).get(
                label, (RuntimeError, f" returned status {label}")
            )
            raise exc(f"native {name}" + text.format(**dict(zip(params, args))))

    call.__name__ = call.__qualname__ = name
    return call


class _Kept:
    """An op's last few :meth:`_Binder.prepare` lists of plain arrays (an
    optimizer's state), by the arrays' identity: a call over the same
    arrays checks only its own rows, as
    :meth:`~repro.kernels.workspace.Workspace.binding` does for a view.
    The arrays are held weakly — the op outlives any engine — and a list
    whose arrays are gone is made again.  One op serves every optimizer of
    the process (a per-name one holds five sets, a CLM engine two), so a
    few engines trained side by side fit in ``size``."""

    def __init__(self, binder: _Binder, size: int = 16) -> None:
        self._binder, self._size, self._kept = binder, size, collections.OrderedDict()

    def __call__(self, given: dict) -> "tuple[list, dict]":
        owners = tuple(given.values())
        key = tuple(map(id, owners))
        kept = self._kept.get(key)
        if kept is None or any(ref() is not owner for ref, owner in zip(kept[0], owners)):
            args, dims, _ = self._binder.prepare(given)
            kept = self._kept[key] = (tuple(map(weakref.ref, owners)), args, dims)
            while len(self._kept) > self._size:
                self._kept.popitem(last=False)
        return kept[1], kept[2]


def _run(lib, name: str, given: dict, dims: Optional[dict] = None) -> list:
    """Entry point ``name`` called once over ``given`` (and dimensions
    ``dims``), bound as declared; returns the arrays the call read and
    wrote."""
    binder = _binder(name)
    args = binder.blank()
    held = binder.bind(args, given, dims)
    getattr(lib, name)(*args)
    return held


# ---------------------------------------------------------------------------
# Building and loading
# ---------------------------------------------------------------------------
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
    it can, or has not been tried).  ``source`` replaces the text of
    ``native_kernels.c`` (the header is prepended all the same)."""

    def __init__(self, source: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._kernels: Optional[types.SimpleNamespace] = None
        self._source = source
        self.compiler = find_compiler()
        self.compiler_version: Optional[str] = None
        self.path: Optional[Path] = None
        self.failure: Optional[str] = (
            None
            if self.compiler
            else "no C compiler found ($CC, " + ", ".join(_COMPILERS) + ")"
        )

    def load(self) -> types.SimpleNamespace:
        """Every entry point as a checked call (:func:`_checked`), building
        the library on first use; raises ``RuntimeError`` (every time) once
        that has failed."""
        with self._lock:
            if self._kernels is None and self.failure is None:
                try:
                    self._kernels = self._build_and_load()
                except (OSError, subprocess.SubprocessError, RuntimeError) as exc:
                    self.failure = f"{type(exc).__name__}: {exc}"
            if self._kernels is None:
                raise RuntimeError(f"native kernels unavailable: {self.failure}")
            return self._kernels

    def _build_and_load(self) -> types.SimpleNamespace:
        version = subprocess.run(
            self.compiler + ["--version"],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        self.compiler_version = version.splitlines()[0] if version else None
        text = kernel_source(self._source)
        signatures = prototypes(text)  # before anything is built
        binders = _binders(signatures)
        source = text.encode()
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
        self.path = cached
        return types.SimpleNamespace(**{
            name: _checked(lib, binders[name], params) for name, params in signatures.items()
        })

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



# ---------------------------------------------------------------------------
# The cull ops
# ---------------------------------------------------------------------------
def _bind_cull(lib) -> Callable:
    """``exact_cull`` over the loaded library: its operands checked as
    declared, row bounds by the loop itself."""

    def exact_cull(planes, positions, log_scales, raw_quats, rows):
        kept = np.empty(np.size(rows) + 1, np.int64)
        _run(lib, "exact_cull", dict(
            planes=planes, positions=positions, log_scales=log_scales, quats=raw_quats,
            rows=rows, kept=kept,
        ))
        return kept[1 : 1 + kept[0]].copy()

    return exact_cull


#: A :class:`~repro.gaussians.spatial.CullingGrid`'s per-cell tables, by
#: their declared names.
_GRID_TABLES = ("cell_lo", "cell_hi", "cell_radius", "cell_finite", "offsets")


def _bind_grid(lib) -> Callable:
    """``grid_cull``: binds a :class:`~repro.gaussians.spatial.CullingGrid`
    — its tables built by ``grid_build`` unless it has them, its critical
    arrays, tables and ``(members, 11)`` cell-ordered ``block`` checked as
    the three entry points declare them, once — to its
    :class:`~repro.gaussians.spatial.GridOps`.  The copy makes a boundary
    cell's rows adjacent: the arrays' own order scatters them, and at
    200 000 rows the walk was bound by those cache misses.  Member and
    offset bounds are checked by the loop."""
    culler, refitter = _binder("grid_cull"), _binder("grid_refit")

    def build(grid, critical: _Taken) -> None:
        n, per_axis = grid.num_gaussians, max(grid.target_cells_per_axis, 1)
        dims = dict(n=n, cap=min(n, (per_axis + 1) ** 3 + 1))  # bins per axis <= per_axis + 1
        binder = _binder("grid_build")
        out = {
            name: np.empty(binder.shape(name, dims), binder.dtype(name))
            for name in ("frame", "head", "members", "slots", "block", *_GRID_TABLES)
        }
        args = binder.blank()
        binder.put(args, critical.values)
        binder.bind(args, dict(per_axis=per_axis, **dims, **out))
        lib.grid_build(*args)
        cells, grid.regular_cells = out["head"].tolist()
        grid.origin, grid.cell_size = out["frame"][:3], float(out["frame"][3])
        grid.members, grid.slots, grid.block = out["members"], out["slots"], out["block"]
        grid.offsets = out["offsets"][: cells + 1]
        for name in _GRID_TABLES[:4]:
            setattr(grid, name, out[name][:cells])

    def bind(grid):
        n = grid.num_gaussians
        critical = _binder("grid_build").take(
            dict(positions=grid.positions, log_scales=grid.log_scales, quats=grid.raw_quats)
        )
        if grid.offsets is None:
            build(grid, critical)
        tables = {name: getattr(grid, name) for name in _GRID_TABLES}
        culled, refitted = culler.blank(), refitter.blank()
        # The addresses point into the grid's arrays: the ops keep them
        # (``held``) alive, and the output buffers (grown when a batch keeps
        # more rows) with them.
        held = [critical.held, culler.bind(culled, dict(
            n=n, cells=grid.num_cells, members=grid.members, rows=grid.block, **tables,
        ))]
        refitter.put(refitted, critical.values)
        held.append(refitter.bind(refitted, dict(
            slots=grid.slots, cells=grid.num_cells, regular=grid.regular_cells,
            limit=spatial._MAX_CELL_WIDTH * grid.cell_size, block=grid.block, **tables,
        ), dict(critical.dims)))
        # The output buffers, each view's count, then its rows: remade when
        # a batch outgrows them.
        out = {}

        def grow(rows: int, views: int) -> None:
            out["kept"], out["counts"] = np.empty(rows, np.int64), np.empty(views, np.int64)
            out["at"] = _address(out["counts"]), _address(out["kept"]), rows

        grow(n, 1)
        lock = threading.Lock()

        # Where the output buffers go: each view's count, its rows, their room.
        counts_at, kept_at, cap_at = (culler.slot[name] for name in ("counts", "kept", "cap"))

        def cull(planes, _held=held):
            args = culled.copy()
            alive = culler.bind(args, {"planes": planes})  # what the call reads
            views = args[culler.slot["views"]]
            with lock:
                if out["counts"].size < views:
                    grow(out["kept"].size, views)
                args[counts_at], args[kept_at], args[cap_at] = out["at"]
                try:
                    lib.grid_cull(*args)
                except _ArenaShort:
                    grow(int(out["counts"][:views].sum()), views)
                    args[counts_at], args[kept_at], args[cap_at] = out["at"]
                    lib.grid_cull(*args)
                kept, counts = out["kept"], out["counts"]
                # NumPy's sort, not the C library's ``qsort``: 10-14x faster
                # on 1 000 to 200 000 rows in runs (2-vCPU Xeon).
                if views == 1:  # a served request: no list to cut
                    return [np.sort(kept[: counts[0]])]
                sizes = counts[:views].tolist()
                return [
                    np.sort(kept[end - size : end])
                    for size, end in zip(sizes, itertools.accumulate(sizes))
                ]

        def refit(rows, _held=held) -> bool:
            args, bloated = refitted.copy(), np.zeros(1, np.int64)
            alive = refitter.bind(args, dict(rows=rows, bloated=bloated), dict(critical.dims))
            lib.grid_refit(*args)
            return bool(bloated[0])

        return spatial.GridOps(cull, refit)

    return bind


# ---------------------------------------------------------------------------
# The view ops: one forward body, one backward call
# ---------------------------------------------------------------------------
def _view_params(camera, settings) -> np.ndarray:
    """The ``params`` vector of the view calls, slot by slot of
    :data:`_PARAMS`."""
    owners, values = {"camera": camera, "settings": settings}, []
    for owner, name, width in _PARAMS:
        value = getattr(owners[owner], name)
        if width > 1:
            values += np.ravel(value).tolist()
        else:
            values.append(value)
    if len(values) != _PARAM_SIZE:
        raise ValueError(f"native view operands: {len(values)} camera and settings values")
    return np.array(values, np.float64)


def _model(model) -> dict:
    """A model's five arrays by their ``view_project`` names."""
    return {name: getattr(model, attr) for name, attr in _MODEL.items()}


def _sh_degree(model, settings) -> int:
    """The SH degree a render evaluates, once the model stores its bases."""
    stored = model.sh.shape[1]
    degree = model.sh_degree
    if settings.active_sh_degree is not None:
        degree = min(settings.active_sh_degree, degree)
    if sh.num_basis(degree) > stored:
        raise ValueError(f"SH degree {degree} needs more than {stored} bases")
    return degree


#: A render's own blocks — ``view_composite``'s operands, by the name of
#: the block (or arena) each is held in — the three blend-record blocks
#: last, kept only when the backward pass is to read them.
_BLOCKS = {
    "floats": "kept", "ints": "ikept", "clamp": "clamp",
    "blend records": "rec_f", "blend pixels": "rec_p", "blend ends": "rec_end",
}
_BLEND_RECORDS = tuple(_BLOCKS)[3:]
#: The gradient arrays of ``view_backward``, in ``model.parameters()`` order.
_GRADS = ("g_positions", "g_log_scales", "g_quats", "g_sh", "g_logits")


@functools.lru_cache(maxsize=2)
def _render_blocks(records: bool) -> tuple:
    """``(block, size, dtype)`` of each of a render's own blocks, as
    ``view_composite`` declares them (the blend records with ``records``):
    ``size`` of the counts."""
    binder = _binder("view_composite")
    return tuple(
        (block, binder._sizes[operand], binder.dtype(operand))
        for block, operand in tuple(_BLOCKS.items())[: 6 if records else 3]
    )


def _kept_blocks(records: bool, dims: dict) -> list:
    """``[(block, size, dtype), ...]`` of a render's own blocks at its
    counts ``dims`` (``m``, ``tiles``, ``entries``, ``cap``, ``sub``)."""
    return [(block, size(dims), dtype) for block, size, dtype in _render_blocks(records)]


def _model_at(model) -> tuple:
    """A model's five arrays bound as ``view_project`` declares them: their
    addresses in prototype order, the rows and the stored SH bases, the
    arrays."""
    project = _binder("view_project")
    args, dims, held = project.prepare(_model(model))
    addresses = tuple(args[project.slot[name]] for name in _MODEL)
    return addresses, dims["total"], dims["k_stored"], held


#: A view the two forward calls rendered: ``view_backward``'s arguments
#: before the image gradient, in its declared order.
_View = collections.namedtuple("_View", _binder("view_backward").params[:-6])


def _forward(lib, camera, model, settings, take, rows=None, model_at=None) -> "tuple[_View, dict]":
    """A view's two forward calls: ``view_project`` sizes its blocks,
    ``view_composite`` fills them, composites and crops the image.  The
    input is ``model``'s rows ``rows`` (read in place), or every row when
    it is None; ``model_at`` is :func:`_model_at` of the model, when it is
    bound already.  Every block is ``take(name, size, dtype)`` — ``(array,
    address)`` of at least ``size`` elements, as the calls declare it;
    returns ``view_backward``'s operands of the view and ``{name: (array,
    address)}``.  Both calls are made over positional lists (``_checked``
    counts them; the order is the declaration's, checked at load): a
    served request pays for no more than its rows' check."""
    project, composite = _binder("view_project"), _binder("view_composite")
    addresses, total, stored, _ = _model_at(model) if model_at is None else model_at
    degree = _sh_degree(model, settings)
    width, height, sub = camera.width, camera.height, rasterizer.compute_tile(settings)
    # ``view_project`` puts every row to the arbiter ``exact_cull`` put it
    # to, on the same bits.  Both vectors are made here, to their declared
    # shapes.
    planes, params = frustum_planes(camera), _view_params(camera, settings)
    params_at = _address(params)
    args = [
        total, None, total, *addresses, _address(planes), stored, degree, params_at,
        width, height, int(settings.tile_size), sub, None, None,
    ]
    dims = dict(width=width, height=height, sub=sub)
    if rows is None:
        dims["n"] = total
    else:
        rows = project.rows(args, "rows", rows, dims)
    blocks = {
        "scratch": take("scratch", project.size("f", dims), np.float64),
        "work": take("work", project.size("iw", dims), np.int64),
    }
    args[-2:] = blocks["scratch"][1], blocks["work"][1]
    lib.view_project(*args)
    m, _, tiles, entries, area = blocks["work"][0][:5].tolist()
    records = bool(settings.cache_blend_state)  # for view_backward only
    kept_at = [None] * len(_BLOCKS)
    counts = dict(m=m, tiles=tiles, entries=entries, cap=area, sub=sub)
    for k, (block, size, dtype) in enumerate(_render_blocks(records)):
        blocks[block] = take(block, size(counts), dtype)
        kept_at[k] = blocks[block][1]
    for block in ("image", "trans"):
        blocks[block] = take(block, composite.size(block, dims), np.float64)
    lib.view_composite(
        dims["n"], blocks["scratch"][1], blocks["work"][1], params_at, width, height, sub,
        *kept_at, blocks["image"][1], blocks["trans"][1],
    )
    view = _View(
        m, dims["n"], tiles, entries, area if records else 0, *kept_at, addresses[3], stored,
        degree, params_at, width, height, sub,
    )
    blocks["held"] = (rows, params)
    return view, blocks


def _fresh(name: str, size: int, dtype) -> tuple:
    """A render's own block: a new array of exactly ``size`` elements, and
    its address."""
    try:
        block = np.empty(size, dtype)
    except MemoryError as exc:
        raise MemoryError(
            f"native view_forward could not allocate its {name} ({size} values)"
        ) from exc
    return block, _address(block)


def _bind_view(lib, name: str) -> Callable:
    """``view_forward``: :func:`_forward` over fresh blocks, cut into a
    context that carries its backward pass, one ``view_backward`` call over
    those blocks — or, with a ``workspace``, over its arenas, to a copy of
    the image and the survivor count, with no context built.  ``rows``
    renders those rows of ``model`` as ``model.gather(rows)``, read in
    place: the context (and its backward pass) is then the gathered
    model's."""
    from repro.gaussians.covariance import GaussianShape
    from repro.gaussians.rasterizer import ProjectedGaussians, RenderContext, TileBins

    def served(camera, model, settings, rows, ws):
        # The served model's arrays are checked and their addresses taken
        # once; a replaced array binds again.
        model_at = ws.binding(
            "model", (model.positions, model.log_scales, model.quaternions, model.sh,
                      model.opacity_logits),
            _model_at, model,
        )
        ws.lease()
        try:
            view, blocks = _forward(lib, camera, model, settings, ws.arena, rows, model_at)
            height, width = view.height, view.width
            image = blocks["image"][0][: 3 * height * width].reshape(height, width, 3).copy()
        finally:
            ws.release()
        return image, view.m

    def view_forward(camera, model, settings, rows=None, workspace=None):
        if workspace is not None:
            return served(camera, model, settings, rows, workspace)
        view, blocks = _forward(lib, camera, model, settings, _fresh, rows)
        m, tiles, floats, ints = view.m, view.tiles, blocks["floats"][0], blocks["ints"][0]
        clamp = blocks["clamp"][0]
        fields = _cut(floats, m, _RETAINED_LAYOUT)
        shapes = GaussianShape(
            *(fields.pop(f) for f in ("scales", "quat_norms", "unit_quats", "rotations"))
        )
        proj = ProjectedGaussians(
            ids=ints[:m], clamp_mask=clamp.reshape(m, 3), sh_degree_used=view.degree,
            shapes=shapes, **fields,
        )
        width, height, sub = view.width, view.height, view.sub
        bins = TileBins(
            tile_size=sub, tiles_x=-(-width // sub), tiles_y=-(-height // sub),
            width=width, height=height, tile_ids=ints[m : m + tiles],
            offsets=ints[m + tiles : m + 2 * tiles + 1], order=ints[m + 2 * tiles + 1 :],
        )
        records = [blocks[block][0] for block in _BLEND_RECORDS if block in blocks]
        ctx = RenderContext(
            camera=camera, settings=settings, proj=proj, bins=bins,
            num_input=view.n, kernel_backend=name,
            blocks=(proj, floats, ints, clamp, *records), backward=view_backward,
        )
        image = blocks["image"][0].reshape(height, width, 3)
        return image, blocks["trans"][0].reshape(height, width), ctx

    def view_backward(ctx, model, dL_dimage):
        proj, *kept = ctx.blocks
        camera, bins = ctx.camera, ctx.bins
        if sh.num_basis(proj.sh_degree_used) > model.sh.shape[1]:
            raise ValueError("native view_backward: not the model that was rendered")
        grads = {field: np.zeros(arr.shape) for field, arr in model.parameters().items()}
        _run(lib, "view_backward", dict(
            zip(_BLOCKS.values(), kept), m=proj.ids.size, n=ctx.num_input,
            tiles=bins.num_tiles, entries=bins.num_entries, sh=model.sh,
            degree=proj.sh_degree_used, params=_view_params(camera, ctx.settings),
            width=camera.width, height=camera.height, sub=bins.tile_size, d_image=dL_dimage,
            **dict(zip(_GRADS, grads.values())),
        ))
        return grads

    return view_forward


# ---------------------------------------------------------------------------
# The data path
# ---------------------------------------------------------------------------
def _held_rows(cached: int, prev, carried, names=("carried", "carried_sh", "carried_opacity")) -> dict:
    """The rows a working set held last step that a load reads: its
    previous buffer when ``cached`` rows are, the gradients it carries."""
    held = {}
    if cached:
        rows, noncrit = prev
        held.update(prev=rows, prev_sh=noncrit["sh"], prev_opacity=noncrit["opacity_logits"])
    if carried is not None:
        held.update(zip(names, carried))
    return held


def _bind_rows(lib, op: str) -> Callable:
    """The data-path op ``op`` as one call into the loaded library: its
    operands checked as declared, rows by the C call before it writes
    anything."""
    from repro.optim.kernels import tables_for

    def assemble_rows(ws, working_set, loads, cached, carried_grads):
        cpu, k = ws.cpu_store, ws.cpu_store.sh_basis
        m = np.size(working_set)
        block = np.empty(m * (6 * k + 12))
        _run(lib, "assemble_rows", dict(
            _held_rows(np.size(cached), (ws.indices, ws.noncrit), carried_grads),
            k3=3 * k, pinned=cpu.params, critical=ws.gpu_store.packed_params,
            ws=working_set, loads=loads, cached=cached, block=block,
        ), {"k": k})
        out = _cut(block, m, _layout((
            ("sh", (k, 3)), ("opacity", ()), ("grad_sh", (k, 3)), ("grad_opacity", ()),
            ("positions", (3,)), ("log_scales", (3,)), ("quaternions", (4,)),
        ))[0])
        critical = {name: out.pop(name) for name in ("positions", "log_scales", "quaternions")}
        return out["sh"], out["opacity"], critical, out["grad_sh"], out["grad_opacity"]

    adam = _binder("adam_rows")
    state = _Kept(adam)

    def zero_rows(buffer, rows):
        _run(lib, "zero_rows", dict(buffer=buffer, rows=rows))

    def adam_rows(
        params, grads, m, v, steps, rows, lr, beta1, beta2, eps, bump=True,
        block_rows=None,  # the C loop walks the rows in place, unblocked
    ):
        bound, dims = state(dict(params=params, grads=grads, m=m, v=v, steps=steps))
        args = bound.copy()
        held = adam.bind(args, dict(
            beta1=beta1, beta2=beta2, eps=eps, bump=int(bump), rows=rows, lr=lr,
        ), dict(dims))
        tables, t_max = tables_for(beta1, beta2), 0
        while True:
            bc1, rsqrt_bc2 = tables.covering(t_max)
            adam.put(args, dict(
                bc1=_address(bc1), rsqrt_bc2=_address(rsqrt_bc2),
                table=min(bc1.size, rsqrt_bc2.size),
            ))
            try:
                return lib.adam_rows(*args)
            except _TablesShort:
                pass
            # A step past the tables' end: grow them, then go again (nothing
            # was written).  Only a negative step count can fail twice.
            reached = int(steps[np.asarray(rows, np.int64)].max()) + int(bump)
            if reached <= t_max:
                raise ValueError("native adam_rows: a negative step count")
            t_max = reached

    return {
        "assemble_rows": assemble_rows, "zero_rows": zero_rows,
        "adam_rows": adam_rows,
    }[op]


# ---------------------------------------------------------------------------
# The loss and the training view
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=8)
def _window(size: int, sigma: float) -> tuple:
    """The SSIM window's taps (symmetric, as the C's pairs assume:
    :func:`~repro.gaussians.loss._gaussian_window` is) and their address."""
    from repro.gaussians.loss import _gaussian_window

    taps = _gaussian_window(size, sigma)
    taps.setflags(write=False)
    return taps, taps.ctypes.data


def _moments(moments) -> "tuple[dict, int]":
    """A target's kept moments as the loss takes them, and the address of
    the SSIM window."""
    taps, at = _window(*moments.window)
    return dict(uy=moments.uy, uy2_c1=moments.uy2_c1, vy_c2=moments.vy_c2, size=taps.size), at


def _bind_loss(lib) -> Callable:
    """``photometric_loss`` as one call into the loaded library, over the
    target's kept moments (which the caller matched to ``target``)."""
    from repro.gaussians.loss import _C1, _C2

    binder = _binder("photometric_loss")

    def photometric_loss(rendered, target, ssim_lambda, moments):
        loss, taps_at = _moments(moments)
        grad, value = np.empty(np.shape(rendered)), np.empty(1)
        args = binder.blank()
        held = binder.bind(args, dict(  # the images first: a refusal names them
            x=rendered, y=target, **loss, ssim_lambda=float(ssim_lambda), c1=_C1, c2=_C2,
            grad=grad, value=value,
        ))
        binder.put(args, {"t": taps_at})
        lib.photometric_loss(*args)
        return float(value[0]), grad

    return photometric_loss


def _bind_loss_target(target, moments, camera) -> tuple:
    """``photometric_loss``'s argument list over a target and its kept
    moments (the four planes, the SSIM window) for ``camera``'s image,
    checked once, and the arrays it points into."""
    from repro.gaussians.loss import _C1, _C2

    binder = _binder("photometric_loss")
    loss, taps_at = _moments(moments)
    args, _, held = binder.prepare(dict(
        loss, h=camera.height, w=camera.width, channels=3, c1=_C1, c2=_C2, y=target,
    ))
    binder.put(args, {"t": taps_at})
    return args, held


def _bind_train(lib, name: str) -> Callable:
    """``view_train``: :func:`_forward` over a
    :class:`~repro.kernels.workspace.Workspace`'s arenas, then
    ``photometric_loss`` and ``view_backward`` there, with the checks of
    the three ops it fuses and no context, projection or bins built."""
    from repro.gaussians.loss import TargetMoments

    loss_binder = _binder("photometric_loss")

    def view_train(
        camera, model, settings, target, moments, ssim_lambda, batch,
        workspace=None,
    ):
        if moments is None:  # as the reference's loss: the target's own
            moments = TargetMoments.of(target)
        ws = Workspace() if workspace is None else workspace
        height, width = camera.height, camera.width
        pixels = height * width
        # Keyed by view, as ``train_step``'s: a replaced target or camera
        # binds again.
        bound, _ = ws.binding(
            ("loss", camera.view_id), (moments, target, camera), _bind_loss_target,
            target, moments, camera,
        )
        args = bound.copy()
        ws.lease()
        try:
            start = time.perf_counter()
            view, blocks = _forward(lib, camera, model, settings, ws.arena)
            forward_s = time.perf_counter() - start

            d_image, d_image_at = ws.arena("d_image", 3 * pixels)
            value, value_at = ws.arena("value", 1)
            loss_binder.put(args, dict(
                x=blocks["image"][1], ssim_lambda=float(ssim_lambda), grad=d_image_at,
                value=value_at,
            ))
            lib.photometric_loss(*args)

            start = time.perf_counter()
            d_image = d_image[: 3 * pixels]
            np.divide(d_image, batch, out=d_image)
            # The five gradient arrays, field after field in one arena,
            # zeroed: view_backward writes the survivors' rows only.
            size = (11 + 3 * view.k_stored) * view.n
            block, block_at = ws.arena("grads", size)
            ctypes.memset(block_at, 0, 8 * size)
            grads, addresses, at = {}, [], 0
            for field, arr in model.parameters().items():
                grads[field] = block[at : at + arr.size].reshape(arr.shape)
                addresses.append(block_at + 8 * at)
                at += arr.size
            lib.view_backward(*view, d_image_at, *addresses)
            ws.backward_s = time.perf_counter() - start
        except BaseException:
            ws.release()
            raise
        ws.forward_s, ws.rendered_on = forward_s, name
        return float(value[0]), grads

    return view_train


# ---------------------------------------------------------------------------
# The microbatch step
# ---------------------------------------------------------------------------
#: ``train_step``'s double-buffered arenas — the working set's block and the
#: gradients it carries to the next step — by the parity of the step: a step
#: writes one pair while the block and carry it reads, the last step's, sit
#: in the other.
_STEP_ARENAS = (("block 0", "carry 0"), ("block 1", "carry 1"))
_DEGREE = {k: d for d, k in sh.BASIS_PER_DEGREE.items()}


def _bind_stores(cpu, gpu) -> _Taken:
    """``train_step``'s take of a pinned and a critical store: the sizes,
    the packed buffers' addresses."""
    return _binder("train_step").take(dict(
        k3=3 * cpu.sh_basis, pinned=cpu.params, pinned_grads=cpu.grads,
        critical=gpu.packed_params, critical_grads=gpu.packed_grads,
    ), {"k": cpu.sh_basis})


def _bind_camera(camera, settings) -> _Taken:
    """What ``train_step`` reads of a view and the render settings: the
    ``planes`` and ``params`` vectors, the image and tile sizes."""
    return _binder("train_step").take(dict(
        planes=frustum_planes(camera), params=_view_params(camera, settings),
        width=camera.width, height=camera.height, ts=int(settings.tile_size),
        sub=rasterizer.compute_tile(settings),
    ))


def _bind_target(target, moments, camera, *bound: _Taken) -> tuple:
    """``train_step``'s arguments for a target: the loss's operands over it,
    for ``camera``'s image, and its kept moments (the four planes, the SSIM
    window), checked, with the ``bound`` takes (the stores', the view's) in
    place; the dimensions they resolved; the arrays they point into."""
    from repro.gaussians.loss import _C1, _C2

    binder = _binder("train_step")
    args, dims = binder.blank(), {}
    for taken in bound:
        binder.put(args, taken.values)
        dims.update(taken.dims)
    loss, _ = _moments(moments)
    held = binder.bind(args, dict(
        loss, height=camera.height, width=camera.width, c1=_C1, c2=_C2, target=target,
        taps=_window(*moments.window)[0],
    ), dims)
    return args, dims, held


def _bind_step(lib, name: str) -> Callable:
    """``train_step``: one call over a
    :class:`~repro.core.stores.GpuWorkingSet`, its stores and a
    :class:`~repro.kernels.workspace.Workspace`'s arenas, with the checks
    of the ops it fuses.  The stores' buffers, a view's camera vectors and a
    target's moments are checked and their addresses taken once each
    (:meth:`Workspace.binding`: again when one is replaced); the working
    set's accounting is the reference's."""
    from repro.gaussians.loss import TargetMoments

    binder = _binder("train_step")
    slot = binder.slot
    # Where the render's own arenas go in the argument list, set per
    # attempt; at first whatever they hold (the C reports a shortfall).
    blocks_at = [slot[operand] for operand in _BLOCKS.values()]
    counts = dict.fromkeys(("m", "tiles", "entries", "cap", "sub"), 0)
    unsized = {records: _kept_blocks(records, counts) for records in (False, True)}
    arenas = tuple(
        (arena, slot[arena], binder.dtype(arena))
        for arena in ("scratch", "work", "image", "trans", "d_image", "grads")
    )
    # What a call sets itself: the SH degree, the settings, its arenas.
    per_call = [
        slot[p] for p in ("degree", "records", "ssim_lambda", "batch", "caps", "value", "out")
    ]

    def train_step(
        working, step, carried, camera, settings, target, moments,
        ssim_lambda, batch, workspace=None,
    ):
        if moments is None:  # as the reference's loss: the target's own
            moments = TargetMoments.of(target)
        ws = Workspace() if workspace is None else workspace
        cpu, gpu = working.cpu_store, working.gpu_store
        # A store never replaces its buffers: a new store (rebuild) rebinds.
        stores = ws.binding("stores", (cpu, gpu), _bind_stores, cpu, gpu)
        # Keyed by view, so a replaced camera or target overwrites its
        # binding rather than pinning the old one.
        view = ws.binding(
            ("view", camera.view_id),
            (camera, frustum_planes(camera), settings.alpha_threshold,
             settings.transmittance_min, settings.max_alpha, settings.background,
             settings.tile_size),
            _bind_camera, camera, settings,
        )
        bound, dims, _ = ws.binding(
            ("target", camera.view_id), (moments, target, camera, stores, view),
            _bind_target, target, moments, camera, stores, view,
        )
        args, dims = bound.copy(), dict(dims)
        k3, width, height, sub = dims["k3"], dims["width"], dims["height"], dims["sub"]
        held = binder.bind(args, dict(
            ws=step.working_set, loads=step.loads, cached=step.cached, stores=step.stores,
            carried=step.carried,
        ), dims)
        m, nc, cached = dims["m"], dims["num_carried"], dims["num_cached"]
        if cached and working.indices is None:
            raise RuntimeError("cache copy requested with no previous buffer")
        block_name, carry_name = _STEP_ARENAS[ws.steps & 1]
        size, carried_size = binder.size("block", dims), binder.size("carry", dims)
        block, args[slot["block"]] = ws.arena(block_name, size)
        carry, args[slot["carry"]] = ws.arena(carry_name, carried_size)
        block, carry = block[:size], carry[:carried_size]
        reads = _held_rows(
            cached, (working.indices, working.noncrit), carried,
            ("carried_in", "carried_sh", "carried_opacity"),
        )
        if reads:
            # The last step's block (cached rows) and carry, which
            # assemble_rows reads, may share no memory with the block and
            # carry this one writes (``restrict``), or a call that is run
            # again would read what it wrote.
            held += binder.bind(args, dict(reads, block=block, carry=carry), dims)
        degree = _DEGREE[k3 // 3]
        if settings.active_sh_degree is not None:
            degree = min(settings.active_sh_degree, degree)
        records = bool(settings.cache_blend_state)
        value, value_at = ws.arena("value", 1)
        out, out_at = ws.arena("step out", len(_STEP_OUT), np.int64)
        caps, caps_at = ws.arena("step caps", len(_BLOCKS), np.int64)
        for arena, at, dtype in arenas:
            args[at] = ws.arena(arena, binder.size(arena, dims), dtype)[1]
        settled = (degree, int(records), float(ssim_lambda), float(batch), caps_at, value_at, out_at)
        for at, item in zip(per_call, settled):
            args[at] = item
        ws.lease()
        try:
            working.reserve(m)
            kept = unsized[records]
            while True:
                blocks = [ws.arena(block, size, dtype) for block, size, dtype in kept]
                # Every slot: the C checks all six, and an arena is not
                # cleared when it is allocated.
                caps[:] = 0
                caps[: len(blocks)] = [block.size for block, _ in blocks]
                for k, at in enumerate(blocks_at):
                    args[at] = blocks[k][1] if k < len(blocks) else None
                try:
                    lib.train_step(*args)
                    break
                except _ArenaShort:
                    # Only the block, scratch and work were written: size
                    # the render's blocks by its counts and go again.
                    survivors, _, busy, entries, area = out[2:7].tolist()
                    kept = _kept_blocks(records, dict(
                        m=survivors, tiles=busy, entries=entries, cap=area, sub=sub,
                    ))
        except _StageFailed:
            ws.release()
            stage, status = _STEP_STAGES[out[0]], _STATUS[out[1]]
            exc, text = _STAGE_RAISES[stage].get(
                status, (RuntimeError, f" returned status {status}")
            )
            raise exc(
                f"native train_step: {stage}" + text.format(
                    width=width, height=height, sub=sub, h=height, w=width,
                    m=m, entries=int(out[5]), total=m,
                )
            ) from None
        except BaseException:
            ws.release()
            raise
        ws.steps += 1
        forward_ns, backward_ns = out[7:9].tolist()
        ws.forward_s, ws.backward_s = forward_ns * 1e-9, backward_ns * 1e-9
        ws.rendered_on = name
        # The block: sh | opacity | grad_sh | grad_opacity | critical rows.
        k, mk = k3 // 3, m * k3
        working.hold(
            step.working_set, block[:mk].reshape(m, k, 3), block[mk : mk + m],
            block[mk + m : 2 * mk + m].reshape(m, k, 3),
            block[2 * mk + m : 2 * mk + 2 * m],
        )
        counters = working.counters
        counters.cached_gaussians += cached
        counters.loaded_gaussians += dims["num_loads"]
        counters.stored_gaussians += dims["num_stores"]
        # The five gradients, field after field in model.parameters() order.
        grads = ws.arena("grads", 0)[0]
        grads = {
            "positions": grads[: 3 * m].reshape(m, 3),
            "log_scales": grads[3 * m : 6 * m].reshape(m, 3),
            "quaternions": grads[6 * m : 10 * m].reshape(m, 4),
            "sh": grads[10 * m : 10 * m + mk].reshape(m, k, 3),
            "opacity_logits": grads[10 * m + mk : 11 * m + mk],
        }
        loss_value = float(value[0])
        if not nc:
            return loss_value, grads, None
        return loss_value, grads, (
            step.carried, carry[: nc * k3].reshape(nc, k, 3), carry[nc * k3 : nc * (k3 + 1)],
        )

    return train_step


# ---------------------------------------------------------------------------
# The batch plan
# ---------------------------------------------------------------------------
#: ``plan_batch``'s leading values: the malformed entry, the nanoseconds the
#: order took, the size of the touched union.
_PLAN_HEAD = 3
_NO_ROWS = np.empty(0, dtype=np.int64)


def _not_an_order(order) -> ValueError:
    return ValueError(f"native plan_batch: {list(order)} is not an order")


def _bind_plan(lib) -> Callable:
    """``plan_batch`` as one call into the loaded library: the sets
    concatenated into one buffer with offsets, the plan written into one
    plan-owned int64 buffer whose read-only slices are every array of the
    returned :class:`~repro.planning.planner.PlannedBatch`."""
    from repro.planning.caching import MicrobatchStep
    from repro.planning.planner import PlannedBatch, malformed
    from repro.planning.tsp_order import UNTIMED_NODES
    from repro.utils.rng import make_rng

    def plan_batch(sets, view_ids, order, rng, time_limit_s, enable_cache, num_gaussians):
        b = len(sets)
        sizes = [np.size(s) for s in sets]
        # As given: the binder refuses sets that are not integers.
        rows = np.concatenate(sets) if b else _NO_ROWS
        offsets = np.fromiter(itertools.accumulate(sizes, initial=0), np.int64, b + 1)
        search = order is None
        if search:  # the reference's draw: one permutation, from two sets on
            order = make_rng(rng).permutation(b) if b > 1 else range(b)
        if len(order) != b:
            raise _not_an_order(order)
        seq = np.fromiter(order, np.int64, b)
        dims = dict(count=b, total=rows.size)
        out = np.empty(_binder("plan_batch").size("out", dims), dtype=np.int64)
        try:
            _run(lib, "plan_batch", dict(
                count=b, sets=rows, offsets=offsets, n=int(num_gaussians), seq=seq,
                search=int(search),
                time_limit=float(time_limit_s), untimed=UNTIMED_NODES,
                enable_cache=int(bool(enable_cache)), out=out,
            ), dims)
        except _Malformed:
            if out[0] < 0:
                raise _not_an_order(order) from None
            raise malformed(rows, offsets, int(out[0]), num_gaussians) from None
        out.setflags(write=False)
        head = out[:_PLAN_HEAD + 4 * b].tolist()
        search_ns, num_touched = head[1], head[2]
        order = head[_PLAN_HEAD : _PLAN_HEAD + b]
        num_loads = head[_PLAN_HEAD + b : _PLAN_HEAD + 2 * b]
        num_stores = head[_PLAN_HEAD + 2 * b : _PLAN_HEAD + 3 * b]
        at, steps = _PLAN_HEAD + 4 * b, []
        for i, k in enumerate(order):
            m, loads, stores = sizes[k], num_loads[i], num_stores[i]
            steps.append(MicrobatchStep(
                position=i, view_id=int(view_ids[k]), working_set=out[at : at + m],
                loads=out[at + m : at + m + loads],
                cached=out[at + m + loads : at + 2 * m],
                stores=out[at + 2 * m : at + 2 * m + stores],
                carried=out[at + 2 * m + stores : at + 3 * m],
            ))
            at += 3 * m
        touched = out[at : at + num_touched]
        at, chunks = at + num_touched, []
        for size in head[_PLAN_HEAD + 3 * b : _PLAN_HEAD + 4 * b]:
            chunks.append(out[at : at + size])
            at += size
        return PlannedBatch(
            order=tuple(order), steps=tuple(steps), touched=touched,
            adam_chunks=tuple(chunks), search_s=search_ns * 1e-9 if search else 0.0,
        )

    return plan_batch




@register_backend("native")
class NativeKernelBackend(KernelBackend):
    """Compiled C view, loss, data-path, plan and microbatch kernels."""

    priority = 10
    description = (
        "a view in C (frustum test, projection, binning, fused per-tile "
        "compositing, gradient chain), a culling grid's build, refit and "
        "batched query, "
        "the L1 + SSIM loss, a training view "
        "as one op over the engine's arenas, CLM's data path and fused Adam "
        "over row indices, a CLM microbatch (load, view, offload) as one "
        "call, and a batch's plan (TSP order, transfer partitions, Adam "
        "chunks), built at first use with the system C compiler (float64 "
        "operands)"
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
        return frozenset(KERNEL_OPS)

    def _compile(self, op: str) -> Callable:
        lib = self.library().load()
        if op == "exact_cull":
            return _bind_cull(lib)
        if op == "grid_cull":
            return _bind_grid(lib)
        if op == "photometric_loss":
            return _bind_loss(lib)
        if op == "view_train":
            return _bind_train(lib, self.name)
        if op == "plan_batch":
            return _bind_plan(lib)
        if op == "train_step":
            return _bind_step(lib, self.name)
        if op == "view_forward":
            return _bind_view(lib, self.name)
        return _bind_rows(lib, op)
