"""The ``native`` kernel backend — a view, its loss, CLM's data path, a
batch's plan and a whole CLM microbatch in C, built at first use.

``native_kernels.c`` exports fifteen entry points; each of its sections
documents its loops and the NumPy reference it reproduces.  Python binds
them to the eleven kernel ops:

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
- ``view_train`` — a resident engine's microbatch in one call
  (:func:`_bind_train`): the working set's rows of the model read in place,
  their gradients added into the full-size ones, over its workspace;
- ``plan_batch`` — a batch's plan in one call (:func:`_bind_plan`), into
  one int64 buffer of which every array of the plan is a slice;
- ``train_step`` — a CLM microbatch in one call (:func:`_bind_step`):
  load, view, loss, backward, gradient offload, over the engine's
  workspace, the working set's block and carried gradients double-buffered
  so a call can be run again when its render outgrows the arenas
  (``STATUS_ARENA_SHORT``); a failing stage (:data:`_STEP_STAGES`) raises
  what that entry point would.  Both steps share ``static view_step`` in C
  and :class:`_Prepared` here: a prepared call, whose warmed calls bind only rows;
- ``train_batch`` — a CLM engine's inline batch in one call
  (:func:`_bind_batch`): its lowered node list as opcodes, interpreted in C
  — the touched rows zeroed, each step ``train_step``'s ``static
  clm_step``, each Adam chunk and the critical update ``adam_rows`` —
  over one buffer of the plan's rows, each step resumable where its render
  outgrew the arenas, the stages stamped.

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
  (a view's, the steps, ``adam_rows``, ``zero_rows``, a grid's refit,
  ``plan_batch``) bind only their rows into kept positional lists, which
  :func:`_checked` counts;
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
leaves this backend: it runs all eleven, by name, over whatever it is handed
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
import operator
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
from collections.abc import Mapping
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
#: The calls a step or a batch makes, in order (``STAGE_<NAME>`` in C), then
#: ``train_batch``'s check of its plan: the one that failed is reported at
#: ``out[OUT_STAGE]``.
_STEP_STAGES = (
    "assemble_rows", "view_project", "view_composite", "photometric_loss",
    "view_backward", "retire_rows", "adam_rows", "plan",
)
#: What a step's or a batch's stamps time, in order: zeroing the touched rows
#: (and the batch's plan check), the load, the forward's two halves, the loss,
#: the backward, the gradients added and offloaded, the noncritical Adam
#: chunks and the critical Adam.  Each has its ``<stage>_ns`` report slot.
_STAMPS = (
    "zero", "assemble", "project", "composite", "loss", "backward", "retire", "adam",
    "critical_adam",
)
#: ``train_step``'s and ``view_train``'s ``out`` vector, slot by slot
#: (``OUT_<NAME>`` in C): the failing stage and its status,
#: ``view_project``'s five counts, the nanoseconds of each stage.
_STEP_OUT = (
    "stage", "status", "survivors", "binned", "tiles", "entries", "area",
    *(f"{stage}_ns" for stage in _STAMPS),
)
#: ``train_batch``'s: a step's, then the node a render outgrew its arenas at
#: and the nanoseconds of the whole call.
_BATCH_OUT = _STEP_OUT + ("node", "total_ns")
_OUT = {slot: k for k, slot in enumerate(_BATCH_OUT)}
_STAMPED = slice(_OUT["zero_ns"], _OUT["critical_adam_ns"] + 1)
#: The node kinds of a lowered batch (``NODE_<KIND>`` in C), as
#: :func:`~repro.planning.lowering.lower_batch` names them.
_NODES = ("step", "adam", "critical_adam")
#: A step's row vectors in a batch's plan buffer, in order (``PLAN_VECTORS``).
_PLAN_VECTORS = ("working_set", "loads", "cached", "stores", "carried")
#: A row of ``train_batch``'s views table (``VIEW_<NAME>`` in C): the
#: addresses of the view's planes, params, target, moments and window taps,
#: its size and its taps' count.
_VIEW_ROW = (
    "planes", "params", "width", "height", "target", "uy", "uy2_c1", "vy_c2", "taps", "size",
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

#: The training view both steps run (``view_step`` in C), after their
#: inputs: the view, the target and its moments, the loss, the batch.
_VIEW_STEP = (
    f"double planes[6, 4]; int64_t degree; double params[{_PARAM_SIZE}]; int64_t width;"
    " int64_t height; int64_t ts; int64_t sub; int64_t records;"
    f" double target[height, width, 3]; {_MOMENTS.format('3, height, width')};"
    " double taps[size]; int64_t size; double ssim_lambda; double c1; double c2;"
    " double batch"
)
#: The arenas a step renders in: ``{0}`` is the SH values a row.
_RENDER_ARENAS_OF = (
    f"double scratch[{_SCRATCH} * m] write; int64_t work[{_WORK.format('m')}] write;"
    f" {_RENDER.format('write')}; int64_t caps[6]; double image[height, width, 3] write;"
    " double trans[height, width] write; double d_image[height, width, 3] write;"
    " double grads[(11 + {0}) * m] write"
)
#: ... and a step's loss and report, last.
_STEP_ARENAS_OF = (
    _RENDER_ARENAS_OF + f"; double value[1] write; int64_t out[{len(_STEP_OUT)}] write"
)
#: An optimizer's moments, step counts and per-column rates over ``{1}``
#: columns: ``{0}`` names them.
_ADAM_STATE = (
    "double m_{0}[n, {1}] write; double v_{0}[n, {1}] write; int64_t steps_{0}[n] write;"
    " double lr_{0}[{1}]"
)

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
        f" {_VIEW_STEP}; double block[m * (2 * k3 + 12)] write restrict;"
        " double carry[num_carried * (k3 + 1)] write restrict;"
        f" {_STEP_ARENAS_OF.format('k3')}"
    ),
    "train_batch": (
        "int64_t n; int64_t k3; int64_t stride; double pinned[n, stride] write;"
        " double pinned_grads[n, stride] write; double critical[n, 10] write;"
        " double critical_grads[n, 10] write; int64_t program[nodes, 2]; int64_t nodes;"
        " int64_t rows[total] index(n); int64_t total;"
        f" int64_t offsets[{len(_PLAN_VECTORS) + 1} * count + 2]; int64_t count;"
        f" int64_t views[count, {len(_VIEW_ROW)}]; int64_t degree; int64_t ts; int64_t sub;"
        " int64_t records; double ssim_lambda; double c1; double c2; double batch;"
        f" {_ADAM_STATE.format('nc', 'stride')}; {_ADAM_STATE.format('c', 10)};"
        " double beta1; double beta2; double eps; double bc1[table]; double rsqrt_bc2[table];"
        " int64_t table; double blocks[2 * block_size] write; int64_t block_size;"
        " double carries[2 * carry_size] write; int64_t carry_size;"
        f" {_RENDER_ARENAS_OF.format('k3')}; double value[count] write; int64_t start;"
        f" int64_t out[{len(_BATCH_OUT)}] write"
    ),
    "view_train": (
        "int64_t m; int64_t rows[m] index(n) optional; int64_t n; double positions[n, 3];"
        " double log_scales[n, 3]; double quats[n, 4]; double sh[n, k_stored, 3];"
        " double logits[n]; int64_t k_stored; double into_positions[n, 3] write optional;"
        " double into_log_scales[n, 3] write optional; double into_quats[n, 4] write optional;"
        " double into_sh[n, k_stored, 3] write optional; double into_logits[n] write optional;"
        f" {_VIEW_STEP}; double sh_rows[m, k_stored, 3] write optional;"
        f" {_STEP_ARENAS_OF.format('3 * k_stored')}"
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
        enum(f"OUT_{slot.upper()} = {k}" for k, slot in enumerate(_BATCH_OUT)),
        enum(f"NODE_{kind.upper()} = {k}" for k, kind in enumerate(_NODES)),
        enum(
            [f"VIEW_{slot.upper()} = {k}" for k, slot in enumerate(_VIEW_ROW)]
            + [f"VIEW_SLOTS = {len(_VIEW_ROW)}", f"PLAN_VECTORS = {len(_PLAN_VECTORS)}"]
        ),
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
    """``adam_rows`` or ``train_batch`` met a step past the bias-correction
    tables it was handed (nothing was written): grow them and call again."""


class _ArenaShort(Exception):
    """A step counted a render larger than the arenas it was handed (before
    writing any store; ``train_batch`` reports that step's node), or
    ``grid_cull`` more rows than its output buffer holds: grow them and call
    again."""


class _StageFailed(Exception):
    """A call inside a step or a batch failed: ``out`` names it and its
    status, and the binding raises what that call raises."""


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


#: A step's: a failing stage's status is what that stage raises.
_STEPPED = {**dict.fromkeys(_STATUS[1:], (_StageFailed, "")), "ARENA_SHORT": (_ArenaShort, "")}
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
    **dict.fromkeys(("train_step", "view_train"), _STEPPED),
    "train_batch": {**_STEPPED, "TABLES_SHORT": (_TablesShort, "")},
}
#: What a failing stage of a step or a batch (:data:`_STEP_STAGES`) raises:
#: its entry point's entry, or the ``static`` ``retire_rows``'s, or the
#: batch's plan check's.
_STAGE_RAISES = {
    **_RAISES, "retire_rows": _ROWS,
    "plan": {
        **_no_memory("chunk marks"), "OUT_OF_RANGE": (IndexError, ": a row outside the store"),
        "VIOLATED": (ValueError, ": a malformed node list or row vector"),
    },
}


# ---------------------------------------------------------------------------
# The binder: one for every entry point, from its declaration
# ---------------------------------------------------------------------------
def _address(arr: np.ndarray) -> int:
    """Where an array's data starts.  ``ndarray.ctypes`` builds an object
    (~1.1 us); a ctypes view of a writable contiguous buffer costs ~0.35
    us, and all but the critical store's column views and the index sets
    of serving's cached (read-only) plans are that."""
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
            _disjoint(self.name, spans)
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


def _disjoint(entry: str, spans: list) -> None:
    """Raise unless the ``(address, bytes, operand)`` spans share no memory."""
    spans = sorted(spans)
    for (start, size, first), (following, _, second) in zip(spans, spans[1:]):
        if start + size > following:
            raise ValueError(f"native {entry}: operands share memory ({first}, {second})")


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
    """An op's last few prepared argument lists over plain arrays (an
    optimizer's state, a gradient buffer), by the arrays' identity.  A call
    copies its list (``call``: the list and the arrays it points into,
    replaced whole when a slot changes) and binds only its rows into the
    copy, so calls side by side (Adam chunks on workers) share none.  The
    arrays are held weakly — the op outlives any engine — and a list whose
    arrays are gone is made again; ``size`` fits a few engines' optimizers."""

    def __init__(self, binder: _Binder, size: int = 16) -> None:
        self._binder, self._size, self._kept = binder, size, collections.OrderedDict()

    def __call__(self, given: dict) -> types.SimpleNamespace:
        owners = tuple(given.values())
        key = tuple(map(id, owners))
        kept = self._kept.get(key)
        if kept is None or any(ref() is not owner for ref, owner in zip(kept[0], owners)):
            args, dims, _ = self._binder.prepare(given)
            prepared = types.SimpleNamespace(call=(args, ()), dims=dims, settled=None)
            kept = self._kept[key] = (tuple(map(weakref.ref, owners)), prepared)
            while len(self._kept) > self._size:
                self._kept.popitem(last=False)
        return kept[1]


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

        bloated_at = refitter.slot["bloated"]

        def refit(rows, _held=held) -> bool:
            args, bloated = refitted.copy(), np.zeros(1, np.int64)
            rows = refitter.rows(args, "rows", rows, {})
            args[bloated_at] = _address(bloated)
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


def _tables(binder, args, beta1, beta2, reached=None) -> tuple:
    """Bias-correction tables covering step ``reached`` written into
    ``binder``'s ``bc1`` / ``rsqrt_bc2`` / ``table`` slots of ``args``;
    the tables, for the caller to hold.  ``reached`` is where a call found
    the tables in ``args`` short: tables that already cover it fell short
    only of a negative step count."""
    from repro.optim.kernels import tables_for

    if reached is not None and reached < args[binder.slot["table"]]:
        raise ValueError(f"native {binder.name}: a negative step count") from None
    bc1, rsqrt_bc2 = tables_for(beta1, beta2).covering(reached or 0)
    binder.put(args, dict(
        bc1=_address(bc1), rsqrt_bc2=_address(rsqrt_bc2), table=min(bc1.size, rsqrt_bc2.size),
    ))
    return bc1, rsqrt_bc2


def _bind_rows(lib, op: str) -> Callable:
    """The data-path op ``op`` as one call into the loaded library: its
    operands checked as declared, rows by the C call before it writes
    anything."""

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

    zeroer, adam = _binder("zero_rows"), _binder("adam_rows")
    buffers, state = _Kept(zeroer), _Kept(adam)
    bump_at, tables_at = adam.slot["bump"], slice(adam.slot["bc1"], adam.slot["table"] + 1)

    def zero_rows(buffer, rows):
        args = buffers(dict(buffer=buffer)).call[0].copy()
        rows = zeroer.rows(args, "rows", rows, {})
        lib.zero_rows(*args)

    def settle(kept, lr, beta1, beta2, eps, reached=None) -> None:
        # Rates, betas and tables into a new list: a call copying the old
        # one meanwhile holds its arrays.
        args = list(kept.call[0])
        held = adam.bind(args, dict(beta1=beta1, beta2=beta2, eps=eps, lr=lr), dict(kept.dims))
        tables = _tables(adam, args, beta1, beta2, reached)
        kept.call, kept.settled = (args, (held, *tables)), (lr, beta1, beta2, eps)

    def adam_rows(
        params, grads, m, v, steps, rows, lr, beta1, beta2, eps, bump=True,
        block_rows=None,  # the C loop walks the rows in place, unblocked
    ):
        kept = state(dict(params=params, grads=grads, m=m, v=v, steps=steps))
        settled = kept.settled
        if settled is None or settled[0] is not lr or settled[1:] != (beta1, beta2, eps):
            settle(kept, lr, beta1, beta2, eps)
        args, held = kept.call
        args = args.copy()
        rows = adam.rows(args, "rows", rows, {})
        args[bump_at] = int(bump)
        for attempt in range(2):
            try:
                return lib.adam_rows(*args)
            except _TablesShort:
                # A step past the tables' end: grow them, then go again
                # (nothing was written).
                if attempt:
                    raise ValueError("native adam_rows: a negative step count") from None
                settle(kept, lr, beta1, beta2, eps, int(steps[rows].max()) + int(bump))
                args[tables_at], held = kept.call[0][tables_at], kept.call[1]

    return {
        "assemble_rows": assemble_rows, "zero_rows": zero_rows,
        "adam_rows": adam_rows,
    }[op]


# ---------------------------------------------------------------------------
# The loss
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


# ---------------------------------------------------------------------------
# The microbatch steps
# ---------------------------------------------------------------------------
#: ``train_step``'s double-buffered arenas — the working set's block and the
#: gradients it carries to the next step — by the parity of the step: a step
#: writes one pair while the block and carry it reads, the last step's, sit
#: in the other.
_STEP_ARENAS = (("block 0", "carry 0"), ("block 1", "carry 1"))
_DEGREE = {k: d for d, k in sh.BASIS_PER_DEGREE.items()}
#: The ``(arena, operand)`` a step renders in, sized by its rows and image.
_SIZED = tuple((a, a) for a in ("scratch", "work", "image", "trans", "d_image", "grads"))
#: The model's and the full-size gradients' operands of ``view_train``.
_RESIDENT = (*_MODEL, *(f"into_{name}" for name in _MODEL))


def _bind_stores(cpu, gpu) -> _Taken:
    """``train_step``'s take of a pinned and a critical store: the sizes,
    the packed buffers' addresses."""
    return _binder("train_step").take(dict(
        k3=3 * cpu.sh_basis, pinned=cpu.params, pinned_grads=cpu.grads,
        critical=gpu.packed_params, critical_grads=gpu.packed_grads,
    ), {"k": cpu.sh_basis})


def _bind_target(entry, camera, settings, target, moments) -> tuple:
    """Step ``entry``'s slots from ``planes`` to ``batch`` for a view: the
    ``planes`` and ``params`` vectors, the image and tile sizes, ``target``
    and its kept moments, checked; ``(width, height, sub)``; the arrays
    they point into."""
    from repro.gaussians.loss import _C1, _C2

    binder = _binder(entry)
    args, dims = binder.blank(), {}
    loss, _ = _moments(moments)
    held = binder.bind(args, dict(
        loss, planes=frustum_planes(camera), params=_view_params(camera, settings),
        width=camera.width, height=camera.height, ts=int(settings.tile_size),
        sub=rasterizer.compute_tile(settings), c1=_C1, c2=_C2, target=target,
        taps=_window(*moments.window)[0],
    ), dims)
    frame = (dims["width"], dims["height"], dims["sub"])
    return args[binder.slot["planes"] : binder.slot["batch"] + 1], frame, held


def _view_binding(ws, entry, camera, settings, target, moments) -> tuple:
    """Step ``entry``'s view slots (:func:`_bind_target`), kept by
    :meth:`Workspace.binding`, and the view's ``(width, height, sub)``."""
    # Keyed by view: a replaced camera or target overwrites its binding
    # rather than pinning the old one.
    values, frame, _ = ws.binding(
        ("view", entry, camera.view_id),
        (camera, frustum_planes(camera), settings.alpha_threshold,
         settings.transmittance_min, settings.max_alpha, settings.background,
         settings.tile_size, target, moments),
        _bind_target, entry, camera, settings, target, moments,
    )
    return values, frame


class _StepGrads(Mapping):
    """A step's five gradients in its ``grads`` arena (``m`` rows, ``k`` SH
    bases, ``model.parameters()`` order), each cut when it is read."""

    __slots__ = ("_arena", "_m", "_layout")

    def __init__(self, arena: np.ndarray, m: int, k: int) -> None:
        self._arena, self._m, self._layout = arena, m, _grad_layout(k)

    def __getitem__(self, name: str) -> np.ndarray:
        shape, at, width = self._layout[name]
        return self._arena[at * self._m : (at + width) * self._m].reshape((self._m,) + shape)

    def __iter__(self):
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._layout)


@functools.lru_cache(maxsize=8)
def _grad_layout(k: int) -> dict:
    fields = ("positions", (3,)), ("log_scales", (3,)), ("quaternions", (4,)), ("sh", (k, 3))
    return {f: (shape, at, w) for f, shape, at, w in _layout(fields + (("opacity_logits", ()),))[0]}


class _Prepared:
    """Step or batch ``entry``'s prepared call on one workspace (its
    :attr:`~repro.kernels.workspace.Workspace.calls` entry): the argument
    list; the take whose slots it holds (the stores, or the model and the
    full-size gradients) and its ``dims``; the arenas placed (``arenas``,
    their addresses ``at``; a batch's named apart from a step's, so neither
    moves the other's) and the ``(frame, dims, counts)`` they ``fit``; the
    render blocks' blend-record flag; what the last ``train_step`` handed on
    (``lent``), or the Adam tables a batch grew (``tables``).  A slot is
    written when its source changes, so a warmed call writes only its rows
    and per-call scalars.  The call does not hold its workspace (each method
    is handed it): the workspace holds the call, and a cycle between them
    would keep a dropped engine's arenas and stores alive until the cycle
    collector ran."""

    __slots__ = (
        "lib", "name", "binder", "prefix", "args", "taken", "dims", "arenas", "at", "fit",
        "records", "lent", "tables",
    )

    @classmethod
    def of(cls, ws, lib, entry: str, name: str) -> "_Prepared":
        call = ws.calls.get(entry)
        if call is None:
            call = ws.calls[entry] = cls(ws, lib, entry, name)
        return call

    def __init__(self, ws, lib, entry: str, name: str) -> None:
        binder = _binder(entry)
        self.lib, self.name, self.binder = lib, name, binder
        self.prefix = "batch " if entry == "train_batch" else ""
        self.args, self.taken, self.dims, self.arenas, self.at = binder.blank(), None, {}, {}, {}
        self.fit = self.records = self.lent = self.tables = None
        fixed = [("out", "step out", binder.size("out", {}), np.int64),
                 ("caps", "step caps", len(_BLOCKS), np.int64)]
        if not self.prefix:  # a batch's losses are sized by its steps
            fixed.append(("value", "value", 1, np.float64))
        for operand, arena, size, dtype in fixed:
            self.arenas[operand], self.args[binder.slot[operand]] = ws.arena(
                self.prefix + arena, size, dtype,
            )

    def rebind(self, taken: _Taken) -> None:
        """Write ``taken``'s slots unless they are the ones written; a new
        take (a rebuild, fresh arrays) reads nothing the last step handed
        on."""
        if taken is not self.taken:
            self.binder.put(self.args, taken.values)
            self.taken, self.dims, self.lent, self.tables = taken, taken.dims, None, None

    def view(self, ws, camera, settings, target, moments) -> tuple:
        """Write a view's slots (:func:`_view_binding`); its ``(width,
        height, sub)``."""
        slot = self.binder.slot
        values, frame = _view_binding(ws, self.binder.name, camera, settings, target, moments)
        self.args[slot["planes"] : slot["batch"] + 1] = values
        return frame

    def ensure(self, ws, frame, counts: tuple, arenas, **dims) -> bool:
        """Place ``arenas`` — ``(arena, operand)`` pairs — for a view of
        ``frame`` and ``counts`` (the rows ``m`` first, then other counts
        they are sized by, each in ``dims`` too) unless the placement in
        force holds them: made for the same frame and take dims (the SH
        width), at least as many of each count; True when placed."""
        fit = self.fit
        if (
            fit is not None and fit[0] == frame and fit[1] == self.dims
            and all(held >= count for held, count in zip(fit[2], counts))
        ):
            return False
        width, height, sub = frame
        dims.update(self.dims, m=counts[0], width=width, height=height, sub=sub)
        binder = self.binder
        for arena, operand in arenas:
            array, at = ws.arena(
                self.prefix + arena, binder.size(operand, dims), binder.dtype(operand),
            )
            self.arenas[arena], self.at[arena] = array, at
            if arena == operand:
                self.args[binder.slot[arena]] = at
        self.fit = (frame, self.dims, counts)
        return True

    def blocks(self, ws, records: bool, counts=None) -> None:
        """Place the render's own blocks for ``records``, sized by the
        ``(survivors, binned, tiles, entries, area)`` a call reported short
        (none: empty, so the first render reports its sizes)."""
        survivors, _, busy, entries, area = counts or (0,) * 5
        kept = _kept_blocks(records, dict(
            m=survivors, tiles=busy, entries=entries, cap=area,
            sub=self.args[self.binder.slot["sub"]],
        ))
        blocks = [ws.arena(self.prefix + block, size, dtype) for block, size, dtype in kept]
        # Every slot: the C checks all six, and an arena is not cleared
        # when it is allocated.
        caps = self.arenas["caps"]
        caps[:] = 0
        caps[: len(blocks)] = [block.size for block, _ in blocks]
        for k, operand in enumerate(_BLOCKS.values()):
            self.args[self.binder.slot[operand]] = blocks[k][1] if k < len(blocks) else None
        self.arenas.update((block, array) for (block, *_), (array, _) in zip(kept, blocks))
        self.records = records

    def failed(self, frame, m: int) -> Exception:
        """What the stage ``out`` names as failed raises."""
        out, (width, height, sub) = self.arenas["out"], frame
        stage, status = _STEP_STAGES[out[0]], _STATUS[out[1]]
        exc, text = _STAGE_RAISES[stage].get(status, (RuntimeError, f" returned status {status}"))
        return exc(f"native {self.binder.name}: {stage}" + text.format(
            width=width, height=height, sub=sub, h=height, w=width, m=m,
            entries=int(out[5]), total=self.dims["n"],
        ))

    def stamped(self, ws) -> list:
        """The forward (project + composite) and backward seconds of the
        call's stamps into ``ws``, and this backend as what rendered; the
        stamps (:data:`_STAMPS`), in nanoseconds."""
        ns = self.arenas["out"][_STAMPED].tolist()
        ws.forward_s, ws.backward_s = (ns[2] + ns[3]) * 1e-9, ns[5] * 1e-9
        ws.rendered_on = self.name
        return ns

    def run(
        self, ws, frame, m: int, degree: int, settings, ssim_lambda, batch, before=None,
    ) -> float:
        """Take the lease, write the per-call scalars, call ``before()`` and
        the step — again, its render's blocks grown, while it reports them
        short — and return the loss, the lease held.  A failing stage
        (:data:`_STEP_STAGES`) raises what that entry point would, the
        lease released."""
        args, slot, records = self.args, self.binder.slot, bool(settings.cache_blend_state)
        if records is not self.records:
            self.blocks(ws, records)
        args[slot["degree"]], args[slot["records"]] = degree, int(records)
        args[slot["ssim_lambda"]], args[slot["batch"]] = float(ssim_lambda), float(batch)
        out = self.arenas["out"]
        step = getattr(self.lib, self.binder.name)
        ws.lease()
        try:
            if before is not None:
                before()
            while True:
                try:
                    step(*args)
                    break
                except _ArenaShort:
                    # Nothing the caller reads was written: size the
                    # render's blocks by its counts and go again.
                    self.blocks(ws, records, out[2:7].tolist())
        except _StageFailed:
            ws.release()
            raise self.failed(frame, m) from None
        except BaseException:
            ws.release()
            raise
        self.stamped(ws)
        return float(self.arenas["value"][0])


def _bind_train(lib, name: str) -> Callable:
    """``view_train``: one prepared call (:class:`_Prepared`) over a
    workspace's arenas that reads the working set ``rows`` of the model
    (every row when None) in place and adds its gradients into ``into`` at
    those rows; a warmed call binds only its rows."""
    from repro.gaussians.loss import TargetMoments

    binder = _binder("view_train")
    rows_at, m_at, sh_rows_at = (binder.slot[p] for p in ("rows", "m", "sh_rows"))

    def view_train(
        camera, model, settings, target, moments, ssim_lambda, batch,
        workspace=None, rows=None, into=None,
    ):
        if moments is None:  # as the reference's loss: the target's own
            moments = TargetMoments.of(target)
        ws = Workspace() if workspace is None else workspace
        call = _Prepared.of(ws, lib, "view_train", name)
        # The model and the full-size gradients (absent: NULL).
        into = into or {}
        owners = (
            model.positions, model.log_scales, model.quaternions, model.sh,
            model.opacity_logits, *[into.get(attr) for attr in _MODEL.values()],
        )
        call.rebind(ws.binding("resident", owners, binder.take, dict(zip(_RESIDENT, owners))))
        frame = call.view(ws, camera, settings, target, moments)
        args, n = call.args, call.dims["n"]
        if rows is None:  # every row, read where it is: no SH rows to copy
            m, extra = n, -1
            args[m_at], args[rows_at] = n, None
        else:
            counted = {}
            rows = binder.rows(args, "rows", rows, counted)
            m = extra = counted["m"]
        sized = _SIZED if rows is None else _SIZED + (("sh_rows", "sh_rows"),)
        call.ensure(ws, frame, (m, extra), sized)
        args[sh_rows_at] = None if rows is None else call.at["sh_rows"]
        loss = call.run(ws, frame, m, _sh_degree(model, settings), settings, ssim_lambda, batch)
        return loss, _StepGrads(call.arenas["grads"], m, call.dims["k_stored"])

    return view_train


#: ``train_step``'s four slots of the last step's rows, or its carried ones, absent.
_NOT_HELD = (None, 0, None, None)


@functools.lru_cache(maxsize=2)
def _step_pairs(arenas: tuple) -> tuple:
    """The ``(arena, operand)`` of both of ``arenas``' blocks and carries."""
    return tuple(
        (arena, operand) for pair in arenas for arena, operand in zip(pair, ("block", "carry"))
    )


def _degree(k3: int, settings) -> int:
    """The SH degree a step renders: its rows', capped by the settings'."""
    degree = _DEGREE[k3 // 3]
    return degree if settings.active_sh_degree is None else min(settings.active_sh_degree, degree)


def _bind_step(lib, name: str) -> Callable:
    """``train_step``: one prepared call (:class:`_Prepared`) over a
    :class:`~repro.core.stores.GpuWorkingSet`, its stores and a workspace's
    arenas, with the checks of the ops it fuses; the last step's cached rows
    and carried gradients are read where this binding put them, so a warmed
    call binds only its rows.  The working set's accounting is the
    reference's."""
    from repro.gaussians.loss import TargetMoments

    binder = _binder("train_step")
    slot = binder.slot
    held_lo, held_hi = slot["prev"], slot["carried_opacity"] + 1
    block_at, carry_at = slot["block"], slot["carry"]

    def train_step(
        working, step_rows, carried, camera, settings, target, moments,
        ssim_lambda, batch, workspace=None,
    ):
        if moments is None:  # as the reference's loss: the target's own
            moments = TargetMoments.of(target)
        ws = Workspace() if workspace is None else workspace
        call = _Prepared.of(ws, lib, "train_step", name)
        cpu, gpu = working.cpu_store, working.gpu_store
        # A store never replaces its buffers: a new store (rebuild) rebinds.
        call.rebind(ws.binding("stores", (cpu, gpu), _bind_stores, cpu, gpu))
        frame = call.view(ws, camera, settings, target, moments)
        args, dims = call.args, dict(call.dims)
        held = binder.bind(args, dict(
            ws=step_rows.working_set, loads=step_rows.loads, cached=step_rows.cached,
            stores=step_rows.stores, carried=step_rows.carried,
        ), dims)
        m, nc, cached = dims["m"], dims["num_carried"], dims["num_cached"]
        if cached and working.indices is None:
            raise RuntimeError("cache copy requested with no previous buffer")
        pairs = _step_pairs(_STEP_ARENAS)
        if call.ensure(ws, frame, (m, nc), _SIZED + pairs, num_carried=nc):
            # The two pairs may share no memory: a step reads one and
            # writes the other (``restrict``), and a call run again must
            # not read what it wrote.
            _disjoint("train_step", [
                (call.at[arena], call.arenas[arena].nbytes, operand) for arena, operand in pairs
            ])
        block_name, carry_name = _STEP_ARENAS[ws.steps & 1]
        block, carry = call.arenas[block_name], call.arenas[carry_name]
        args[block_at], args[carry_at] = call.at[block_name], call.at[carry_name]
        lent = call.lent
        if lent is not None and (not cached or working.noncrit is lent[0]) and (
            carried is None or carried is lent[1]
        ):
            # What the last call handed on, where it wrote it.
            args[held_lo:held_hi] = (lent[2] if cached else _NOT_HELD) + (
                _NOT_HELD if carried is None else lent[3]
            )
        else:
            args[held_lo:held_hi] = _NOT_HELD + _NOT_HELD
            reads = _held_rows(
                cached, (working.indices, working.noncrit), carried,
                ("carried_in", "carried_sh", "carried_opacity"),
            )
            if reads:
                # Bound as declared: ``restrict`` against the block and
                # carry this step writes.
                size, carried_size = binder.size("block", dims), binder.size("carry", dims)
                held += binder.bind(
                    args, dict(reads, block=block[:size], carry=carry[:carried_size]), dims,
                )
        k3 = dims["k3"]
        loss_value = call.run(
            ws, frame, m, _degree(k3, settings), settings, ssim_lambda, batch,
            lambda: working.reserve(m),
        )
        ws.steps += 1
        # The block: sh | opacity | grad_sh | grad_opacity | critical rows.
        k, mk = k3 // 3, m * k3
        working.hold(
            step_rows.working_set, block[:mk].reshape(m, k, 3), block[mk : mk + m],
            block[mk + m : 2 * mk + m].reshape(m, k, 3),
            block[2 * mk + m : 2 * mk + 2 * m],
        )
        counters = working.counters
        counters.cached_gaussians += cached
        counters.loaded_gaussians += dims["num_loads"]
        counters.stored_gaussians += dims["num_stores"]
        handed = None if not nc else (
            step_rows.carried, carry[: nc * k3].reshape(nc, k, 3), carry[nc * k3 : nc * (k3 + 1)],
        )
        at, carry_from = args[block_at], args[carry_at]
        call.lent = (
            working.noncrit, handed, (args[slot["ws"]], m, at, at + 8 * mk),
            (args[slot["carried"]], nc, carry_from, carry_from + 8 * nc * k3), held,
        )
        return loss_value, _StepGrads(call.arenas["grads"], m, k), handed

    return train_step


#: The arenas a batch places beyond a step's: both halves of the working
#: set's block and of its carry, the steps' losses and their views table.
_BATCH_SIZED = _SIZED + tuple((a, a) for a in ("blocks", "carries", "value", "views"))
_NODE_KINDS = {kind: k for k, kind in enumerate(_NODES)}


def _bind_batch_state(cpu, gpu, noncritical, critical) -> _Taken:
    """``train_batch``'s take of the two stores and their optimizers (one
    ``AdamConfig``, as a CLM engine builds them), with the bias-correction
    tables as they stand."""
    from repro.gaussians.loss import _C1, _C2
    from repro.optim.kernels import tables_for

    adam = noncritical.config
    bc1, rsqrt_bc2 = tables_for(adam.beta1, adam.beta2).covering(0)
    for opt in (noncritical, critical):
        opt._ops("adam_rows")  # their step runs on this backend
    return _binder("train_batch").take(dict(
        k3=3 * cpu.sh_basis, pinned=cpu.params, pinned_grads=cpu.grads,
        critical=gpu.packed_params, critical_grads=gpu.packed_grads,
        **{f"{state}_{side}": getattr(opt, attr) for side, opt in (("nc", noncritical), ("c", critical))
           for state, attr in (("m", "packed_m"), ("v", "packed_v"), ("steps", "steps"),
                               ("lr", "lr_columns"))},
        beta1=adam.beta1, beta2=adam.beta2, eps=adam.eps, bc1=bc1, rsqrt_bc2=rsqrt_bc2,
        c1=_C1, c2=_C2,
    ), {"k": cpu.sh_basis})


def _program(nodes) -> np.ndarray:
    """A :func:`~repro.planning.lowering.lower_batch` node list as the C
    reads it: ``(NODE_<kind>, index)`` a node."""
    return np.array([(_NODE_KINDS[n.kind], n.index) for n in nodes], np.int64)


def _bind_batch(lib, name: str) -> Callable:
    """``train_batch``: a CLM engine's lowered batch as one prepared call
    (:class:`_Prepared`) over its workspace — the stores and optimizers
    bound once, each view by its ``train_step`` binding, the plan's rows one
    buffer a call — with the walk's accounting: the pool replayed before the
    call, then the counters, the losses in step order, the stamps' seconds,
    the critical Adam's moved rows.  Returns the noncritical Adam's seconds,
    none hidden."""
    binder, view_slot = _binder("train_batch"), _binder("train_step").slot
    slot = binder.slot
    start_at, rows_at = slot["start"], slot["rows"]
    # A view's row of the views table, cut from its train_step slots.
    view_row = operator.itemgetter(
        *(view_slot[name] - view_slot["planes"] for name in _VIEW_ROW)
    )
    scalars = [slot[name] for name in (
        "program", "nodes", "total", "offsets", "degree", "ts", "sub", "records", "ssim_lambda",
        "batch", "block_size", "carry_size", "count",
    )]

    def train_batch(engine, plan, run, nodes, workers=0):  # inline: no workers
        if not nodes:
            return 0.0, 0.0
        ws, working, steps, count = engine._workspace, run.working, plan.steps, plan.batch_size
        settings, opts = engine.raster_settings, (engine.adam_noncritical, engine.adam_critical)
        adam = opts[0].config
        call = _Prepared.of(ws, lib, "train_batch", name)
        owners = [working.cpu_store, working.gpu_store, adam.beta1, adam.beta2, adam.eps]
        for opt in opts:
            owners += (opt.packed_m, opt.packed_v, opt.steps, opt.lr_columns)
        call.rebind(ws.binding("batch", tuple(owners), _bind_batch_state, *owners[:2], *opts))
        views, width, height = [], 0, 0
        for step in steps:
            view_id = step.view_id
            camera, target = engine.cameras[view_id], run.targets[view_id]
            moments = engine._target_moments(view_id, target)
            # The step's binding: a view alternating between the two calls
            # is bound once.
            values, frame = _view_binding(ws, "train_step", camera, settings, target, moments)
            views += view_row(values)
            width, height = max(width, frame[0]), max(height, frame[1])
        frame = (width, height, frame[2])
        vectors = [
            v for step in steps
            for v in (step.working_set, step.loads, step.cached, step.stores, step.carried)
        ]
        vectors += (plan.touched, *plan.adam_chunks)
        sizes = list(map(len, vectors))
        offsets = np.fromiter(itertools.accumulate(sizes, initial=0), np.int64, len(sizes) + 1)
        ws_sizes, nc, k3 = sizes[0 : 5 * count : 5], max(sizes[4 : 5 * count : 5]), call.dims["k3"]
        m = max(ws_sizes)
        block_size, carry_size = m * (2 * k3 + 12), nc * (k3 + 1)
        call.ensure(
            ws, frame, (m, nc, count), _BATCH_SIZED,
            block_size=block_size, carry_size=carry_size, count=count,
        )
        call.arenas["views"][: len(views)] = views
        args, program, records = call.args, _program(nodes), bool(settings.cache_blend_state)
        rows = np.concatenate(vectors).astype(np.int64, copy=False)  # held past the call
        args[rows_at] = _address(rows)  # not NULL when empty: C offsets it
        for at, value in zip(scalars, (
            _address(program), len(nodes), rows.size, _address(offsets), _degree(k3, settings),
            int(settings.tile_size), frame[2], int(records), float(engine.config.ssim_lambda),
            float(count), block_size, carry_size, count,
        )):
            args[at] = value
        if records is not call.records:
            call.blocks(ws, records)
        for size in ws_sizes:
            working.reserve(size)
        out, args[start_at] = call.arenas["out"], 0
        ws.lease()
        try:
            while True:
                try:
                    lib.train_batch(*args)
                    break
                except _ArenaShort:  # that step wrote nothing: grow, resume at it
                    args[start_at] = int(out[_OUT["node"]])
                    call.blocks(ws, records, out[2:7].tolist())
                except _TablesShort:  # nothing was written: longer tables, from the start
                    reached = 1 + max(int(opt.steps[plan.touched].max()) for opt in opts)
                    call.tables = _tables(binder, args, adam.beta1, adam.beta2, reached)
        except _StageFailed:
            raise call.failed(frame, m) from None
        finally:
            ws.release()
        for step, loss in zip(steps, call.arenas["value"][:count].tolist()):
            run.per_view_loss[step.view_id] = loss
            run.loss += loss / run.batch
        counters, end = working.counters, 5 * count
        counters.loaded_gaussians += sum(sizes[1:end:5])
        counters.cached_gaussians += sum(sizes[2:end:5])
        counters.stored_gaussians += sum(sizes[3:end:5])
        ws.steps += count
        adam_ns, critical_ns = call.stamped(ws)[-2:]
        engine._tally_view(ws)
        if plan.touched.size:
            engine._critical_adam_done(plan.touched, critical_ns * 1e-9)
        return adam_ns * 1e-9, 0.0

    return train_batch


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
    plan-owned int64 buffer whose slices are every array of the returned
    :class:`~repro.planning.planner.PlannedBatch`."""
    from repro.planning.caching import MicrobatchStep
    from repro.planning.planner import PlannedBatch, malformed
    from repro.planning.tsp_order import UNTIMED_NODES
    from repro.utils.rng import make_rng

    planner = _binder("plan_batch")

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
        # The sets bound; the rest is what the call made itself.
        args = planner.blank()
        rows = planner.rows(args, "sets", rows, {})
        out = np.empty(planner.size("out", dict(count=b, total=rows.size)), dtype=np.int64)
        planner.put(args, dict(
            count=b, offsets=_address(offsets), n=int(num_gaussians), seq=_address(seq),
            search=int(search), time_limit=float(time_limit_s),
            enable_cache=int(bool(enable_cache)), out=_address(out), untimed=UNTIMED_NODES,
        ))
        try:
            lib.plan_batch(*args)
        except _Malformed:
            if out[0] < 0:
                raise _not_an_order(order) from None
            raise malformed(rows, offsets, int(out[0]), num_gaussians) from None
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
        "the L1 + SSIM loss, CLM's data path and fused Adam "
        "over row indices, a microbatch as one call over the engine's "
        "arenas (a CLM one: load, view, offload; a resident model's: "
        "view, gradients added in place), and a batch's plan (TSP order, transfer partitions, Adam "
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
        if op == "train_batch":
            return _bind_batch(lib, self.name)
        if op == "view_forward":
            return _bind_view(lib, self.name)
        return _bind_rows(lib, op)
