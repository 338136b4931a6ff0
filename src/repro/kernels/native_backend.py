"""The ``native`` kernel backend — a view, its loss, CLM's data path, a
batch's plan and a whole CLM microbatch in C, built at first use.

Where the NumPy reference streams a view through a few hundred small
array calls (projection, binning, ~25 whole-tensor passes over padded
``(G, T, P)`` slabs, the gradient chain), ``native_kernels.c`` runs it as
three native calls:

- ``view_forward`` is two — ``view_project`` (the 3-sigma frustum test and
  ``preprocess`` for the rows it lets through, then the counting half of
  ``build_tile_bins``: it reports how many rows survived, how many tiles
  are non-empty and how many ``(tile, splat)`` entries there are) and
  ``view_composite`` (fills the CSR arrays, composites, crops the image).
  ``view_project``'s input is the model's arrays and a ``rows`` operand:
  ``NULL`` means every row in order (training, a direct ``render``), and
  a working set — ``view_forward(..., rows=)`` — is read through in place,
  each row checked to lie inside the model before anything is written
  (``IndexError`` otherwise, as ``exact_cull``).  Survivor ids are
  positions in the working set, so the render is ``model.gather(rows)``'s
  bit for bit, without the copy;
- ``view_backward`` is one: the compositing gradient, then
  ``_chain_to_parameters`` scattered to the five full-size arrays.

Between the two forward calls the render's own buffers are sized by what
survived (:func:`_kept_blocks`): **one float64 block** of 52 values a
survivor (:data:`_FIELDS`: means2d, depths, t_cam, offsets, cov_cam,
cov2d, conics, colours, opacities, radii, scales, quat norms, unit quats,
rotations, dirs, dir norms — field after field, each C-contiguous), one
int64 block (ids, then ``tile_ids | offsets | order``) and one byte block
(the clamp mask), plus the blend records below when the backward pass is
to read them.  One forward body (:func:`_forward`) makes both calls for
every caller; only where the blocks come from differs:

- a direct ``view_forward`` call — ``evaluate``, ``render_view``, any
  ``render`` — allocates them, and ``view_project``'s scratch (sized by
  the *input* rows, dead after the call), per call, each at its exact
  size.  ``ProjectedGaussians``, ``GaussianShape`` and ``TileBins`` are
  views into them and ride on ``RenderContext.blocks``, which no other
  render shares: a 20 000-row model of which 130 rows survive retains 130
  rows.
- a served request is ``view_forward(..., rows=, workspace=)`` over a
  :class:`~repro.serving.session.ServingSession`'s
  :class:`~repro.kernels.workspace.Workspace`: the scratch, every block,
  the image and the transmittance are grow-only arenas, the served
  model's arrays are checked and their addresses taken once
  (:meth:`~repro.kernels.workspace.Workspace.binding`), and the call
  returns a copy of the image and the survivor count — no context,
  projection or bins.
- an engine's training view is the ``view_train`` op (below): the same
  calls and the loss's over the engine's
  :class:`~repro.kernels.workspace.Workspace`, whose grow-only arenas hold
  the scratch, every block, the image, the loss gradient and the parameter
  gradients.  They are allocated once per engine (and grown with the
  largest view seen), their addresses taken then; a view builds no
  context, projection or bins, and one view at a time holds them, under
  the workspace's lease.

What pays is few calls over few pointers: ctypes marshalling costs 2.8 us
an ``ndpointer`` argument and ~1.1 us an ``ndarray.ctypes`` address, so
every call passes raw addresses (:func:`_address`, ~0.35 us) once the
operand checks (:func:`_buffer`, :func:`_model_arrays`) have passed.

The 3-sigma frustum verdict is one ``static`` C function, ``in_frustum``,
called from three places: ``view_project``, per input row, the
``exact_cull`` op behind :func:`repro.gaussians.frustum.exact_cull`, and
``grid_cull`` (below) — so
under this backend, as under the reference, pre-rendering culling and
rendering execute one arithmetic and agree on every row bit for bit.
``exact_cull`` walks the named rows over the *full* critical arrays without
gathering them and takes a row stride per array, so the strided views of
``GpuCriticalStore``'s packed ``(N, 10)`` block run here too.  Training's
and serving's cull, ``grid_cull`` (:class:`~repro.gaussians.spatial.CullingGrid`),
is three entry points over the grid's cell tables and a copy of the
critical rows in cell order (:func:`_bind_grid`): ``grid_build`` bins the
rows by a counting sort and fills the tables, ``grid_refit`` refills the
slots of rows an optimizer moved and widens their cells, and
``grid_cull`` answers a batch of views in one call — it classifies each
cell against each view's six planes, takes the members of cells wholly
inside them and puts the members of boundary cells to ``in_frustum``,
after a bounding-sphere test of each member's own.  Its distances are
summed as ``in_frustum`` sums a centre's, so a cell it finds inside holds
only rows the arbiter accepts on its accept path.  Against the
reference (:func:`~repro.gaussians.frustum.ellipsoids_in_frustum`, whose
signed distances come out of a BLAS product) the index sets are equal
except on a rounding tie, ``|n . p + d + r|`` within a few ulps.

Inside, the view calls run two ``static`` compositing loops
(``raster_forward`` / ``raster_backward``, called by ``view_composite`` and
``view_backward`` only): they walk the CSR
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
records**, sized by the footprint area ``view_project`` reports — and
``view_backward`` walks them back to front in one sweep; without it (under
a GPU pool and for forward-only renders) the backward pass first replays
the forward through the same walk to regenerate them, to bit-identical
gradients.  Nothing here is grouped into slabs, so the NumPy reference's
tiles-per-slab cap has no counterpart.  The context ``view_forward``
returns carries that backward call (``RenderContext.backward``), so
``rasterize_backward`` runs it with no dispatch of its own.

CLM's data path is the third part, one native call per op over row
indices: ``assemble_rows`` (``GpuWorkingSet.assemble``: cache copies,
pinned-row loads and the critical gather into one block per working set,
gradients zeroed but for the carried rows), ``zero_rows`` (both stores'
``zero_grads``) and ``adam_rows`` (``PackedSparseAdam`` / ``SparseAdam``:
the fused Adam step in place over the rows, no gathered block).  Where the
reference places a set with ``np.searchsorted`` the C walks it through the
sorted set it indexes, needing no scratch, and each call checks every row
before it writes: one outside the store raises ``IndexError``, one that is
not a member, in order, of the set it indexes (or, for Adam, one that
repeats) ``ValueError``.  These calls are copies, adds and
``fused_adam_update``'s operations in its order, so unlike the view ops
they are bit-identical to NumPy; so are the ``static`` ``add_grads_rows``
and ``retire_rows`` (``GpuWorkingSet.add_grads`` / ``retire``: the
gradient accumulation, the offload into the padded pinned gradient rows
and the carried copy), which only ``train_step`` calls.

The fourth part is the training loss between a view's two passes,
``photometric_loss``: ``(1 - l) L1 + l (1 - SSIM)`` and its image
gradient in one call over the target's kept
:class:`~repro.gaussians.loss.TargetMoments`.  The separable, zero-padded
window sums each output in a register, the centre tap and then the
``(size - 1) / 2`` symmetric pairs of taps, a row pass and then a column
pass clipped at the image border; the SSIM map and its gradient are
``ssim_with_grad``'s algebra, term for term.  The scratch is one ``malloc``
a call.  The reference multiplies by banded matrices, whose zero-padded
rows BLAS sums in its own order, so the two agree to rounding, not bit for
bit: the value within 1e-14, the gradient within 1e-13 of its largest
entry on random images.  On real renders the gradient differs by up to
3e-13 of it, where a flat window makes it a cancellation and each side is
~1e-13 from a long-double sum.  A grayscale image and L1 alone (no
moments) stay on the reference.

``view_train`` (:func:`_bind_train`) is a whole training view as one bound
op: ``view_project``, ``view_composite``, ``photometric_loss`` and
``view_backward`` over an engine's workspace, with the operand checks of
the three ops it replaces, bit-identical to them dispatched one by one
(:func:`repro.gaussians.render.train_view`, its reference).

The fifth part is a batch's plan, ``plan_batch`` (:func:`_bind_plan`): the
sets concatenated into one buffer with offsets, one call checks that each
is sorted, duplicate-free and inside the model, searches the order when it
is not given (``|S_i ^ S_j|`` from merges of the sorted runs, then
:mod:`repro.planning.tsp_order`'s local search move for move, priced in
int64, its restarts drawn in Python from the planner's generator), and
writes the order, every step's working set and partitions, the touched
union and the Adam chunks into one int64 buffer the plan owns; every array
of the plan is a read-only slice of it.  It is the reference's index
algebra, so the plans are ``np.array_equal`` wherever both searches run to
convergence.

``train_step`` (:func:`_bind_step`) is a whole CLM microbatch as one C
call, the sixth part of the file: ``assemble_rows``, the four calls of the
training view (the image gradient divided by the batch between them),
``add_grads_rows`` and ``retire_rows``, one after the other inside C — the
functions themselves, not copies — over the engine's workspace.  The
working set's block and the carried gradients are double-buffered arenas
(the last step's stay readable while the next is written), the render's
blocks are checked against their arenas' capacities once ``view_project``
has counted them, before any store is written, and a shortfall
(``STATUS_ARENA_SHORT``) is grown in Python and the call made again, as
``adam_rows`` does with its tables.  The C stamps the forward and backward
halves from ``CLOCK_MONOTONIC``; a failing call names its stage
(:data:`_STEP_STAGES`), and the binding raises what that entry point would.
The stores' packed buffers, each view's camera vectors and each target's
moments are checked and their addresses taken once
(:meth:`~repro.kernels.workspace.Workspace.binding`), again only when one
of them is replaced — a ``rebuild`` builds new stores; a restore writes
them in place.  The working set's pool accounting and transfer counters
stay in Python (``GpuWorkingSet.reserve`` / ``hold``), as in the reference
composition :func:`repro.core.stores.train_step`, to which it is
bit-identical.

**The ABI is declared once.**  What the C and Python sides must agree on
is written in one place each and read by the other:

- every entry point's argument types are read from its own prototype in
  ``native_kernels.c`` (:func:`prototypes`, the MOT
  ``_simple_cl_function_parser`` idiom of SNIPPETS.md): ``int64_t`` and
  ``double`` pass by value, a pointer to one of the array element types
  of :data:`_ELEMENTS` passes as an address, and any other type is an
  :class:`AbiError` at load;
- the field layout of a render's block (:data:`_FIELDS`), the ``params``
  vector (:data:`_PARAMS`), the status codes (:data:`_STATUS`), and the
  constants the C shares with the NumPy reference
  (``rasterizer._FOOTPRINT_MARGIN``, ``sh._C0`` .. ``_C3``) are Python;
  :func:`header` generates the C for them, which :func:`kernel_source`
  prepends to the file — that whole text is what is hashed, compiled and
  parsed;
- every call goes through one checked binding (:func:`_checked`): the
  argument count is compared with the prototype's before the call, and a
  nonzero status raises what :data:`_RAISES` says it stands for (a
  failing stage of ``train_step``: :data:`_STAGE_RAISES`).

So a mismatch is an error at load or at the first call, never memory
corruption, and editing the declaration rebuilds the library.

The kernels are kept as C source inside the package and compiled at run
time (the MOT ``CLFunction`` idiom of SNIPPETS.md) with the first of
``$CC``, ``cc``, ``gcc``, ``clang`` found on ``PATH``:

- flags :data:`CFLAGS` — no ``-ffast-math``, no ``-march``, no FMA
  contraction, one thread: every operation rounds as an IEEE double in
  program order, so two runs are ``np.array_equal`` on any x86-64/aarch64
  host and the results sit inside the 1e-12 image / 1e-10 gradient bars of
  the per-tile oracle in ``tests/reference/`` (not bit-equal to NumPy,
  which reduces through BLAS);
- built once per ``sha256(kernel_source() + flags + "cc --version")`` into
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
lands on NumPy silently.  A build, parse or load that fails raises from
:meth:`~repro.kernels.registry.KernelBackend.compile`, which
:func:`~repro.kernels.registry.compile_with_fallback` turns into one
:class:`RuntimeWarning`; the failure is remembered, so from then on the
backend reports itself unavailable (``repro backends`` shows the reason)
and every caller runs on the reference.  All ten ops are implemented,
over float64 C-contiguous operands (``exact_cull`` and ``grid_cull``:
float64 rows, each contiguous): a float32 blend state (``dtype="float32"``), a model array
that is float32 or not C-contiguous, float32 gradient staging
(``grad_dtype="float32"``) and a training view or step on L1 alone stay on
NumPy, whole, through the registry's per-op fallback; a backward pass over
a context NumPy made or whose projection was replaced runs the reference's.
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
from importlib import resources
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.gaussians import rasterizer, sh, spatial
from repro.gaussians.frustum import _PREFILTER_MARGIN, frustum_planes
from repro.kernels.registry import (
    KernelBackend,
    KernelSpec,
    register_backend,
    rows_contiguous,
)
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
_ROW_OPS = ("assemble_rows", "zero_rows", "adam_rows")
_OPS = frozenset({
    "exact_cull", "grid_cull", "view_forward", *_ROW_OPS, "photometric_loss", "view_train",
    "plan_batch", "train_step",
})

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
#: and the element types of the arrays passed by address (``c_void_p``).
#: Anything else — ``float`` among them, until precision is a parameter of
#: the source — is an :class:`AbiError` at load.
_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
_ELEMENTS = frozenset({"double", "int64_t", "int32_t", "uint8_t"})


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
_FLOAT64 = np.dtype(np.float64)


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
    """``{name: [(parameter, ctype), ...]}`` of every exported (not
    ``static``) ``int name(...) {`` definition in ``source``."""
    found = {}
    for name, params in _PROTOTYPE.findall(source):
        found[name] = []
        for param in params.split(","):
            *words, arg = param.replace("*", " * ").split() or [""]
            kind = [w for w in words if w not in ("const", "restrict", "*")]
            pointer = "*" in words
            if len(kind) == 1 and kind[0] in (_ELEMENTS if pointer else _SCALARS):
                ctype = ctypes.c_void_p if pointer else _SCALARS[kind[0]]
            else:
                raise AbiError(
                    f"{name}: parameter `{' '.join(param.split())}` is of a "
                    "type the binding does not pass"
                )
            found[name].append((arg, ctype))
    missing = sorted(set(_RAISES) - set(found))
    if missing:
        raise AbiError(f"no prototype for {', '.join(missing)}")
    return found


# ---------------------------------------------------------------------------
# What a status raises, and the checked call
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


def _checked(lib: ctypes.CDLL, name: str, params: list) -> Callable:
    """Entry point ``name`` of ``lib`` called with exactly the arguments of
    its prototype, ``[(parameter, ctype), ...]``, its nonzero status
    raised."""
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = [ctype for _, ctype in params], ctypes.c_int
    params, arity = [arg for arg, _ in params], len(params)

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
            name: _checked(lib, name, params) for name, params in signatures.items()
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
# Operand checks
# ---------------------------------------------------------------------------
def _require_shapes(**expected) -> None:
    """``name=(array, shape)``: the sizes the C loops will index by."""
    wrong = [
        f"{name} is {arr.shape}, not {shape}"
        for name, (arr, shape) in expected.items()
        if arr.shape != shape
    ]
    if wrong:
        raise ValueError("native kernel operands: " + "; ".join(wrong))


def _buffer(
    arr: np.ndarray, shape: tuple, write: bool = False, dtype=_FLOAT64
) -> int:
    """The address of ``arr`` once it is the C-contiguous ``dtype`` (float64
    unless named) ``shape`` the C loops index (and writable, when they
    write it)."""
    flags = arr.flags
    if not (
        arr.dtype == dtype
        and flags.c_contiguous
        and arr.shape == shape
        and (flags.writeable or not write)
    ):
        raise ValueError(
            f"native kernel operands: a {arr.dtype}{arr.shape} buffer where "
            f"{'a writable ' if write else ''}C-contiguous "
            f"{np.dtype(dtype)}{shape} is indexed"
        )
    return _address(arr)


def _address(arr: np.ndarray) -> int:
    """Where a C-contiguous array's data starts.  ``ndarray.ctypes`` builds
    an object (~1.1 us); a ctypes view of a writable buffer costs ~0.35 us,
    and all but the plans' frozen index sets are writable."""
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _rows(arr) -> np.ndarray:
    """An index vector as the int64 array the C loops walk: integer indices
    are converted, any other kind (a float array) raises ``IndexError``, as
    NumPy refuses to index by it."""
    rows = np.asarray(arr)
    if rows.dtype.kind not in "iu" and rows.size:
        raise IndexError(f"native data path: {rows.dtype} rows, not integers")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError(f"native data path: rows of shape {rows.shape}")
    return rows


def _index_at(rows: np.ndarray):
    """An index vector's address, ``None`` when it is empty (the C walks
    none of it): plans hand their sets out read-only, whose address costs
    ~2.4 us."""
    return _address(rows) if rows.size else None


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


def _model_at(model) -> list:
    """The addresses of the five checked :func:`_model_arrays`."""
    return list(map(_address, _model_arrays(model).values()))


def _sh_degree(model, settings) -> int:
    """The SH degree a render evaluates, once the model stores its bases."""
    stored = model.sh.shape[1]
    degree = model.sh_degree
    if settings.active_sh_degree is not None:
        degree = min(settings.active_sh_degree, degree)
    if sh.num_basis(degree) > stored:
        raise ValueError(f"SH degree {degree} needs more than {stored} bases")
    return degree


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


# ---------------------------------------------------------------------------
# The cull op
# ---------------------------------------------------------------------------
def _critical_rows(op: str, positions, log_scales, raw_quats, **more) -> list:
    """``[address, row stride]`` of each selection-critical array, once it
    holds float64 rows of the shape the C loop indexes (and ``more``,
    ``name=(array, shape)``, has its shape)."""
    n = positions.shape[0]
    arrays = dict(
        positions=(positions, (n, 3)), log_scales=(log_scales, (n, 3)),
        raw_quats=(raw_quats, (n, 4)),
    )
    _require_shapes(**more, **arrays)
    strided = []
    for name, (arr, _) in arrays.items():
        if arr.dtype != np.float64 or not rows_contiguous(arr):
            raise ValueError(
                f"native {op}: {name} is {arr.dtype} with strides "
                f"{arr.strides}, not float64 rows"
            )
        # ``c_char.from_buffer`` needs a contiguous buffer: a strided
        # column block keeps ``ctypes.data``.
        strided += [arr.ctypes.data, arr.strides[0] // 8]
    return strided


def _bind_cull(lib) -> Callable:
    """``exact_cull`` over the loaded library: every shape, dtype and stride
    the C loop relies on is checked here, row bounds by the loop itself."""

    def exact_cull(planes, positions, log_scales, raw_quats, rows):
        planes = np.ascontiguousarray(planes, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        strided = _critical_rows(
            "exact_cull", positions, log_scales, raw_quats,
            planes=(planes, (6, 4)), rows=(rows, (rows.size,)),
        )
        kept = np.empty(rows.size + 1, np.int64)
        lib.exact_cull(
            positions.shape[0], _address(planes), *strided, _address(rows),
            rows.size, _address(kept),
        )
        return kept[1 : 1 + kept[0]].copy()

    return exact_cull


def _bind_grid(lib) -> Callable:
    """``grid_cull``: binds a :class:`~repro.gaussians.spatial.CullingGrid`
    — its critical arrays checked as ``exact_cull`` checks them, its tables
    built by ``grid_build`` unless it has them, and the addresses of the
    tables and of its ``(members, 11)`` cell-ordered ``block`` taken — to
    its :class:`~repro.gaussians.spatial.GridOps`.  The copy makes a
    boundary cell's rows adjacent: the arrays' own order scatters them, and
    at 200 000 rows the walk was bound by those cache misses.  Member and
    offset bounds are checked by the loop."""

    def build(grid, strided) -> None:
        n, per_axis = grid.num_gaussians, max(grid.target_cells_per_axis, 1)
        cap = min(n, (per_axis + 1) ** 3 + 1)  # bins per axis <= per_axis + 1
        frame, head = np.empty(4), np.empty(2, np.int64)
        members, slots = np.empty(n, np.int64), np.empty(n, np.int64)
        offsets = np.empty(cap + 1, np.int64)
        lo, hi, radius = np.empty((cap, 3)), np.empty((cap, 3)), np.empty(cap)
        finite, block = np.empty(cap, np.bool_), np.empty((n, 11))
        lib.grid_build(
            n, *strided, per_axis, cap, *map(_address, (
                frame, head, members, offsets, slots, lo, hi, radius, finite, block,
            )),
        )
        cells, grid.regular_cells = int(head[0]), int(head[1])
        grid.origin, grid.cell_size = frame[:3], float(frame[3])
        grid.members, grid.offsets, grid.slots = members, offsets[: cells + 1], slots
        grid.cell_lo, grid.cell_hi = lo[:cells], hi[:cells]
        grid.cell_radius, grid.cell_finite, grid.block = radius[:cells], finite[:cells], block

    def bind(grid):
        n = grid.num_gaussians
        strided = _critical_rows(
            "grid_cull", grid.positions, grid.log_scales, grid.raw_quats
        )
        if grid.offsets is None:
            build(grid, strided)
        cells = grid.num_cells
        lo, hi, radius, finite, offsets, _, block = held = (
            _buffer(grid.cell_lo, (cells, 3)), _buffer(grid.cell_hi, (cells, 3)),
            _buffer(grid.cell_radius, (cells,)),
            _buffer(grid.cell_finite, (cells,), dtype=np.bool_),
            _buffer(grid.offsets, (cells + 1,), dtype=np.int64),
            _buffer(grid.members, (n,), dtype=np.int64),  # every row is one
            _buffer(grid.block, (n, 11)),
        )
        slots = _buffer(grid.slots, (n,), dtype=np.int64)
        # The addresses point into these: the ops keep them alive, and the
        # output buffers (grown when a batch keeps more rows) with them.
        arrays = (
            grid.cell_lo, grid.cell_hi, grid.cell_radius, grid.cell_finite,
            grid.offsets, grid.members, grid.block, grid.slots,
        )
        # The output buffers (each view's count, then its rows) and the
        # call's arguments after the planes, remade when a batch outgrows
        # them: a call passes ready integers.
        out = {}

        def grow(rows: int, views: int) -> None:
            out["kept"], out["counts"] = np.empty(rows, np.int64), np.empty(views, np.int64)
            out["tail"] = (
                cells, *held, _address(out["counts"]), _address(out["kept"]), rows,
            )

        grow(n, 1)
        lock = threading.Lock()

        def cull(planes, _arrays=arrays):
            planes = np.ascontiguousarray(planes, dtype=np.float64)
            if planes.ndim != 3 or planes.shape[1:] != (6, 4):
                _require_shapes(planes=(planes, (*planes.shape[:1], 6, 4)))
            views = planes.shape[0]
            with lock:
                if out["counts"].size < views:
                    grow(out["kept"].size, views)
                try:
                    lib.grid_cull(n, _address(planes), views, *out["tail"])
                except _ArenaShort:
                    grow(int(out["counts"][:views].sum()), views)
                    lib.grid_cull(n, _address(planes), views, *out["tail"])
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

        limit = spatial._MAX_CELL_WIDTH * grid.cell_size

        def refit(rows, _arrays=arrays) -> bool:
            rows = _rows(rows)
            bloated = np.zeros(1, np.int64)
            lib.grid_refit(
                n, *strided, _address(rows), rows.size, slots, cells,
                grid.regular_cells, offsets, limit, lo, hi, radius, finite, block,
                _address(bloated),
            )
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
        values.extend(np.asarray(value).flat if width > 1 else (value,))
    if len(values) != _PARAM_SIZE:
        raise ValueError(f"native view operands: {len(values)} camera and settings values")
    return np.fromiter(values, np.float64, _PARAM_SIZE)


#: The three blend-record blocks, which follow a render's other three in
#: ``RenderContext.blocks``.
_BLEND_RECORDS = ("blend records", "blend pixels", "blend ends")


def _kept_blocks(m, tiles, entries, lead, cells, records) -> list:
    """``[(name, size, dtype), ...]`` of a render's own blocks: the fields,
    ids and CSR arrays, the clamp mask; with ``records`` the C's
    ``records_t``: ``lead`` doubles of final ``T`` then the exp values and
    ``T_before`` of at most ``cells`` cells, their tile-local pixels,
    ``entries + 1`` ends."""
    blocks = [
        ("floats", _RETAINED * m, np.float64),
        ("ints", m + 2 * tiles + 1 + entries, np.int64),
        ("clamp", 3 * m, np.bool_),
    ]
    if records:
        sizes = (lead + 2 * cells, cells, entries + 1)
        blocks += zip(_BLEND_RECORDS, sizes, (np.float64, np.int32, np.int64))
    return blocks


#: A view the two forward calls rendered, as ``view_backward`` reads it:
#: ``kept`` is the addresses of its blocks (``None`` for blend records it
#: did not keep), ``cap`` the cells they have room for.
_View = collections.namedtuple(
    "_View", "m n tiles entries cap kept sh_at stored degree params width height sub"
)


def _backward(lib, view: _View, d_image_at: int, grads_at) -> None:
    """``view_backward`` of ``view`` into the five zeroed gradient arrays at
    ``grads_at``, from the image gradient at ``d_image_at``."""
    lib.view_backward(
        *view[:5], *view.kept, view.sh_at, view.stored, view.degree,
        _address(view.params), view.width, view.height, view.sub, d_image_at,
        *grads_at,
    )


def _forward(
    lib, camera, model, settings, take, rows=None, model_at=None
) -> "tuple[_View, dict]":
    """A view's two forward calls: ``view_project`` sizes its blocks,
    ``view_composite`` fills them, composites and crops the image.  The
    input is ``model``'s rows ``rows`` (an int64 vector, read in place), or
    every row when it is None; ``model_at`` is :func:`_model_at` of the
    model, when it is bound already.  Every block is ``take(name, size,
    dtype)`` — ``(array, address)`` of at least ``size`` elements; returns
    the view and ``{name: (array, address)}``."""
    if model_at is None:
        model_at = _model_at(model)
    total, stored = model.sh.shape[:2]
    n = total if rows is None else rows.size
    degree = _sh_degree(model, settings)
    width, height, sub = camera.width, camera.height, rasterizer.compute_tile(settings)
    tiles_x, tiles_y = -(-width // sub), -(-height // sub)
    # ``view_project`` puts every row to the arbiter ``exact_cull`` put it
    # to, on the same bits.
    planes = frustum_planes(camera)
    params = _view_params(camera, settings)
    params_at = _address(params)
    blocks = {
        "scratch": take("scratch", _SCRATCH * n, np.float64),
        "work": take("work", 5 + 7 * n + tiles_x * tiles_y + (3 * n + 7) // 8, np.int64),
    }
    work_at = blocks["work"][1]
    lib.view_project(
        n, None if rows is None else _index_at(rows), total, *model_at,
        _address(planes), stored, degree, params_at, width, height,
        int(settings.tile_size), sub, blocks["scratch"][1], work_at,
    )
    m, _, tiles, entries, area = blocks["work"][0][:5].tolist()
    records = bool(settings.cache_blend_state)  # for view_backward only
    kept_at = [None] * 6
    for k, (name, size, dtype) in enumerate(
        _kept_blocks(m, tiles, entries, tiles * sub * sub, area, records)
    ):
        blocks[name] = take(name, size, dtype)
        kept_at[k] = blocks[name][1]
    blocks["image"] = take("image", 3 * height * width, np.float64)
    blocks["trans"] = take("trans", height * width, np.float64)
    lib.view_composite(
        n, blocks["scratch"][1], work_at, params_at, width, height, sub,
        *kept_at, blocks["image"][1], blocks["trans"][1],
    )
    view = _View(
        m, n, tiles, entries, area if records else 0, kept_at, model_at[3],
        stored, degree, params, width, height, sub,
    )
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
    from repro.gaussians.sh import num_basis

    def served(camera, model, settings, rows, ws):
        # The served model's arrays are checked and their addresses taken
        # once; a replaced array binds again.
        model_at = ws.binding(
            "model", (model.positions, model.log_scales, model.quaternions,
                      model.sh, model.opacity_logits),
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
        if rows is not None:
            rows = _rows(rows)
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
        bins = TileBins(
            tile_size=view.sub, tiles_x=-(-view.width // view.sub),
            tiles_y=-(-view.height // view.sub),
            width=view.width, height=view.height, tile_ids=ints[m : m + tiles],
            offsets=ints[m + tiles : m + 2 * tiles + 1],
            order=ints[m + 2 * tiles + 1 :],
        )
        records = [blocks[block][0] for block in _BLEND_RECORDS if block in blocks]
        ctx = RenderContext(
            camera=camera, settings=settings, proj=proj, bins=bins,
            num_input=view.n, kernel_backend=name,
            blocks=(proj, floats, ints, clamp, *records), backward=view_backward,
        )
        image = blocks["image"][0].reshape(view.height, view.width, 3)
        return image, blocks["trans"][0].reshape(view.height, view.width), ctx

    def view_backward(ctx, model, dL_dimage):
        arrays = _model_arrays(model)
        n, stored = model.sh.shape[:2]
        proj, *kept = ctx.blocks
        camera, bins, m = ctx.camera, ctx.bins, proj.ids.size
        d_image = np.ascontiguousarray(dL_dimage, dtype=np.float64)
        _require_shapes(d_image=(d_image, (camera.height, camera.width, 3)))
        tiles, entries, sub = bins.num_tiles, bins.num_entries, bins.tile_size
        records = len(kept) > 3
        cap = kept[4].size if records else 0
        want = _kept_blocks(m, tiles, entries, tiles * sub * sub, cap, records)
        if [block.size for block in kept] != [size for _, size, _ in want]:
            raise ValueError("native view operands: not this context's blocks")
        if n != ctx.num_input or num_basis(proj.sh_degree_used) > stored:
            raise ValueError("native view operands: not the model that was rendered")
        grads = {field: np.zeros(arr.shape) for field, arr in arrays.items()}
        kept_at = tuple(map(_address, kept)) + (None,) * (6 - len(kept))
        view = _View(
            m, n, tiles, entries, cap, kept_at, _address(model.sh), stored,
            proj.sh_degree_used, _view_params(camera, ctx.settings),
            camera.width, camera.height, sub,
        )
        _backward(lib, view, _address(d_image), list(map(_address, grads.values())))
        return grads

    return view_forward


# ---------------------------------------------------------------------------
# The data path
# ---------------------------------------------------------------------------
def _bind_rows(lib, op: str) -> Callable:
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
        lib.assemble_rows(
            n, k3, cpu.row_floats, _buffer(cpu.params, (n, cpu.row_floats)),
            _buffer(gpu.packed_params, (n, 10)), _address(rows), m,
            _address(loads), loads.size, _address(cached), cached.size,
            *prev, *carry, _address(block),
        )
        out = _cut(block, m, _layout((
            ("sh", (k, 3)), ("opacity", ()), ("grad_sh", (k, 3)), ("grad_opacity", ()),
            ("positions", (3,)), ("log_scales", (3,)), ("quaternions", (4,)),
        ))[0])
        critical = {name: out.pop(name) for name in ("positions", "log_scales", "quaternions")}
        return out["sh"], out["opacity"], critical, out["grad_sh"], out["grad_opacity"]

    def zero_rows(buffer, rows):
        rows = _rows(rows)
        n = buffer.shape[0]
        lib.zero_rows(
            n, buffer.size // n if n else 0,
            _buffer(buffer, buffer.shape, write=True), _address(rows),
            rows.size,
        )

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
        lr = np.full(width, lr) if lr.ndim == 0 else np.ascontiguousarray(lr)
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
            _buffer(lr, (width,)), beta1, beta2, eps,
        )
        tables, t_max = tables_for(beta1, beta2), 0
        while True:
            bc1, rsqrt_bc2 = tables.covering(t_max)
            try:
                return lib.adam_rows(
                    *operands, _address(bc1), _address(rsqrt_bc2),
                    min(bc1.size, rsqrt_bc2.size), int(bump),
                )
            except _TablesShort:
                pass
            # A step past the tables' end: grow them, then go again (nothing
            # was written).  Only a negative step count can fail twice.
            reached = int(steps[rows].max()) + int(bump)
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


def _bind_loss(lib) -> Callable:
    """``photometric_loss`` as one call into the loaded library, over the
    target's kept moments (which the caller matched to ``target``)."""
    from repro.gaussians.loss import _C1, _C2

    def photometric_loss(rendered, target, ssim_lambda, moments):
        h, w, c = rendered.shape
        planes = (c, h, w)
        taps, at = _window(*moments.window)
        grad, value = np.empty(rendered.shape), np.empty(1)
        lib.photometric_loss(
            h, w, c, _buffer(rendered, rendered.shape),
            _buffer(target, rendered.shape), _buffer(moments.uy, planes),
            _buffer(moments.uy2_c1, planes), _buffer(moments.vy_c2, planes),
            at, taps.size, float(ssim_lambda), _C1, _C2, _address(grad),
            _address(value),
        )
        return float(value[0]), grad

    return photometric_loss


def _bind_train(lib, name: str) -> Callable:
    """``view_train``: :func:`_forward` over a
    :class:`~repro.kernels.workspace.Workspace`'s arenas, then
    ``photometric_loss`` and ``view_backward`` there, with the checks of
    the three ops it fuses and no context, projection or bins built."""
    from repro.gaussians.loss import _C1, _C2

    def view_train(
        camera, model, settings, target, moments, ssim_lambda, batch,
        workspace=None,
    ):
        if moments is None:
            raise ValueError("native view_train: L1 alone stays on the reference")
        ws = Workspace() if workspace is None else workspace
        height, width = camera.height, camera.width
        pixels, planes3 = height * width, (3, height, width)
        loss_operands = (
            _buffer(target, (height, width, 3)), _buffer(moments.uy, planes3),
            _buffer(moments.uy2_c1, planes3), _buffer(moments.vy_c2, planes3),
        )
        taps, taps_at = _window(*moments.window)
        ws.lease()
        try:
            start = time.perf_counter()
            view, blocks = _forward(lib, camera, model, settings, ws.arena)
            forward_s = time.perf_counter() - start

            d_image, d_image_at = ws.arena("d_image", 3 * pixels)
            value, value_at = ws.arena("value", 1)
            lib.photometric_loss(
                height, width, 3, blocks["image"][1], *loss_operands, taps_at,
                taps.size, float(ssim_lambda), _C1, _C2, d_image_at, value_at,
            )

            start = time.perf_counter()
            d_image = d_image[: 3 * pixels]
            np.divide(d_image, batch, out=d_image)
            # The five gradient arrays, field after field in one arena,
            # zeroed: view_backward writes the survivors' rows only.
            size = (11 + 3 * view.stored) * view.n
            block, block_at = ws.arena("grads", size)
            ctypes.memset(block_at, 0, 8 * size)
            grads, addresses, at = {}, [], 0
            for field, arr in model.parameters().items():
                grads[field] = block[at : at + arr.size].reshape(arr.shape)
                addresses.append(block_at + 8 * at)
                at += arr.size
            _backward(lib, view, d_image_at, addresses)
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
#: The render's own arenas, ``(name, dtype)`` in ``_kept_blocks``' order —
#: with and without the blend records — whose capacities are
#: ``train_step``'s ``caps``.
_KEPT = {
    records: tuple((name, dtype) for name, _, dtype in _kept_blocks(0, 0, 0, 0, 0, records))
    for records in (False, True)
}
_DEGREE = {k: d for d, k in sh.BASIS_PER_DEGREE.items()}


def _bind_stores(cpu, gpu) -> tuple:
    """``train_step``'s leading arguments over a pinned and a critical
    store: the sizes, then the packed buffers' addresses, each checked."""
    n, stride = cpu.num_rows, cpu.row_floats
    return (
        n, 3 * cpu.sh_basis, stride, _buffer(cpu.params, (n, stride)),
        _buffer(cpu.grads, (n, stride), write=True),
        _buffer(gpu.packed_params, (n, 10)),
        _buffer(gpu.packed_grads, (n, 10), write=True),
    )


def _bind_camera(camera, settings) -> tuple:
    """What ``train_step`` reads of a view and the render settings: the
    ``planes`` and ``params`` addresses, the image and tile sizes, and the
    two arrays, kept alive."""
    planes, params = frustum_planes(camera), _view_params(camera, settings)
    width, height, sub = camera.width, camera.height, rasterizer.compute_tile(settings)
    return (
        _address(planes), _address(params), width, height,
        int(settings.tile_size), sub, -(-width // sub) * -(-height // sub),
        planes, params,
    )


def _bind_target(target, moments) -> tuple:
    """The loss's operands over a target and its kept moments: the four
    planes' addresses, then the SSIM window's and its size."""
    height, width = target.shape[:2]
    planes3 = (3, height, width)
    taps, taps_at = _window(*moments.window)
    return (
        _buffer(target, (height, width, 3)), _buffer(moments.uy, planes3),
        _buffer(moments.uy2_c1, planes3), _buffer(moments.vy_c2, planes3),
        taps_at, taps.size,
    )


def _bind_step(lib, name: str) -> Callable:
    """``train_step``: one call over a
    :class:`~repro.core.stores.GpuWorkingSet`, its stores and a
    :class:`~repro.kernels.workspace.Workspace`'s arenas, with the checks
    of the ops it fuses.  The stores' buffers, a view's camera vectors and a
    target's moments are checked and their addresses taken once each
    (:meth:`Workspace.binding`: again when one is replaced); the working
    set's accounting is the reference's."""
    from repro.gaussians.loss import _C1, _C2

    def train_step(
        working, step, carried, camera, settings, target, moments,
        ssim_lambda, batch, workspace=None,
    ):
        if moments is None:
            raise ValueError("native train_step: L1 alone stays on the reference")
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
        planes_at, params_at, width, height, ts, sub, tiles = view[:7]
        if target.shape != (height, width, 3):
            raise ValueError(
                f"native train_step: a {target.shape} target for a "
                f"{width}x{height} view"
            )
        loss = ws.binding(
            ("target", camera.view_id), (moments, target), _bind_target, target, moments
        )
        k3 = stores[1]
        k = k3 // 3
        rows, loads, cached = _rows(step.working_set), _rows(step.loads), _rows(step.cached)
        stored, carries = _rows(step.stores), _rows(step.carried)
        m, nc = rows.size, carries.size
        block_name, carry_name = _STEP_ARENAS[ws.steps & 1]
        block, block_at = ws.arena(block_name, m * (2 * k3 + 12))
        carry, carry_at = ws.arena(carry_name, nc * (k3 + 1))
        # What assemble_rows reads: the last step's block (cached rows) and
        # carry.  Neither may share memory with the block or carry this one
        # writes, or a call that is run again would read what it wrote.
        prev = carry_in = (None, 0, None, None)
        reads = []
        if cached.size:
            if working.indices is None:
                raise RuntimeError("cache copy requested with no previous buffer")
            before = _rows(working.indices)
            mp = before.size
            prev = (
                _address(before), mp, _buffer(working.noncrit["sh"], (mp, k, 3)),
                _buffer(working.noncrit["opacity_logits"], (mp,)),
            )
            reads += ((prev[2], mp * k3), (prev[3], mp))
        if carried is not None:
            held = _rows(carried[0])
            nh = held.size
            carry_in = (
                _address(held), nh, _buffer(carried[1], (nh, k, 3)),
                _buffer(carried[2], (nh,)),
            )
            reads += ((carry_in[2], nh * k3), (carry_in[3], nh))
        for at, size in reads:
            if at < block_at + 8 * block.size and block_at < at + 8 * size or (
                at < carry_at + 8 * carry.size and carry_at < at + 8 * size
            ):
                raise ValueError("native train_step: operands share memory")
        degree = _DEGREE[k]
        if settings.active_sh_degree is not None:
            degree = min(settings.active_sh_degree, degree)
        pixels, records = height * width, bool(settings.cache_blend_state)
        kept_arenas = _KEPT[records]
        value, value_at = ws.arena("value", 1)
        out, out_at = ws.arena("step out", len(_STEP_OUT), np.int64)
        caps, caps_at = ws.arena("step caps", len(_KEPT[True]), np.int64)
        arenas = (
            ws.arena("scratch", _SCRATCH * m)[1],
            ws.arena("work", 5 + 7 * m + tiles + (3 * m + 7) // 8, np.int64)[1],
        )
        grads, grads_at = ws.arena("grads", (11 + k3) * m)
        pixel_arenas = (
            ws.arena("image", 3 * pixels)[1], ws.arena("trans", pixels)[1],
            ws.arena("d_image", 3 * pixels)[1], grads_at, value_at, out_at,
        )
        operands = (
            *stores, _index_at(rows), m, _index_at(loads), loads.size,
            _index_at(cached), cached.size, _index_at(stored), stored.size,
            _index_at(carries), nc, *prev, *carry_in, planes_at, degree, params_at,
            width, height, ts, sub, int(records), *loss,
            float(ssim_lambda), _C1, _C2, float(batch), block_at, carry_at,
            *arenas,
        )
        ws.lease()
        try:
            working.reserve(m)
            sizes = (0,) * len(kept_arenas)
            while True:
                blocks = [
                    ws.arena(arena, size, dtype)
                    for (arena, dtype), size in zip(kept_arenas, sizes)
                ]
                # Every slot: the C checks all six, and an arena is not
                # cleared when it is allocated.
                caps[:] = 0
                caps[: len(blocks)] = [block.size for block, _ in blocks]
                try:
                    lib.train_step(
                        *operands, *(at for _, at in blocks),
                        *(None,) * (6 - len(blocks)), caps_at, *pixel_arenas,
                    )
                    break
                except _ArenaShort:
                    # Only the block, scratch and work were written: size
                    # the render's blocks by its counts and go again.
                    survivors, _, busy, entries, area = out[2:7].tolist()
                    sizes = [size for _, size, _ in _kept_blocks(
                        survivors, busy, entries, busy * sub * sub, area, records
                    )]
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
        mk = m * k3
        working.hold(
            step.working_set, block[:mk].reshape(m, k, 3), block[mk : mk + m],
            block[mk + m : 2 * mk + m].reshape(m, k, 3),
            block[2 * mk + m : 2 * mk + 2 * m],
        )
        counters = working.counters
        counters.cached_gaussians += cached.size
        counters.loaded_gaussians += loads.size
        counters.stored_gaussians += stored.size
        # The five gradients, field after field in model.parameters() order.
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
        sizes = [s.size for s in sets]
        rows = np.concatenate([_NO_ROWS, *sets]).astype(np.int64, copy=False)
        offsets = np.fromiter(itertools.accumulate(sizes, initial=0), np.int64, b + 1)
        search = order is None
        if search:  # the reference's draw: one permutation, from two sets on
            order = make_rng(rng).permutation(b) if b > 1 else range(b)
        if len(order) != b:
            raise _not_an_order(order)
        seq = np.fromiter(order, np.int64, b)
        out = np.empty(_PLAN_HEAD + 4 * b + 5 * rows.size, dtype=np.int64)
        try:
            lib.plan_batch(
                b, _address(rows), _address(offsets), int(num_gaussians),
                _address(seq), int(search), float(time_limit_s), UNTIMED_NODES,
                int(bool(enable_cache)), _address(out),
            )
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
        return _OPS

    def supports(self, spec: KernelSpec) -> bool:
        # The kernels index raw float64 buffers; float32 blend state or
        # gradient staging and strided or float32 model arrays stay on the
        # reference.  ``exact_cull``'s spec reads ``contiguous`` per row
        # (``registry.cull_spec``).  The loss runs over colour images and
        # the target's moments: a grayscale image, or no moments (L1
        # alone), stays on the reference.
        if spec.op == "photometric_loss" and (
            len(spec.operands) != 3 or any(d.rank != 3 for d in spec.operands)
        ):
            return False
        # ``view_train``: the compute dtype, the model arrays, then the loss
        # operands (``registry.train_operands``) — the same two rules.
        if spec.op == "view_train" and (
            len(spec.operands) != 8 or any(d.rank != 3 for d in spec.operands[6:])
        ):
            return False
        # ``train_step``: the compute dtype, the stores' four packed buffers,
        # then the loss operands (``registry.step_operands``) — the same.
        if spec.op == "train_step" and (
            len(spec.operands) != 7 or any(d.rank != 3 for d in spec.operands[5:])
        ):
            return False
        return spec.op in _OPS and all(
            d.dtype == "float64" and d.contiguous for d in spec.operands
        )

    def _compile(self, spec: KernelSpec) -> Callable:
        lib = self.library().load()
        if spec.op == "exact_cull":
            return _bind_cull(lib)
        if spec.op == "grid_cull":
            return _bind_grid(lib)
        if spec.op == "photometric_loss":
            return _bind_loss(lib)
        if spec.op == "view_train":
            return _bind_train(lib, self.name)
        if spec.op == "plan_batch":
            return _bind_plan(lib)
        if spec.op == "train_step":
            return _bind_step(lib, self.name)
        if spec.op == "view_forward":
            return _bind_view(lib, self.name)
        return _bind_rows(lib, spec.op)
