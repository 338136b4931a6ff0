"""The host memory one engine's training steps — or one serving session's
renders — run in, allocated once.

A :class:`Workspace` belongs to one engine (``EngineBase._workspace``) or
one :class:`~repro.serving.session.ServingSession` (``.workspace``) and
outlives its batches.  A served request is the ``view_forward`` op with a
workspace: its scratch, blocks, image and transmittance are arenas, the
served model's arrays one binding, and the image it returns a copy, so
nothing stays leased after the call.  Every engine's microbatch is one C
call over the **arenas**: the ``native`` backend's ``view_train`` op — the
microbatch of the engines whose model is resident — renders the working
set's rows of that model in place, takes the loss, backpropagates and adds
the gradients into the full-size ones; its ``train_step`` op is a whole
CLM microbatch — the working set's selective load, that view, the gradient
accumulation and offload — over the same arenas plus the working set's
own: one grow-only buffer per kind of block, named by the op, of which a
step takes a prefix.  An arena is replaced only when a step needs more than it holds
(a larger working set, a densified model, a larger image), and then with
an eighth of headroom, so it is held at about the largest step seen and
nothing multi-MB is allocated or freed between steps.  Each arena's
address is taken once, when it is allocated; a name keeps the dtype it was
first allocated with (asking for another raises ``TypeError``: its
capacity is counted in elements of that dtype).

``train_step`` double-buffers the working set's block and the gradients
it carries to the next step (two arenas of each, used in turn by
:attr:`Workspace.steps`' parity), so the block and carry of the last step,
which it reads, are never the ones it writes — and a call that finds a
render's arenas too small can grow them and run again.  A CLM engine's
inline batch, the ``train_batch`` op, runs all its steps in one call over
arenas of its own (named ``batch ...``, so neither call moves the other's),
a block a render lane and one more (a round of steps and the one before),
its carry one arena of two halves used by step parity, and each render
arena and a gradient slot once a lane (a round's views render on threads).

What a step reads that outlives it — the stores' packed buffers, a view's
camera vectors, a target's moments — is checked and its address taken
once, then kept as a **binding** (:meth:`Workspace.binding`) until one of
the objects it was taken from is replaced: a ``rebuild`` (densify, prune)
builds new stores, so the next step binds again; a restore writes the
stores in place, so the addresses stand.  A binding's key names its slot
(the stores, a view's camera, a view's target), so a replacement overwrites
the slot and the objects it held are freed.

Each step op keeps a **prepared call** here (:attr:`Workspace.calls`): an
argument list whose store or model, view and target slots are written only
when the binding they come from is made again (a ``rebuild``, fresh model
or gradient arrays, a replaced camera or target; a restore writes in
place), and whose arena slots only when a view needs more than they were
placed for, so a warmed step writes only its rows, counts and scalars.

The per-view gradients ``view_train`` and ``train_step`` return (the
full-size ones are already added into) are slices of an arena, so they
are valid only until the next step overwrites them.  The op takes a
**lease** before it writes and the caller releases it once the densify
hook has read them (``EngineBase._accumulate_planned`` and
``CLMEngine._run_step`` do): a second op while the lease is live raises
instead of overwriting gradients still being read.

Arenas are host bytes outside :class:`~repro.hardware.memory.MemoryPool`'s
model: the pool accounts a step's working set and activations analytically
(:mod:`repro.core.memory_model`), as before.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np


class Workspace:
    """Grow-only arenas, bindings, a lease, and what the last view measured."""

    def __init__(self) -> None:
        #: name -> (array, address, the dtype it was asked for).
        self._arenas: Dict[str, tuple] = {}
        self._bindings: Dict[Hashable, tuple] = {}
        #: Each step op's prepared call on these arenas, by entry point.
        self.calls: Dict[str, object] = {}
        self._lease = threading.Lock()
        #: Arenas allocated so far, replacements included: flat once every
        #: view of a repeated schedule has been seen.
        self.allocations = 0
        #: Bindings made so far, remade ones included: flat while no store,
        #: camera or target is replaced.
        self.bindings = 0
        #: CLM steps completed (``train_step`` calls and ``train_batch``'s
        #: steps): the parity picks the pair of double-buffered arenas the
        #: next ``train_step`` writes.
        self.steps = 0
        #: Seconds of the last view's forward half (project + composite, or
        #: the render) and backward half (gradient scaling + backward).
        self.forward_s = 0.0
        self.backward_s = 0.0
        #: Backend that composited the last view (``None``: not reported,
        #: e.g. by a custom renderer).
        self.rendered_on: Optional[str] = None

    def arena(self, name: str, size: int, dtype=np.float64) -> Tuple[np.ndarray, int]:
        """Arena ``name`` — at least ``size`` elements of ``dtype`` — and its
        address, replaced by a larger one when it is too small.  Raises
        ``TypeError`` when ``name`` holds another dtype."""
        held = self._arenas.get(name)
        if held is not None and held[2] is not dtype and held[0].dtype != dtype:
            raise TypeError(
                f"workspace arena {name!r} holds {held[0].dtype}, not "
                f"{np.dtype(dtype)}"
            )
        if held is None or held[0].size < size:
            # An eighth of headroom: a view a few rows larger than the
            # largest seen (the model moved) does not replace the arena.
            arena = np.empty(size + size // 8 + 1, dtype)
            held = self._arenas[name] = (arena, arena.ctypes.data, dtype)
            self.allocations += 1
        return held[:2]

    def binding(self, key: Hashable, owners: tuple, bind: Callable, *args):
        """What ``bind(*args)`` returned for ``key``, kept while ``owners`` are
        the objects it was last made for (compared by identity) and made
        again when any of them has been replaced.  The binding holds
        ``owners``, so what its addresses point into stays alive with it."""
        held = self._bindings.get(key)
        if held is not None and len(held[0]) == len(owners):
            for kept, owner in zip(held[0], owners):
                if kept is not owner:
                    break
            else:
                return held[1]
        self._bindings[key] = (owners, bind(*args))
        self.bindings += 1
        return self._bindings[key][1]

    @property
    def leased(self) -> bool:
        return self._lease.locked()

    def lease(self) -> None:
        """Claim the arenas for one step; raises ``RuntimeError`` while the
        last step's gradients are still leased."""
        if not self._lease.acquire(blocking=False):
            raise RuntimeError(
                "workspace already leased: the last view's gradients are "
                "still being consumed"
            )

    def release(self) -> None:
        """End the lease (nothing happens when none is live)."""
        if self._lease.locked():
            self._lease.release()
