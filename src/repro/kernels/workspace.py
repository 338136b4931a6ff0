"""The host memory one engine's training views run in, allocated once.

A :class:`Workspace` belongs to one engine (``EngineBase._workspace``) and
outlives its batches.  The ``native`` backend's ``view_train`` op runs a
view's four C calls (project, composite, loss, backward) over its
**arenas**: one grow-only buffer per kind of block, named by the op, of
which a view takes a prefix.  An arena is replaced only when a view needs
more than it holds (a larger working set, a densified model, a larger
image), and then with an eighth of headroom, so it is held at about the
largest view seen and nothing multi-MB is allocated or freed between
views.  Each arena's address is taken once, when it is allocated.

The gradients ``view_train`` returns are slices of an arena, so they are
valid only until the next view overwrites them.  The op takes a **lease**
before it writes and the caller releases it once the gradients are
consumed (``EngineBase._forward_backward`` does, on leaving its ``with``
block): a second ``view_train`` while the lease is live raises instead of
overwriting gradients still being read.

Arenas are host bytes outside :class:`~repro.hardware.memory.MemoryPool`'s
model: the pool accounts a view's activations analytically
(:mod:`repro.core.memory_model`), as before.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np


class Workspace:
    """Grow-only arenas, a lease, and what the last view measured."""

    def __init__(self) -> None:
        self._arenas: Dict[str, Tuple[np.ndarray, int]] = {}
        self._lease = threading.Lock()
        #: Arenas allocated so far, replacements included: flat once every
        #: view of a repeated schedule has been seen.
        self.allocations = 0
        #: Seconds of the last view's forward half (project + composite, or
        #: the render) and backward half (gradient scaling + backward).
        self.forward_s = 0.0
        self.backward_s = 0.0
        #: Backend that composited the last view (``None``: not reported,
        #: e.g. by a custom renderer).
        self.rendered_on: Optional[str] = None

    def arena(self, name: str, size: int, dtype=np.float64) -> Tuple[np.ndarray, int]:
        """Arena ``name`` — at least ``size`` elements of ``dtype`` — and its
        address, replaced by a larger one when it is too small.  A caller
        passes each name one dtype."""
        held = self._arenas.get(name)
        if held is None or held[0].size < size:
            # An eighth of headroom: a view a few rows larger than the
            # largest seen (the model moved) does not replace the arena.
            arena = np.empty(size + size // 8 + 1, dtype)
            held = self._arenas[name] = (arena, arena.ctypes.data)
            self.allocations += 1
        return held

    @property
    def leased(self) -> bool:
        return self._lease.locked()

    def lease(self) -> None:
        """Claim the arenas for one view; raises ``RuntimeError`` while the
        last view's gradients are still leased."""
        if not self._lease.acquire(blocking=False):
            raise RuntimeError(
                "workspace already leased: the last view's gradients are "
                "still being consumed"
            )

    def release(self) -> None:
        """End the lease (nothing happens when none is live)."""
        if self._lease.locked():
            self._lease.release()
