"""GPU / pinned-host memory accounting.

Two levels of fidelity:

- :class:`MemoryPool` — capacity accounting with named allocations, peak
  tracking and :class:`OutOfMemoryError`.  The memory model
  (:mod:`repro.core.memory_model`) and the functional stores use this to
  reproduce the OOM boundaries of Figure 8.
- :class:`BlockAllocator` — a first-fit block allocator with optional
  block caching, reproducing the PyTorch caching-allocator fragmentation
  discussed in paper Appendix A.3: under densify/prune churn with varying
  allocation sizes, cached free blocks stop being reusable and the
  *reserved* footprint grows beyond the *allocated* footprint.  The
  ``expandable_segments`` flag emulates PyTorch's remedy (which the paper
  enables in all experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds device capacity."""

    def __init__(self, requested: float, available: float, name: str = "") -> None:
        self.requested = requested
        self.available = available
        unit, scale = ("GB", 1e9) if requested >= 1e8 else ("MB", 1e6)
        super().__init__(
            f"OOM allocating {requested / scale:.2f} {unit} for '{name}' "
            f"({available / scale:.2f} {unit} available)"
        )


class MemoryPool:
    """Named-allocation capacity tracker (a device memory, or pinned RAM)."""

    def __init__(self, capacity_bytes: float, name: str = "device") -> None:
        self.capacity = float(capacity_bytes)
        self.name = name
        self._allocs: Dict[str, float] = {}
        self.peak = 0.0

    @property
    def used(self) -> float:
        return sum(self._allocs.values())

    @property
    def available(self) -> float:
        return self.capacity - self.used

    def alloc(self, name: str, num_bytes: float) -> None:
        """Allocate (or grow) a named region; raises on OOM."""
        if num_bytes < 0:
            raise ValueError("negative allocation")
        current = self._allocs.get(name, 0.0)
        delta = num_bytes - current
        if delta > self.available:
            raise OutOfMemoryError(num_bytes, self.available + current, name)
        self._allocs[name] = num_bytes
        self.peak = max(self.peak, self.used)

    def free(self, name: str) -> None:
        self._allocs.pop(name, None)

    def usage_breakdown(self) -> Dict[str, float]:
        return dict(self._allocs)


@dataclass
class _Block:
    offset: int
    size: int
    free: bool
    tag: str = ""


@dataclass
class FragmentationStats:
    """Snapshot of allocator health (Appendix A.3 reproduction)."""

    allocated: int
    reserved: int
    largest_free: int
    free_total: int

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/free_total: 0 when free space is contiguous."""
        if self.free_total == 0:
            return 0.0
        return 1.0 - self.largest_free / self.free_total


class BlockAllocator:
    """First-fit block allocator over a contiguous arena.

    With ``expandable_segments=False`` freed blocks are only coalesced with
    free neighbours (as in the caching allocator), so interleaved
    variable-size alloc/free patterns — exactly what densification and
    pruning produce — strand free space.  With ``expandable_segments=True``
    free blocks are aggressively merged and the arena behaves like a
    movable heap (fragmentation stays near zero), emulating PyTorch's
    expandable-segments mode that the paper enables.
    """

    def __init__(
        self, capacity_bytes: int, expandable_segments: bool = False
    ) -> None:
        self.capacity = int(capacity_bytes)
        self.expandable = expandable_segments
        self._blocks: List[_Block] = [_Block(0, self.capacity, True)]
        self._live: Dict[int, _Block] = {}
        self._next_handle = 0

    # ------------------------------------------------------------------
    def alloc(self, size: int, tag: str = "") -> int:
        """Allocate ``size`` bytes; returns a handle.  Raises OOM when no
        single free block fits (even if total free space would suffice —
        that is fragmentation)."""
        size = int(size)
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self.expandable:
            self._compact()
        for i, block in enumerate(self._blocks):
            if block.free and block.size >= size:
                if block.size > size:
                    remainder = _Block(block.offset + size, block.size - size, True)
                    self._blocks.insert(i + 1, remainder)
                block.size = size
                block.free = False
                block.tag = tag
                handle = self._next_handle
                self._next_handle += 1
                self._live[handle] = block
                return handle
        stats = self.stats()
        raise OutOfMemoryError(size, stats.largest_free, tag)

    def free(self, handle: int) -> None:
        block = self._live.pop(handle)
        block.free = True
        block.tag = ""
        self._coalesce()

    # ------------------------------------------------------------------
    def _coalesce(self) -> None:
        merged: List[_Block] = []
        for block in self._blocks:
            if merged and merged[-1].free and block.free:
                merged[-1].size += block.size
            else:
                merged.append(block)
        self._blocks = merged

    def _compact(self) -> None:
        """Slide live blocks together (expandable-segments emulation)."""
        live = [b for b in self._blocks if not b.free]
        offset = 0
        for block in live:
            block.offset = offset
            offset += block.size
        blocks = list(live)
        if offset < self.capacity:
            blocks.append(_Block(offset, self.capacity - offset, True))
        self._blocks = blocks

    def stats(self) -> FragmentationStats:
        free_blocks = [b for b in self._blocks if b.free]
        allocated = sum(b.size for b in self._blocks if not b.free)
        free_total = sum(b.size for b in free_blocks)
        largest = max((b.size for b in free_blocks), default=0)
        return FragmentationStats(
            allocated=allocated,
            reserved=self.capacity,
            largest_free=largest,
            free_total=free_total,
        )
