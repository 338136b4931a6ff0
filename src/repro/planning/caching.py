"""Precise Gaussian caching: per-microbatch transfer plans (paper §4.2.1).

Given the ordered in-frustum sets ``S_1 .. S_B`` of a batch, each
microbatch ``i`` needs the working set ``S_i`` on the GPU.  CLM exploits
consecutive-view overlap:

- **loads_i** = ``S_i \\ S_{i-1}`` — fetched from pinned CPU memory;
- **cached_i** = ``S_i & S_{i-1}`` — copied GPU->GPU from the previous
  double buffer (no PCIe traffic);
- **stores_i** = ``S_i \\ S_{i+1}`` — gradients whose next microbatch does
  not touch them; transferred (accumulating) to CPU right after BWD_i;
- **carried_i** = ``S_i & S_{i+1}`` — gradients kept on the GPU and
  accumulated into microbatch ``i+1``'s gradient buffer.

The invariants (verified by property tests): loads and cached partition
``S_i``; stores and carried partition ``S_i``; across a batch, every
touched Gaussian's gradient is stored exactly once *after its final
microbatch* — which is what makes overlapped CPU Adam (§4.2.2) safe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.utils import setops


class MicrobatchStep:
    """The transfer plan of one microbatch within a batch.

    A plain ``__slots__`` class: a step belongs to its batch's plan, and
    the planner builds up to one per view every batch.
    """

    __slots__ = ("position", "view_id", "working_set", "loads", "cached", "stores", "carried")

    def __init__(
        self,
        position: int,  # 0-based slot in the scheduled order
        view_id: int,
        working_set: np.ndarray,  # S_i
        loads: np.ndarray,  # from CPU
        cached: np.ndarray,  # GPU->GPU copy from previous buffer
        stores: np.ndarray,  # gradients offloaded after BWD_i
        carried: np.ndarray,  # gradients accumulated into the next buffer
    ) -> None:
        self.position = position
        self.view_id = view_id
        self.working_set = working_set
        self.loads = loads
        self.cached = cached
        self.stores = stores
        self.carried = carried

    @property
    def num_loads(self) -> int:
        return int(self.loads.size)

    @property
    def num_stores(self) -> int:
        return int(self.stores.size)


def build_transfer_plan(
    sets: Sequence[np.ndarray],
    view_ids: Optional[Sequence[int]] = None,
    enable_cache: bool = True,
) -> List[MicrobatchStep]:
    """Plan loads/stores for a batch processed in the given order.

    With ``enable_cache=False`` (the "No Cache" ablation of Figure 14)
    every microbatch loads its full working set and offloads its full
    gradient set; CPU-side gradient accumulation keeps that correct.
    """
    batch = len(sets)
    if view_ids is None:
        view_ids = list(range(batch))
    if len(view_ids) != batch:
        raise ValueError("view_ids length must match sets length")

    steps: List[MicrobatchStep] = []
    empty = np.empty(0, dtype=np.int64)
    for i, current in enumerate(sets):
        prev_set = sets[i - 1] if (enable_cache and i > 0) else empty
        next_set = sets[i + 1] if (enable_cache and i + 1 < batch) else empty
        cached, loads = setops.partition(current, prev_set)
        carried, stores = setops.partition(current, next_set)
        steps.append(
            MicrobatchStep(
                position=i,
                view_id=view_ids[i],
                working_set=current,
                loads=loads,
                cached=cached,
                stores=stores,
                carried=carried,
            )
        )
    return steps


def total_load_count(steps: Sequence[MicrobatchStep]) -> int:
    """Gaussians fetched over PCIe for the whole batch (the quantity of
    Figure 14, before converting to bytes)."""
    return int(sum(s.num_loads for s in steps))


def total_store_count(steps: Sequence[MicrobatchStep]) -> int:
    return int(sum(s.num_stores for s in steps))


def total_cached_count(steps: Sequence[MicrobatchStep]) -> int:
    return int(sum(s.cached.size for s in steps))


def validate_plan(steps: Sequence[MicrobatchStep]) -> None:
    """Assert the §4.2.1 invariants; raises AssertionError on violation."""
    for step in steps:
        combined = np.union1d(step.loads, step.cached)
        assert np.array_equal(combined, step.working_set), (
            f"loads+cached != working set at position {step.position}"
        )
        assert setops.intersect(step.loads, step.cached).size == 0
        combined = np.union1d(step.stores, step.carried)
        assert np.array_equal(combined, step.working_set), (
            f"stores+carried != working set at position {step.position}"
        )
        assert setops.intersect(step.stores, step.carried).size == 0
