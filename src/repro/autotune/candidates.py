"""Candidate configuration enumeration for the auto-tuner.

A :class:`TunedConfig` bundles the two knobs the adaptive runtime owns;
a :class:`CandidateSpace` is the grid the tuner searches.  Enumeration
order is deterministic (workers, then ordering) and ties
in predicted makespan resolve to the *earliest* candidate, so tuning is
reproducible given the same measurements.

Two deliberate exclusions:

- the ``random`` ordering is rejected: it is the ablation's baseline, a
  fresh shuffle drawn from the engine RNG every plan, so a makespan
  predicted for one shuffle says nothing about the next;
- the kernel backend is not a knob: switching numeric backends mid-run
  changes results within their 1e-10 parity envelope, which would break
  the bit-identical-training guarantee the runtime otherwise keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class TunedConfig:
    """One point of the tuning grid (hashable, fingerprint-friendly)."""

    overlap_workers: int
    ordering: str

    def as_dict(self) -> dict:
        return {
            "overlap_workers": self.overlap_workers,
            "ordering": self.ordering,
        }


@dataclass(frozen=True)
class CandidateSpace:
    """The grid of candidate configurations the tuner predicts over."""

    workers: Tuple[int, ...] = (0, 1, 2)
    orderings: Tuple[str, ...] = ("tsp", "gs_count", "identity")

    def __post_init__(self) -> None:
        for name, values in (
            ("workers", self.workers),
            ("orderings", self.orderings),
        ):
            if not values:
                raise ValueError(f"CandidateSpace.{name} must be non-empty")
        if any(w < 0 for w in self.workers):
            raise ValueError("negative worker counts are not candidates")
        if "random" in self.orderings:
            raise ValueError(
                "the 'random' ordering is a fresh shuffle every plan; "
                "it cannot be auto-tuned"
            )

    @classmethod
    def from_engine_config(cls, config) -> "CandidateSpace":
        """Build the space an :class:`~repro.core.config.EngineConfig`
        describes (``autotune_*`` fields, with safe defaults)."""
        return cls(
            workers=tuple(getattr(config, "autotune_workers", (0, 1, 2))),
            orderings=tuple(
                getattr(
                    config, "autotune_orderings", ("tsp", "gs_count", "identity")
                )
            ),
        )

    def enumerate(self) -> List[TunedConfig]:
        """Every candidate, in deterministic tie-break order."""
        return [
            TunedConfig(overlap_workers=int(w), ordering=ordering)
            for w in self.workers
            for ordering in self.orderings
        ]

    @property
    def size(self) -> int:
        return len(self.workers) * len(self.orderings)
