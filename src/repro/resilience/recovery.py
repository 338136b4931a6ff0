"""Transient engine-state snapshots for elastic fail-stop recovery.

A recovery snapshot is everything a training step mutates: the Gaussian
parameters, both optimizers' packed moments and per-row step counts, and
the engine's RNG stream state (the planner shares the same generator, so
restoring it replays ordering draws exactly).  Snapshots are plain heap
arrays held *in memory* between batches — deliberately not checkpoints:

- they are **transient**: one generation, overwritten after every
  successful batch, never written to disk (durable state is
  :mod:`repro.core.checkpoint`'s job);
- they are **topology-independent**: global row arrays, no shard
  assignment — which is exactly what lets recovery re-shard the restored
  state over K-1 survivors;
- they live on the *host heap* and are never charged to the simulated
  GPU :class:`~repro.hardware.memory.MemoryPool` — see the resilience
  note in :mod:`repro.core.memory_model` (snapshot bytes must not
  double-count pool bytes).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class EngineSnapshot:
    """One restorable point-in-time engine state."""

    #: Full model parameters by name (owned copies).
    params: Dict[str, np.ndarray]
    #: Optimizer state by engine attribute name: each entry holds owned
    #: copies of the packed moments (``m``/``v``) and ``steps``.
    optimizers: Dict[str, Dict[str, np.ndarray]] = field(
        default_factory=dict
    )
    #: ``numpy`` bit-generator state of the engine's RNG stream.
    rng_state: dict = field(default_factory=dict)
    #: Batches completed when the snapshot was taken (metadata only — the
    #: engine's monotone counter is never rolled back).
    batches_trained: int = 0

    @property
    def num_bytes(self) -> int:
        """Heap bytes this snapshot holds (reporting only)."""
        total = sum(a.nbytes for a in self.params.values())
        for state in self.optimizers.values():
            total += sum(a.nbytes for a in state.values())
        return total


def _optimizer_state(opt) -> Dict[str, np.ndarray]:
    if hasattr(opt, "packed_m"):  # PackedSparseAdam
        return {
            "m": opt.packed_m.copy(),
            "v": opt.packed_v.copy(),
            "steps": opt.steps.copy(),
        }
    state: Dict[str, np.ndarray] = {"steps": opt.steps.copy()}
    for name, arr in opt.m.items():
        state[f"m.{name}"] = arr.copy()
    for name, arr in opt.v.items():
        state[f"v.{name}"] = arr.copy()
    return state


def _restore_optimizer(opt, state: Dict[str, np.ndarray]) -> None:
    if hasattr(opt, "packed_m"):
        opt.packed_m[:] = state["m"]
        opt.packed_v[:] = state["v"]
        opt.steps[:] = state["steps"]
        return
    for name in opt.m:
        opt.m[name][:] = state[f"m.{name}"]
        opt.v[name][:] = state[f"v.{name}"]
    opt.steps[:] = state["steps"]


def _engine_optimizers(engine) -> Dict[str, object]:
    if hasattr(engine, "adam_critical"):  # CLM-family split optimizers
        return {
            "adam_critical": engine.adam_critical,
            "adam_noncritical": engine.adam_noncritical,
        }
    return {"optimizer": engine.optimizer}


def capture_engine_state(engine, batches_trained: int = 0) -> EngineSnapshot:
    """Copy everything a batch mutates out of ``engine``.

    ``snapshot_model`` already reassembles owned copies of the parameter
    arrays from whatever stores the engine uses, so the snapshot works
    for every engine type.
    """
    model = engine.snapshot_model()
    return EngineSnapshot(
        # snapshot_model usually reassembles fresh arrays, but some
        # engines hand back views of live storage — copy defensively.
        params={
            k: np.array(v, copy=True) for k, v in model.parameters().items()
        },
        optimizers={
            name: _optimizer_state(opt)
            for name, opt in _engine_optimizers(engine).items()
        },
        rng_state=copy.deepcopy(engine._rng.bit_generator.state),
        batches_trained=batches_trained,
    )


def restore_engine_state(engine, snapshot: EngineSnapshot) -> None:
    """Write ``snapshot`` back into ``engine``'s stores in place.

    Row counts must match (recovery never crosses a densify/prune
    boundary — snapshots are retaken after every ``rebuild``).
    """
    n = snapshot.params["positions"].shape[0]
    if n != engine.num_gaussians:
        raise ValueError(
            f"snapshot has {n} Gaussians, engine has {engine.num_gaussians}"
        )
    engine.load_parameters(snapshot.params)
    for name, opt in _engine_optimizers(engine).items():
        _restore_optimizer(opt, snapshot.optimizers[name])
    engine._rng.bit_generator.state = copy.deepcopy(snapshot.rng_state)
