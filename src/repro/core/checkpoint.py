"""Engine state: one capture, one restore, in memory or on disk.

An :class:`EngineSnapshot` is everything a training batch mutates: the
parameters, every optimizer's moments and per-row step counts, and the
engine's RNG stream (the planner orders batches from it).
:func:`capture_engine_state` copies it out of any engine and
:func:`restore_engine_state` writes it back in place, after checking
every array it writes (presence, destination shape), so a refused
restore writes nothing.  ``clm_sharded`` keeps one in host memory for
fail-stop recovery (global rows, so it re-shards over the survivors).

A checkpoint is that snapshot written to one ``.npz`` (no pickle):
``model.<name>``, ``<optimizer>.m.<name>`` / ``.v.<name>`` / ``.steps``,
and a JSON metadata record with the RNG state, the engine's batch count
(its fault injector keys on it) and ``clm_sharded``'s alive devices, so a
resumed run continues the uninterrupted one bit for bit (under a fault
schedule: when no device failed before the checkpoint; the simulated
timings of transient faults start afresh).  ``TrainingSession.checkpoint`` adds
its trainer's state (``trainer.*`` arrays and metadata).  Saves publish
atomically (a same-directory temp file and ``os.replace``), the metadata
carries a BLAKE2b digest per array, and every load or restore failure is
a :class:`CheckpointError` naming the path and generation.
:class:`CheckpointManager` keeps numbered generations and falls back to
the newest one that verifies.  Version-1 (no checksums) and version-2 (no
RNG state) files still load, with the RNG left as the engine constructed
it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.gaussians.model import PARAMETER_NAMES, GaussianModel

#: Version 3 adds the engine's RNG state, version 2 per-array checksums
#: and generation metadata; versions 1 and 2 remain loadable.
FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


class CheckpointError(ValueError):
    """A checkpoint could not be read, parsed, or verified.

    Carries the offending :attr:`path` and (when the caller knows it) the
    :attr:`generation`, and names both in the message — the one exception
    type every load/restore failure funnels through.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> None:
        self.path = path
        self.generation = generation
        detail = []
        if path is not None:
            detail.append(f"path={path!r}")
        if generation is not None:
            detail.append(f"generation={generation}")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)


@dataclass
class EngineSnapshot:
    """One restorable point-in-time engine state."""

    #: Full model parameters by name.
    params: Dict[str, np.ndarray]
    #: By :meth:`EngineBase.optimizers` name, each optimizer's
    #: ``state_arrays`` (``m.<name>``, ``v.<name>``, ``steps``).
    optimizers: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    #: The engine RNG's bit-generator state; None leaves it as it is.
    rng_state: Optional[dict] = None
    #: Batches the engine has trained; None leaves its count as it is.
    batches_trained: Optional[int] = None
    #: A sharded engine's alive devices; None leaves them as they are.
    alive: Optional[List[int]] = None


def capture_engine_state(engine) -> EngineSnapshot:
    """Copy everything a batch mutates out of ``engine``."""
    return EngineSnapshot(
        params=engine.snapshot_model().parameters(),  # owned copies
        optimizers={
            name: {k: a.copy() for k, a in opt.state_arrays().items()}
            for name, opt in engine.optimizers().items()
        },
        rng_state=engine._rng.bit_generator.state,
        batches_trained=engine.batches_trained,
        alive=engine.devices(),
    )


def _check(label: str, dst: dict, src: dict, prefix: str = "") -> None:
    """Each array of ``dst`` has a source of its shape in ``src``."""
    for key, arr in dst.items():
        if key not in src:
            raise ValueError(f"missing {label} array '{prefix}{key}'")
        if src[key].shape != arr.shape:
            raise ValueError(
                f"{label} array '{prefix}{key}' is {src[key].shape}, "
                f"its destination {arr.shape}"
            )


def _check_progress(engine, snapshot: EngineSnapshot) -> None:
    """A snapshot's batch count is None or an int >= 0, its devices None or
    a non-empty, increasing list of the engine's device ids."""
    count, alive = snapshot.batches_trained, snapshot.alive
    if count is not None and (type(count) is not int or count < 0):
        raise ValueError(f"snapshot batch count {count!r} is not an int >= 0")
    if alive is not None and not (
        engine.devices() is not None and isinstance(alive, list) and alive
        and all(type(d) is int for d in alive)
        and all(a < b for a, b in zip([-1, *alive], [*alive, engine.num_devices]))
    ):
        raise ValueError(f"snapshot devices {alive!r} are not the engine's {engine.devices()}")


def restore_engine_state(engine, snapshot: EngineSnapshot) -> None:
    """Write ``snapshot`` back into ``engine`` in place.

    Row counts and every array's shape must match (recovery never crosses
    a densify/prune boundary: snapshots are retaken after ``rebuild``), the
    batch count be an int >= 0 and the devices the engine's; otherwise
    ``ValueError``, raised before anything is written.
    """
    n = snapshot.params["positions"].shape[0]
    if n != engine.num_gaussians:
        raise ValueError(
            f"snapshot has {n} Gaussians, engine has {engine.num_gaussians}"
        )
    _check("model", engine.snapshot_model().parameters(), snapshot.params)
    optimizers = {
        name: opt.state_arrays() for name, opt in engine.optimizers().items()
    }
    for name, state in optimizers.items():
        given = snapshot.optimizers.get(name, {})
        _check("optimizer", state, given, prefix=f"{name}.")
    _check_progress(engine, snapshot)
    engine.load_parameters(snapshot.params)
    for name, state in optimizers.items():
        for key, arr in state.items():
            arr[...] = snapshot.optimizers[name][key]
    if snapshot.rng_state is not None:
        engine._rng.bit_generator.state = snapshot.rng_state
    if snapshot.batches_trained is not None:
        engine.batches_trained = snapshot.batches_trained
    if snapshot.alive is not None:
        engine.restore_devices(snapshot.alive)


def _checksum(arr: np.ndarray) -> str:
    """BLAKE2b content digest of one array's raw bytes."""
    return hashlib.blake2b(
        np.ascontiguousarray(arr).tobytes(), digest_size=16
    ).hexdigest()


def save_checkpoint(
    path: str,
    engine,
    batches_trained: int = 0,
    generation: Optional[int] = None,
    trainer=None,
) -> None:
    """Write ``engine``'s snapshot, and ``trainer``'s state when given
    (:meth:`repro.core.trainer.Trainer.state`), to ``path`` (.npz).

    The write is atomic: arrays land in ``path + '.tmp'`` and are
    published with ``os.replace``, so concurrent readers (and crashes)
    only ever see the previous complete checkpoint or the new one.
    """
    snapshot = capture_engine_state(engine)
    arrays = {f"model.{k}": v for k, v in snapshot.params.items()}
    for name, state in snapshot.optimizers.items():
        arrays.update({f"{name}.{k}": v for k, v in state.items()})
    meta = {
        "version": FORMAT_VERSION,
        # (degree + 1)^2 SH basis functions per colour channel.
        "sh_degree": math.isqrt(snapshot.params["sh"].shape[1]) - 1,
        "num_gaussians": engine.num_gaussians,
        "engine": type(engine).__name__,
        "batches_trained": batches_trained,
        "generation": generation,
        "rng": snapshot.rng_state,
        "engine_batches": snapshot.batches_trained,
        "alive": snapshot.alive,
    }
    if trainer is not None:
        trainer_arrays, meta["trainer"] = trainer.state()
        arrays.update({f"trainer.{k}": v for k, v in trainer_arrays.items()})
    meta["checksums"] = {name: _checksum(arr) for name, arr in arrays.items()}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    tmp = f"{path}.tmp"
    try:
        # Write through an open handle: np.savez would otherwise append
        # ``.npz`` to the temp name and the rename would miss it.
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_checkpoint(
    path: str, generation: Optional[int] = None
) -> "tuple[Dict[str, np.ndarray], dict]":
    """Read ``path`` fully into memory and verify it.

    Returns ``(arrays, meta)``.  Every failure mode — unreadable file,
    truncated/garbage zip, missing or corrupt metadata, unsupported
    version, checksum mismatch — raises :class:`CheckpointError` naming
    the path and generation.
    """
    def error(message: str) -> CheckpointError:
        return CheckpointError(message, path=path, generation=generation)

    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:
        raise error(f"unreadable checkpoint: {exc}") from exc
    if "meta" not in arrays:
        raise error("checkpoint has no metadata record")
    try:
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
    except Exception as exc:
        raise error(f"corrupt checkpoint metadata: {exc}") from exc
    version = meta.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise error(f"unsupported checkpoint version {version!r}")
    # Version-1 checkpoints carry no checksums.
    for name, expected in (meta.get("checksums") or {}).items():
        if name not in arrays:
            raise error(f"checkpoint array '{name}' is missing")
        actual = _checksum(arrays[name])
        if actual != expected:
            raise error(
                f"checksum mismatch for array '{name}' "
                f"(expected {expected}, got {actual})"
            )
    return arrays, meta


def _model_from_arrays(
    arrays: Dict[str, np.ndarray],
    meta: dict,
    path: str,
    generation: Optional[int],
) -> GaussianModel:
    try:
        params = {name: arrays[f"model.{name}"] for name in PARAMETER_NAMES}
        return GaussianModel(**params, sh_degree=meta["sh_degree"])
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint is missing model array {exc}",
            path=path,
            generation=generation,
        ) from exc


def load_model(
    path: str, generation: Optional[int] = None
) -> "tuple[GaussianModel, dict]":
    """Read back the model (and metadata) from a checkpoint."""
    arrays, meta = read_checkpoint(path, generation=generation)
    return _model_from_arrays(arrays, meta, path, generation), meta


def restore_into_engine(
    path: str, engine, generation: Optional[int] = None, trainer=None
) -> dict:
    """Restore a checkpoint into an engine of matching shape (typically
    built from ``load_model(path)``), and into ``trainer`` when given and
    the file carries its state.  Returns the metadata.

    The file is read and verified, turned into an :class:`EngineSnapshot`
    and restored with :func:`restore_engine_state`.  Every array is checked
    before the first write: a refused restore raises
    :class:`CheckpointError` and leaves engine and trainer as they were.
    """
    arrays, meta = read_checkpoint(path, generation=generation)
    model = _model_from_arrays(arrays, meta, path, generation)
    groups: Dict[str, Dict[str, np.ndarray]] = {}
    for key, arr in arrays.items():
        group, _, name = key.partition(".")
        groups.setdefault(group, {})[name] = arr
    trainer_arrays = groups.pop("trainer", {})
    groups.pop("model")  # the rest are the optimizers'
    snapshot = EngineSnapshot(
        model.parameters(), groups, meta.get("rng"), meta.get("engine_batches"),
        meta.get("alive", engine.devices()),  # older files: the engine's own
    )
    trainer_meta = meta.get("trainer") if trainer is not None else None
    try:
        if trainer_meta is not None:
            _check("trainer", trainer.state()[0], trainer_arrays)
        restore_engine_state(engine, snapshot)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint does not fit: {exc}", path=path, generation=generation
        ) from exc
    if trainer_meta is not None:
        trainer.load_state(trainer_arrays, trainer_meta)
    return meta


class CheckpointManager:
    """Numbered checkpoint generations with last-good fallback.

    ``save()`` writes ``ckpt-<generation>.npz`` atomically, verifies the
    published file end-to-end (read + checksum pass), then prunes old
    generations beyond ``keep``.  ``load_latest_good()`` /
    ``restore_latest_good()`` walk generations newest-first and return
    the first one that verifies, warning about (and skipping) corrupt
    tips — recovery degrades to older state instead of crashing.
    """

    _NAME_RE = re.compile(r"^ckpt-(\d{6})\.npz$")

    def __init__(self, directory: str, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = directory
        self.keep = int(keep)
        os.makedirs(directory, exist_ok=True)

    def path_for(self, generation: int) -> str:
        return os.path.join(self.directory, f"ckpt-{generation:06d}.npz")

    def generations(self) -> List[int]:
        """Present generation numbers, ascending."""
        out = []
        for name in os.listdir(self.directory):
            match = self._NAME_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # ------------------------------------------------------------------
    def save(self, engine, batches_trained: int = 0) -> str:
        """Write the next generation; returns its path."""
        present = self.generations()
        generation = (present[-1] + 1) if present else 0
        path = self.path_for(generation)
        save_checkpoint(
            path, engine, batches_trained=batches_trained,
            generation=generation,
        )
        # Self-check before pruning: never delete a good old generation
        # on the strength of an unverified new one.
        read_checkpoint(path, generation=generation)
        for old in self.generations()[: -self.keep]:
            os.unlink(self.path_for(old))
        return path

    def _latest_good(self, loader):
        """Apply ``loader(path, generation)`` newest-first, returning the
        first success and warning about (then skipping) generations that
        fail with :class:`CheckpointError`."""
        generations = self.generations()
        if not generations:
            raise CheckpointError(
                "no checkpoint generations found", path=self.directory
            )
        last_error: Optional[CheckpointError] = None
        for generation in reversed(generations):
            path = self.path_for(generation)
            try:
                return loader(path, generation)
            except CheckpointError as exc:
                warnings.warn(
                    f"checkpoint generation {generation} failed to load "
                    f"({exc}); falling back to the previous generation",
                    RuntimeWarning,
                    stacklevel=3,
                )
                last_error = exc
        raise CheckpointError(
            f"no loadable checkpoint generation "
            f"(tried {len(generations)}, last error: {last_error})",
            path=self.directory,
        )

    def load_latest_good(self) -> "tuple[GaussianModel, dict, str]":
        """The newest verifiable generation as ``(model, meta, path)``."""

        def loader(path: str, generation: int):
            model, meta = load_model(path, generation=generation)
            return model, meta, path

        return self._latest_good(loader)

    def restore_latest_good(self, engine) -> dict:
        """Restore the newest verifiable generation into ``engine``."""
        return self._latest_good(
            lambda path, generation: restore_into_engine(
                path, engine, generation=generation
            )
        )
