"""Checkpointing: save/resume training across processes.

Long offloaded runs (the paper trains BigCity for 500k steps) need durable
state: the Gaussian parameters plus *both* optimizers' moments and per-row
step counts — without them, resuming silently restarts bias correction and
perturbs training.  The format is a single ``.npz`` (portable, no pickle).

Works with any engine type; CLM's split stores are reassembled through
``snapshot_model`` and re-split on load.

Hardening (the robustness PR):

- **atomic writes** — every save lands in a same-directory temp file and
  is published with ``os.replace``, so a crash mid-write never leaves a
  half-written checkpoint under the real name;
- **content checksums** — the metadata carries a BLAKE2b digest per
  array, verified on load, so silent corruption (bit rot, torn copies)
  is *detected* instead of silently resuming from garbage;
- **clear errors** — every load failure (truncated zip, garbage bytes,
  missing arrays, checksum mismatch, bad metadata) surfaces as a
  :class:`CheckpointError` naming the path (and generation, when known),
  never a raw exception from deep inside numpy;
- **retained generations** — :class:`CheckpointManager` writes numbered
  generations (``ckpt-000042.npz``), keeps the most recent ``keep``, and
  ``load_latest_good``/``restore_latest_good`` fall back to the newest
  generation that still verifies instead of crashing on a corrupt tip.

Version-1 checkpoints (pre-checksum, same per-name array layout) still
load — the checksum pass simply skips when the metadata has none.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from typing import Dict, List, Optional

import numpy as np

from repro.gaussians.model import GaussianModel

#: Version 2 adds per-array checksums + generation metadata; version 1
#: (no checksums) remains loadable.
FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


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


def _checksum(arr: np.ndarray) -> str:
    """BLAKE2b content digest of one array's raw bytes."""
    return hashlib.blake2b(
        np.ascontiguousarray(arr).tobytes(), digest_size=16
    ).hexdigest()


def _optimizer_arrays(prefix: str, opt) -> Dict[str, np.ndarray]:
    # The per-name serialization works for both optimizer layouts: the
    # packed-row PackedSparseAdam exposes its moments as per-name views,
    # so checkpoints stay interchangeable across optimizer generations.
    out = {}
    for name, arr in opt.m.items():
        out[f"{prefix}.m.{name}"] = arr
    for name, arr in opt.v.items():
        out[f"{prefix}.v.{name}"] = arr
    out[f"{prefix}.steps"] = opt.steps
    return out


def _load_optimizer(prefix: str, opt, data) -> None:
    if hasattr(opt, "packed_m"):  # PackedSparseAdam: write through the views
        for name, view in opt.m.items():
            view[:] = data[f"{prefix}.m.{name}"]
        for name, view in opt.v.items():
            view[:] = data[f"{prefix}.v.{name}"]
        opt.steps[:] = data[f"{prefix}.steps"]
        return
    for name in opt.m:
        opt.m[name] = data[f"{prefix}.m.{name}"]
        opt.v[name] = data[f"{prefix}.v.{name}"]
    opt.steps = data[f"{prefix}.steps"]


def save_checkpoint(
    path: str,
    engine,
    batches_trained: int = 0,
    generation: Optional[int] = None,
) -> None:
    """Serialize an engine's model + optimizer state to ``path`` (.npz).

    The write is atomic: arrays land in ``path + '.tmp'`` and are
    published with ``os.replace``, so concurrent readers (and crashes)
    only ever see the previous complete checkpoint or the new one.
    """
    model = engine.snapshot_model()
    arrays: Dict[str, np.ndarray] = {
        f"model.{k}": v for k, v in model.parameters().items()
    }
    if hasattr(engine, "adam_critical"):  # CLMEngine
        arrays.update(_optimizer_arrays("adam_critical", engine.adam_critical))
        arrays.update(
            _optimizer_arrays("adam_noncritical", engine.adam_noncritical)
        )
    else:  # GPU-only / naive engines share a single optimizer
        arrays.update(_optimizer_arrays("optimizer", engine.optimizer))
    meta = {
        "version": FORMAT_VERSION,
        "sh_degree": model.sh_degree,
        "num_gaussians": model.num_gaussians,
        "engine": type(engine).__name__,
        "batches_trained": batches_trained,
        "generation": generation,
        "checksums": {name: _checksum(arr) for name, arr in arrays.items()},
    }
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
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint: {exc}", path=path, generation=generation
        ) from exc
    if "meta" not in arrays:
        raise CheckpointError(
            "checkpoint has no metadata record",
            path=path,
            generation=generation,
        )
    try:
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(
            f"corrupt checkpoint metadata: {exc}",
            path=path,
            generation=generation,
        ) from exc
    version = meta.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}",
            path=path,
            generation=generation,
        )
    checksums = meta.get("checksums")
    if checksums:  # absent in version-1 checkpoints
        for name, expected in checksums.items():
            if name not in arrays:
                raise CheckpointError(
                    f"checkpoint array '{name}' is missing",
                    path=path,
                    generation=generation,
                )
            actual = _checksum(arrays[name])
            if actual != expected:
                raise CheckpointError(
                    f"checksum mismatch for array '{name}' "
                    f"(expected {expected}, got {actual})",
                    path=path,
                    generation=generation,
                )
    return arrays, meta


def _model_from_arrays(
    arrays: Dict[str, np.ndarray],
    meta: dict,
    path: str,
    generation: Optional[int],
) -> GaussianModel:
    try:
        return GaussianModel(
            positions=arrays["model.positions"],
            log_scales=arrays["model.log_scales"],
            quaternions=arrays["model.quaternions"],
            sh=arrays["model.sh"],
            opacity_logits=arrays["model.opacity_logits"],
            sh_degree=meta["sh_degree"],
        )
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
    path: str, engine, generation: Optional[int] = None
) -> dict:
    """Load a checkpoint into an existing engine of matching shape.

    The engine must have been constructed from a model with the same
    Gaussian count/degree (typically via ``load_model`` + the engine
    constructor); this routine then overwrites parameters and optimizer
    state in place so training resumes bit-exactly.
    """
    arrays, meta = read_checkpoint(path, generation=generation)
    model = _model_from_arrays(arrays, meta, path, generation)
    if model.num_gaussians != engine.num_gaussians:
        raise CheckpointError(
            f"checkpoint has {model.num_gaussians} Gaussians, engine has "
            f"{engine.num_gaussians}",
            path=path,
            generation=generation,
        )
    engine.load_parameters(model.parameters())
    try:
        if hasattr(engine, "adam_critical"):
            _load_optimizer("adam_critical", engine.adam_critical, arrays)
            _load_optimizer("adam_noncritical", engine.adam_noncritical, arrays)
        else:
            _load_optimizer("optimizer", engine.optimizer, arrays)
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint is missing optimizer array {exc}",
            path=path,
            generation=generation,
        ) from exc
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
