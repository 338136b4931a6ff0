"""The variant digest: one SHA-256 per training variant of everything it
computes — each batch's loss, the final parameters and the image
``render_view(0)`` returns — over one small scene.

Two trees whose digests are equal on a backend train to the same bits there,
so a change that claims bit-identity (a kernel moved into C, a binding
rewritten) is checked by running this on both trees::

    PYTHONPATH=src python tests/reference/variant_digest.py --backend native --batches 20
    PYTHONPATH=src python tests/reference/variant_digest.py --backend numpy --batches 20

It prints one ``<variant> <digest>`` line per variant, then ``all`` and the
digest of those lines.  The seven variants are the engines and executors the
benchmark trains (``clm`` inline, with one overlap worker and as a task
graph, ``clm_sharded`` on two devices, ``naive``, ``enhanced``,
``baseline``); every one plans with the ``camera`` ordering, whose order is
not searched against a clock, so a rerun on one tree repeats its digest.
Densification runs every few batches, so the densify hook, ``rebuild`` and
the arenas' growth are inside the digest.  Only the standard library, NumPy
and the package are used.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Dict, Optional, Sequence

import numpy as np

#: variant -> (engine, ``EngineConfig`` overrides).
VARIANTS = {
    "clm": ("clm", {}),
    "clm_overlap": ("clm", {"overlap_workers": 1}),
    "clm_graph": ("clm", {"use_task_graph": True, "overlap_workers": 2}),
    "clm_sharded": ("clm_sharded", {"num_devices": 2}),
    "naive": ("naive", {}),
    "enhanced": ("enhanced", {}),
    "baseline": ("baseline", {}),
}

#: The scene every variant trains: ``(reference Gaussians, views, image
#: size)`` at the default size and at the smoke size a test runs.
SIZES = {"default": (200, 12, (32, 24)), "smoke": (60, 6, (16, 12))}


def _feed(digest, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def variant_digest(
    variant: str, backend: str, batches: int, size: str = "default"
) -> str:
    """The digest of ``batches`` batches of ``variant`` on ``backend``."""
    import repro
    from repro import EngineConfig
    from repro.core.trainer import TrainerConfig

    gaussians, views, image_size = SIZES[size]
    scene = repro.make_trainable_scene(
        reference_gaussians=gaussians, num_views=views, image_size=image_size, seed=7,
    )
    engine, overrides = VARIANTS[variant]
    config = EngineConfig(
        batch_size=4, ordering="camera", kernel_backend=backend, seed=0, **overrides,
    )
    trainer = TrainerConfig(batch_size=4, densify_every=5, densify_start=5, seed=0)
    sess = repro.session(scene, engine=engine, config=config, trainer_config=trainer)
    digest = hashlib.sha256()
    try:
        sess.train(batches=batches)
        _feed(digest, sess.metrics.losses)
        for arr in sess.snapshot_model().parameters().values():
            _feed(digest, arr)
        _feed(digest, sess.render_view(0).image)
    finally:
        close = getattr(sess.engine, "close", None)
        if close is not None:
            close()
    return digest.hexdigest()


def digests(
    backend: str, batches: int, size: str = "default",
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, str]:
    """``{variant: digest, ..., "all": digest of the lines}``."""
    out = {v: variant_digest(v, backend, batches, size) for v in variants or VARIANTS}
    lines = "".join(f"{v} {d}\n" for v, d in out.items())
    out["all"] = hashlib.sha256(lines.encode()).hexdigest()
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", default="native", help="kernel backend (default: native)")
    parser.add_argument("--batches", type=int, default=20, help="batches a variant trains (default: 20)")
    args = parser.parse_args(argv)
    for name, value in digests(args.backend, args.batches).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
