"""The variant digest: one SHA-256 per training variant of everything it
computes — each batch's loss, the final parameters and the image
``render_view(0)`` returns — over one small scene.

Two trees whose digests are equal on a backend train to the same bits there,
so a change that claims bit-identity (a kernel moved into C, a binding
rewritten) is checked by running this on both trees::

    PYTHONPATH=src python tests/reference/variant_digest.py --backend native --batches 20
    PYTHONPATH=src python tests/reference/variant_digest.py --backend numpy --batches 20

It prints one ``<variant> <digest>`` line per variant, then ``all`` and the
digest of those lines.  ``--against REV`` runs the same digest on the
package of another commit as well — ``git archive REV src``, extracted into a
temporary directory and put first on ``PYTHONPATH`` of a subprocess — and
exits non-zero naming every variant whose digest differs::

    PYTHONPATH=src python tests/reference/variant_digest.py --backend native --against HEAD~1
  The seven variants are the engines and executors the
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
import io
import os
import subprocess
import sys
import tarfile
import tempfile
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


def digests_at(rev: str, backend: str, batches: int, size: str = "default") -> Dict[str, str]:
    """:func:`digests` of the package at commit ``rev`` of this script's
    repository, run by this script in a subprocess; ``.git`` is only read."""
    here = os.path.dirname(os.path.abspath(__file__))
    top = subprocess.run(
        ["git", "-C", here, "rev-parse", "--show-toplevel"], check=True, capture_output=True,
        text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", top, "archive", "--format=tar", rev, "src"], check=True,
        capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory(prefix="variant-digest-") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(tree, "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--backend", backend,
             "--batches", str(batches), "--size", size],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
    return dict(line.split() for line in out.splitlines())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", default="native", help="kernel backend (default: native)")
    parser.add_argument("--batches", type=int, default=20, help="batches a variant trains (default: 20)")
    parser.add_argument("--size", default="default", choices=sorted(SIZES), help="scene size (default: default)")
    parser.add_argument("--against", metavar="REV", help="also digest commit REV and compare")
    args = parser.parse_args(argv)
    ours = digests(args.backend, args.batches, args.size)
    for name, value in ours.items():
        print(f"{name} {value}")
    if args.against is None:
        return 0
    theirs = digests_at(args.against, args.backend, args.batches, args.size)
    differ = [v for v in VARIANTS if ours[v] != theirs.get(v)]
    for variant in differ:
        print(f"differs from {args.against}: {variant}")
    if not differ:
        print(f"all {len(VARIANTS)} variants equal {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
