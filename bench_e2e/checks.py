"""The correctness gate the one command runs.

Each check returns a `Check`; a failed training check marks every
measured batch of the variant it names as failed, a failed serving check
the requests it names, so wrong answers can never read as fast ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from bench_e2e.catalog import TRAIN_VARIANTS

#: The bar of `tests/core/test_equivalence.py`.
CROSS_ENGINE_ATOL = 1e-10
CLM_VARIANTS = ("clm", "clm_overlap", "clm_graph")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    #: Training variant whose batches count as failed when `ok` is false.
    variant: str = ""
    #: Requests that count as failed when `ok` is false.
    failed_requests: int = 0


def _max_abs_diff(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> float:
    return max(float(np.max(np.abs(a[name] - b[name]))) for name in a)


def training_checks(result, clm_moves_less_than_naive: bool) -> List[Check]:
    """`result` is a `training.TrainResult`."""
    checks: List[Check] = []
    runs = result.runs
    for name in TRAIN_VARIANTS:
        run = runs[name]
        checks.append(
            Check(
                f"train.{name}.completed",
                run.error is None and len(run.losses) == run.attempted,
                run.error or "",
                variant=name,
            )
        )
        checks.append(
            Check(
                f"train.{name}.losses_finite",
                bool(np.all(np.isfinite(run.losses))),
                variant=name,
            )
        )
    if runs["clm"].error is not None:
        return checks
    reference = runs["clm"].session.snapshot_model().parameters()
    for name in TRAIN_VARIANTS[1:]:
        run = runs[name]
        if run.error is not None:
            continue
        params = run.session.snapshot_model().parameters()
        if name in CLM_VARIANTS:
            same = all(
                np.array_equal(params[k], reference[k]) for k in reference
            ) and run.losses == runs["clm"].losses
            checks.append(
                Check(
                    f"train.{name}.bit_identical_to_clm",
                    same,
                    f"max |dparam| = {_max_abs_diff(params, reference):.3e}",
                    variant=name,
                )
            )
        else:
            diff = _max_abs_diff(params, reference)
            checks.append(
                Check(
                    f"train.{name}.matches_clm",
                    diff <= CROSS_ENGINE_ATOL,
                    f"max |dparam| = {diff:.3e} (atol {CROSS_ENGINE_ATOL:g})",
                    variant=name,
                )
            )
    if clm_moves_less_than_naive:
        clm = result.transfer_bytes_per_image["clm"]
        naive = result.transfer_bytes_per_image["naive"]
        checks.append(
            Check(
                "train.clm.moves_less_than_naive",
                clm < naive,
                f"clm {clm:.0f} vs naive {naive:.0f} bytes/image",
                variant="clm",
            )
        )
    return checks


def serving_checks(phases, inputs) -> List[Check]:
    """`phases` maps phase name to a `serving.PhaseResult`."""
    from repro.gaussians.rasterizer import RasterSettings
    from repro.gaussians.render import render
    from repro.serving import RenderRequest, forward_only_settings

    from bench_e2e.serving import make_serving_session

    checks: List[Check] = []
    for name, phase in phases.items():
        unmatched = sum(
            segment.offered
            for segment in phase.segments
            if sorted(r.request_id for r in segment.report.records)
            != list(range(segment.offered))
        )
        checks.append(
            Check(
                f"serve.{name}.one_record_per_request",
                unmatched == 0,
                f"{unmatched} of {phase.offered} requests in a segment whose "
                "records do not match its requests one to one",
                failed_requests=unmatched,
            )
        )
        checks.append(
            Check(
                f"serve.{name}.all_served",
                phase.not_served == 0,
                f"{phase.not_served} of {phase.offered} shed/expired/failed",
                failed_requests=phase.not_served,
            )
        )
    # One image through the serving path vs a direct forward render of
    # the same working set, bit for bit.
    sess = make_serving_session(inputs, queue_capacity=1)
    view_id = phases["lo"].segments[0].report.records[0].view_id
    camera = next(c for c in inputs.cameras if c.view_id == view_id)
    served = sess.render_request(
        RenderRequest(
            request_id=0, view_id=view_id, camera=camera, arrival_s=0.0,
            slo_s=1.0,
        )
    )
    working_set = sess.grid.query(camera)
    if sess.lod is not None:
        working_set = sess.lod.apply(sess.lod.level_for(camera), working_set)
    direct = render(
        camera,
        inputs.model.gather(working_set),
        forward_only_settings(RasterSettings()),
    )
    checks.append(
        Check(
            "serve.image_matches_direct_render",
            np.array_equal(served.image, direct.image),
            f"view {view_id}, {working_set.size} Gaussians",
            failed_requests=1,
        )
    )
    return checks


def failed_batches(checks: List[Check], result) -> int:
    """Measured batches that raised, returned a non-finite loss, or belong
    to a variant failing any of its checks."""
    bad_variants = {c.variant for c in checks if not c.ok and c.variant}
    total = 0
    for name, run in result.runs.items():
        total += run.attempted if name in bad_variants else run.failed
    return total


def failed_requests(checks: List[Check]) -> int:
    return sum(c.failed_requests for c in checks if not c.ok)
