"""One benchmark run: a workload, a seed, tracing on or off.

`run_workload` returns a `RunResult` holding exactly the metrics the
catalogue declares for that mode — every end-to-end metric with tracing
off, every per-layer metric with tracing on — plus the check list and
the attempted / failed operation counts.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench_e2e import calibrate, catalog, checks, layers, serving, training
from bench_e2e import spans as sp
from bench_e2e import workloads as wl
from bench_e2e.run import ROOT, THREAD_VARS

RESULTS_DIR = ROOT / "results" / "bench_e2e"


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    comparable: bool
    metrics: Dict[str, float]
    checks: List[checks.Check]
    attempted: int
    failed: int
    #: Free-form extras for the results file (quartiles, gaps, ...).
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks) and self.failed == 0

    def contract_line(self) -> str:
        """The driver contract's last stdout line."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    m.name: {"value": self.metrics[m.name], "unit": m.unit}
                    for m in catalog.declared(self.trace)
                },
            }
        )

    def file_stem(self) -> str:
        """Results-file name stem; smoke runs never overwrite real ones."""
        stem = f"{self.workload}-seed{self.seed}"
        return stem if self.comparable else stem + "-smoke"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
@dataclass
class SetUp:
    train_inputs: wl.TrainInputs
    serve_inputs: wl.ServeInputs
    sessions: Dict[str, object]


def set_up(workload: wl.Workload, seed: int, first_batch: List[int]) -> SetUp:
    """Everything between process start and the first results: scene
    synthesis, every training session, the first `clm` batch, the served
    model, a serving session and its first image."""
    from repro.serving import RenderRequest

    train_inputs = wl.build_train_inputs(workload.train, seed)
    sessions = {
        v: training.make_session(v, workload.train, train_inputs)
        for v in catalog.TRAIN_VARIANTS
    }
    sessions["clm"].train_batch(first_batch)
    serve_inputs = wl.build_serve_inputs(workload.serve)
    sess = serving.make_serving_session(serve_inputs, queue_capacity=1)
    camera = serve_inputs.cameras[0]
    sess.render_request(
        RenderRequest(
            request_id=0, view_id=camera.view_id, camera=camera,
            arrival_s=0.0, slo_s=wl.SLO_S,
        )
    )
    return SetUp(train_inputs, serve_inputs, sessions)


def timed_set_ups(
    workload: wl.Workload,
    seed: int,
    sizes: wl.Sizes,
    reference: calibrate.Reference,
) -> Tuple[SetUp, List[float]]:
    """Set up `sizes.setup_repeats` times from cold objects; returns the
    last set-up (its sessions go on to be measured) and every repeat's
    calibrated seconds."""
    first_batch = wl.batch_schedule(workload.train, seed, 1)[0]
    walls: List[float] = []
    last: Optional[SetUp] = None
    before = reference.sample()
    for _ in range(sizes.setup_repeats):
        if last is not None:
            for sess in last.sessions.values():
                training.close_session(sess)
        start = time.perf_counter()
        last = set_up(workload, seed, first_batch)
        wall = time.perf_counter() - start
        after = reference.sample()
        walls.append(wall / calibrate.slowdown(before, after))
        before = after
    return last, walls


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------
def run_end_to_end(
    workload: wl.Workload, seed: int, sizes: wl.Sizes
) -> RunResult:
    reference = calibrate.Reference()
    setup, setup_walls = timed_set_ups(workload, seed, sizes, reference)
    try:
        train = training.run_training(
            workload.train, setup.train_inputs, sizes, seed, reference,
            sessions=setup.sessions, warmed=1,
        )
    finally:
        for sess in setup.sessions.values():
            training.close_session(sess)
    phases = serving.run_serving(
        workload.serve, setup.serve_inputs, sizes, seed, reference
    )

    all_checks = checks.training_checks(
        train, workload.train.clm_moves_less_than_naive
    ) + checks.serving_checks(phases, setup.serve_inputs)
    metrics = {"setup_s": statistics.median(setup_walls)}
    for variant in catalog.TRAIN_VARIANTS:
        metrics[f"images_per_s.{variant}"] = train.images_per_s[variant]["value"]
    metrics["transfer_bytes_per_image.clm"] = train.transfer_bytes_per_image["clm"]
    metrics["gpu_peak_bytes.clm"] = train.gpu_peak_bytes
    metrics["psnr_db.clm"] = train.psnr_db
    metrics.update(serving.end_to_end_metrics(phases))

    batches = sum(r.attempted for r in train.runs.values())
    requests = sum(p.offered for p in phases.values())
    failed = checks.failed_batches(all_checks, train) + min(
        requests, checks.failed_requests(all_checks)
    )
    details = {
        "machine_slowdown": reference.median_slowdown(),
        "setup_s.samples": setup_walls,
        "images_per_s": train.images_per_s,
        "transfer_bytes_per_image": train.transfer_bytes_per_image,
        "serving": {
            name: {
                "offered": p.offered,
                "served": len(p.done),
                "segments": len(p.segments),
                "wall_s": sum(s.report.wall_time_s for s in p.segments),
            }
            for name, p in phases.items()
        },
    }
    return RunResult(
        workload.name, seed, False, sizes.comparable, metrics, all_checks,
        attempted=batches + requests, failed=failed, details=details,
    )


def run_traced(workload: wl.Workload, seed: int, sizes: wl.Sizes) -> RunResult:
    recorder = sp.Recorder()
    reference = calibrate.Reference()
    start = time.perf_counter()
    train_inputs = wl.build_train_inputs(workload.train, seed)
    metrics = {"scenes.build_s": time.perf_counter() - start}
    trace = layers.trace_training(
        workload.train, train_inputs, sizes, seed, recorder, reference,
        scratch_dir=str(RESULTS_DIR),
    )
    metrics.update(trace.metrics)

    serve_inputs = wl.build_serve_inputs(workload.serve)
    # The RequestRecord-based serving metrics come from untraced phases.
    phases = serving.run_serving(
        workload.serve, serve_inputs, sizes, seed, reference
    )
    metrics.update(serving.layer_metrics(phases))
    metrics["calibration.slowdown"] = reference.median_slowdown()
    metrics.update(
        layers.trace_serving(workload.serve, serve_inputs, sizes, seed, recorder)
    )
    all_checks = trace.checks + checks.serving_checks(phases, serve_inputs)
    requests = sum(p.offered for p in phases.values())
    failed = trace.failed + min(requests, checks.failed_requests(all_checks))

    result = RunResult(
        workload.name, seed, True, sizes.comparable, metrics, all_checks,
        attempted=trace.attempted + requests, failed=failed,
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS_DIR / f"{result.file_stem()}.trace.json"
    recorder.write_chrome_trace(trace_path)
    result.details = {
        "largest_unattributed_gaps": [
            {"between": name, "share_of_batch": share}
            for name, share in trace.top_gaps
        ],
        "chrome_trace": str(trace_path.relative_to(ROOT)),
        "spans": len(recorder.spans),
    }
    return result


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> RunResult:
    workload = wl.get_workload(name, smoke=smoke)
    sizes = wl.Sizes.smoke() if smoke else wl.Sizes.for_seconds(seconds)
    run = run_traced if trace else run_end_to_end
    result = run(workload, seed, sizes)
    names = [m.name for m in catalog.declared(trace)]
    missing = [name for name in names if name not in result.metrics]
    extra = sorted(set(result.metrics) - set(names))
    if missing or extra:
        raise RuntimeError(
            f"metrics out of step with the catalogue: missing {missing}, "
            f"undeclared {extra}"
        )
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def run_metadata(seed: int) -> Dict[str, object]:
    import numpy
    from repro.kernels import resolve_backend

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "kernel_backend": resolve_backend(None).name,
    }


def format_report(result: RunResult) -> str:
    declared = catalog.declared(result.trace)
    mode = "per-layer (traced)" if result.trace else "end-to-end (untraced)"
    lines = [
        f"== {result.workload} · seed {result.seed} · {mode}"
        + ("" if result.comparable else " · SMOKE: numbers not comparable")
    ]
    width = max(len(m.name) for m in declared)
    for m in declared:
        value = result.metrics[m.name]
        extra = ""
        if m.name.startswith("images_per_s."):
            s = result.details["images_per_s"][m.name.split(".", 1)[1]]
            extra = (
                f"   calibrated batch q1/median/q3 = {s['q1'] * 1e3:.1f}/"
                f"{s['median'] * 1e3:.1f}/{s['q3'] * 1e3:.1f} ms, n={s['n']}"
                f" (raw median {s['raw_median'] * 1e3:.1f} ms)"
            )
        shown = "nan" if math.isnan(value) else f"{value:.6g}"
        lines.append(f"  {m.name:<{width}}  {shown:>12} {m.unit}{extra}")
    for gap in result.details.get("largest_unattributed_gaps", []):
        lines.append(
            f"  unattributed: {gap['between']:<40} "
            f"{100 * gap['share_of_batch']:.2f}% of batch"
        )
    if "machine_slowdown" in result.details:
        lines.append(
            "  machine slowdown while measuring: "
            f"{result.details['machine_slowdown']:.3f}x the reference's nominal"
        )
    bad = [c for c in result.checks if not c.ok]
    lines.append(
        f"  checks: {len(result.checks) - len(bad)}/{len(result.checks)} ok, "
        f"attempted {result.attempted}, failed {result.failed}"
    )
    for c in bad:
        last_line = (c.detail.strip().splitlines() or [""])[-1]
        lines.append(f"  FAILED {c.name}: {last_line}")
    return "\n".join(lines)


def write_result(result: RunResult) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    mode = "trace" if result.trace else "e2e"
    path = RESULTS_DIR / f"{result.file_stem()}-{mode}.json"
    payload = {
        "workload": result.workload,
        "mode": mode,
        "comparable": result.comparable,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in result.checks
        ],
        "details": result.details,
        "metadata": run_metadata(result.seed),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_e2e.run",
        description="End-to-end benchmark: training + serving workloads, "
        "end-to-end metrics untraced, per-layer metrics from a traced pass.",
    )
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="seconds one run measures (scales work counts)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end only, 1: traced pass only "
                        "(default: both, untraced first)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenes, checks on, numbers not comparable")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    modes = [args.trace == "1"] if args.trace else [False, True]
    results = []
    for name in names:
        for trace in modes:
            result = run_workload(
                name, args.seed, args.seconds, trace, smoke=args.smoke
            )
            print(format_report(result))
            print(f"  written: {write_result(result).relative_to(ROOT)}")
            sys.stdout.flush()
            results.append(result)
    if len(results) == 1:
        print(results[0].contract_line())
    else:
        print(json.dumps({
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "runs": [
                {"workload": r.workload, "trace": int(r.trace),
                 **json.loads(r.contract_line())}
                for r in results
            ],
        }))
    return 0 if all(r.correct for r in results) else 1
