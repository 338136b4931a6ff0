"""`python -m bench_e2e.repeat --sets 2` — does the ruler repeat?

Runs the whole benchmark (every workload, untraced) in back-to-back
sets, each run in a fresh process exactly as the driver invokes it, and
prints per end-to-end metric and workload every set's value, how much
worse than the first set the later ones are, and the metric's bound.
Exits non-zero when a difference exceeds its bound or a run is incorrect.

With `--seeds N` every set runs N seeds (`--seed`, `--seed`+1, ...); a
set's value is then the median over its seeds and its *spread* (distance
between the quartiles over the median) is printed and held to the bound
too — `--sets 2 --seeds 10` is the driver's own acceptance test.

Calibration rule: if a timed metric exceeds its bound at the default
sizes, lengthen the run (up to 2x, `--seconds 60`) before anything else;
if it still does, move the metric to the per-layer list under its layer
prefix and say so in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench_e2e import catalog  # noqa: E402
from bench_e2e.stats import relative_spread  # noqa: E402

#: The driver's own limit on one run.
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One driver-style invocation; returns the parsed contract line."""
    command = [
        sys.executable, str(ROOT / "bench_e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def worse_by(metric: catalog.Metric, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`
    (negative: better)."""
    change = (later - first) / abs(first)
    return -change if metric.better == "higher" else change


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_e2e.repeat", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=1,
                        help="seeds per set (>= 4 also checks the spread)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    args = parser.parse_args(argv)

    # samples[workload][metric][set] = one value per seed
    samples: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m.name: [[] for _ in range(args.sets)] for m in catalog.END_TO_END}
        for w in catalog.WORKLOADS
    }
    problems: List[str] = []
    for index in range(args.sets):
        for workload in catalog.WORKLOADS:
            for seed in range(args.seed, args.seed + args.seeds):
                result = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["exit_code"] != 0:
                    problems.append(
                        f"INCORRECT: set {index + 1}, {workload}, seed {seed}"
                    )
                for name, entry in result["metrics"].items():
                    samples[workload][name][index].append(entry["value"])
            print(f"set {index + 1}/{args.sets}: {workload} done", flush=True)

    with_spread = args.seeds >= 4
    header = f"{'workload':<8} {'metric':<30} " + " ".join(
        f"{'set ' + str(i + 1):>12}" for i in range(args.sets)
    ) + f" {'worse by':>9}"
    if with_spread:
        header += f" {'spread':>7}"
    print(header + f" {'bound':>6}")
    for workload, by_metric in samples.items():
        for metric in catalog.END_TO_END:
            medians = [statistics.median(v) for v in by_metric[metric.name]]
            worst = max(
                (worse_by(metric, medians[0], m) for m in medians[1:]),
                default=0.0,
            )
            row = (
                f"{workload:<8} {metric.name:<30} "
                + " ".join(f"{m:>12.6g}" for m in medians)
                + f" {worst:>+9.3f}"
            )
            if worst > metric.bound:
                problems.append(f"EXCEEDS BOUND: {workload} {metric.name}")
            if with_spread:
                spread = max(relative_spread(v) for v in by_metric[metric.name])
                row += f" {spread:>7.3f}"
                # The driver holds every spread but set-up's to the bound.
                if spread > metric.bound and metric.name != "setup_s":
                    problems.append(f"UNSTEADY: {workload} {metric.name}")
            print(row + f" {metric.bound:>6.2f}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
