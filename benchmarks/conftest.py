"""Shared benchmark fixtures — and the rule for what lives in this directory.

**The keep/delete rule.**  ``bench_e2e/`` is the repository's ruler: it
measures a real ``TrainingSession`` and ``ServingSession`` end to end and
attributes every second to a named layer.  A script stays here only if it

- reproduces a paper figure, table, appendix or §8 extension from the
  simulator or the analytic models (``fig5``, ``fig8``–``fig15``,
  ``table2/5/6/7``, ``appendix_tsp``, ``appendix_fragmentation``,
  ``ablation_features``, ``extension_spatial_culling``, ``sharding``), or
- isolates a layer the ruler can only see inside a session (``kernels``:
  per-backend px/s and ``exact_cull`` rows/s; ``planner``: the set
  algebra against the constructions it replaced).

A script goes if ``bench_e2e`` already reports the same layer by name, or
if every pass/fail assertion it makes is a Tier-1 test.  What stays
declares its contract where it is defined —
``register_benchmark(..., variants=(...), gates=(...))`` — and ``repro
bench gate`` checks a results file against it; wall-clock records use
``repro.bench.median_time`` (warm-up, median of N, spread in ``extra``),
simulator-derived ones are deterministic and single-shot.

The pytest entry points are thin wrappers: every benchmark's
``compute(ctx)`` is registered with :mod:`repro.bench` (so ``repro bench
run`` executes the same code without pytest), and the tests here run it at
the **full** tier — the scale the paper-shape assertions were calibrated
at (2e-4 of paper Gaussian counts, up to 256 views) — then assert the
figure/table shapes.

Scenes and culling indexes are cached on the session-scoped context; raw
rows are appended to ``results/experiments.jsonl`` (rotated) so
EXPERIMENTS.md can quote a real run.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.analysis.reporting import ResultsLog
from repro.bench import FULL_TIER, BenchContext


@pytest.fixture(scope="session")
def bench_ctx():
    """Full-tier benchmark context shared across the pytest session."""
    return BenchContext(
        FULL_TIER,
        seed=0,
        results_log=ResultsLog(
            os.path.join(
                os.path.dirname(__file__), "..", "results",
                "experiments.jsonl",
            )
        ),
    )
