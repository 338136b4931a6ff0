"""repro.bench — registry-driven benchmark orchestration.

The perf counterpart of :mod:`repro.engines`: benchmarks self-register
with :func:`register_benchmark`, a :class:`BenchRunner` executes them at a
tier (``quick`` for CI smoke, ``full`` for the paper-shape suite), every
run emits schema-validated :class:`BenchRecord` rows into
``BENCH_results.json``, :func:`check_gates` holds them to the contracts
the benchmarks declared, and :func:`compare_results` gates regressions
against a baseline::

    from repro.bench import BenchRunner, discover_benchmarks

    discover_benchmarks("benchmarks")
    report = BenchRunner(tier="quick").run()

or from a shell: ``repro bench [list|run|validate|gate|compare]``.
"""

from repro.bench.compare import (
    CompareReport,
    CompareThresholds,
    compare_results,
)
from repro.bench.context import BenchContext
from repro.bench.params import (
    FULL_TIER,
    PAPER_MODEL_SIZES,
    QUICK_TIER,
    TIERS,
    BenchTier,
    resolve_tier,
)
from repro.bench.record import (
    BENCH_RECORD_SCHEMA,
    BENCH_RESULTS_SCHEMA,
    RESULTS_SCHEMA_VERSION,
    BenchRecord,
    dump_results,
    git_revision,
    load_results,
    results_document,
    validate_record,
    validate_results,
)
from repro.bench.registry import (
    BenchmarkEntry,
    DuplicateBenchmarkError,
    UnknownBenchmarkError,
    available_benchmarks,
    benchmark_entries,
    check_gates,
    get_benchmark,
    register_benchmark,
    unregister_benchmark,
)
from repro.bench.runner import (
    BenchReport,
    BenchRunner,
    default_benchmarks_dir,
    discover_benchmarks,
)
from repro.bench.timing import median_spread, median_time, repeats_agree

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "BENCH_RESULTS_SCHEMA",
    "RESULTS_SCHEMA_VERSION",
    "BenchContext",
    "BenchRecord",
    "BenchReport",
    "BenchRunner",
    "BenchTier",
    "BenchmarkEntry",
    "CompareReport",
    "CompareThresholds",
    "DuplicateBenchmarkError",
    "FULL_TIER",
    "PAPER_MODEL_SIZES",
    "QUICK_TIER",
    "TIERS",
    "UnknownBenchmarkError",
    "available_benchmarks",
    "benchmark_entries",
    "check_gates",
    "compare_results",
    "default_benchmarks_dir",
    "discover_benchmarks",
    "dump_results",
    "get_benchmark",
    "git_revision",
    "load_results",
    "median_spread",
    "median_time",
    "register_benchmark",
    "repeats_agree",
    "resolve_tier",
    "results_document",
    "unregister_benchmark",
    "validate_record",
    "validate_results",
]
