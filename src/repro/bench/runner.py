"""`BenchRunner` — discover registered benchmarks and execute a tier.

Discovery imports every ``bench_*.py`` module from the benchmarks
directory (they self-register at import, exactly like the engine modules
do); running executes each registered ``compute(ctx)`` with a shared
:class:`~repro.bench.context.BenchContext`, times it, and completes the
context's metric points into validated
:class:`~repro.bench.record.BenchRecord` rows.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.context import BenchContext
from repro.bench.params import resolve_tier
from repro.bench.record import (
    BenchRecord,
    git_revision,
    validate_record,
)
from repro.bench.registry import (
    available_benchmarks,
    benchmark_entries,
    get_benchmark,
)


def default_benchmarks_dir() -> Optional[str]:
    """Locate the repo's ``benchmarks/`` directory.

    Tries the current working directory first (the common case: running
    from a checkout), then the checkout the installed package lives in
    (editable installs).  Returns ``None`` when neither exists.
    """
    candidates = [os.path.join(os.getcwd(), "benchmarks")]
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/bench -> repo root
    candidates.append(
        os.path.normpath(os.path.join(here, "..", "..", "..", "benchmarks"))
    )
    for path in candidates:
        if os.path.isdir(path):
            return path
    return None


def discover_benchmarks(directory: Optional[str] = None) -> tuple:
    """Import every ``bench_*.py`` under ``directory`` so registrations
    run; returns :func:`available_benchmarks` afterwards.

    Modules are imported under their file stem through the normal import
    machinery (``sys.modules`` caching), so repeated discovery — or a
    pytest session that already imported them — never re-registers.
    """
    directory = directory or default_benchmarks_dir()
    if directory is None:
        raise FileNotFoundError(
            "no benchmarks directory found; pass --dir or run from the "
            "repository root"
        )
    directory = os.path.abspath(directory)
    if directory not in sys.path:
        sys.path.insert(0, directory)
    for filename in sorted(os.listdir(directory)):
        if filename.startswith("bench_") and filename.endswith(".py"):
            importlib.import_module(filename[:-3])
    return available_benchmarks()


@dataclass
class BenchFailure:
    benchmark: str
    error: str
    trace: str


@dataclass
class BenchReport:
    """Everything one :meth:`BenchRunner.run` call produced."""

    tier: str
    seed: int
    git_rev: str
    records: List[BenchRecord] = field(default_factory=list)
    failures: List[BenchFailure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def schema_errors(self) -> List[str]:
        errors: List[str] = []
        for record in self.records:
            errors.extend(validate_record(record.to_dict()))
        return errors


class BenchRunner:
    """Execute registered benchmarks at one tier.

    ``tier`` is ``"quick"``/``"full"`` (or a
    :class:`~repro.bench.params.BenchTier`); benchmarks tagged
    ``"full-only"`` are skipped at the quick tier unless named explicitly.
    """

    def __init__(
        self,
        tier="quick",
        *,
        seed: int = 0,
        quiet: bool = False,
        results_log=None,
    ) -> None:
        self.tier = resolve_tier(tier)
        self.seed = seed
        self.quiet = quiet
        self.results_log = results_log

    def select(self, only: Optional[Sequence[str]] = None):
        """The benchmark entries a run would execute, in registration order.

        ``only`` tokens match registered names exactly first, then as
        substrings (``repro bench run --only fig``).  A token matching
        nothing raises :class:`UnknownBenchmarkError`.
        """
        if only:
            names = available_benchmarks()
            chosen = set()
            for token in only:
                if token in names:
                    chosen.add(token)
                    continue
                matches = [n for n in names if token in n]
                if not matches:
                    # Exact-name error path keeps the registry's message.
                    get_benchmark(token)
                chosen.update(matches)
            return tuple(get_benchmark(n) for n in names if n in chosen)
        entries = benchmark_entries()
        if self.tier.name == "quick":
            entries = tuple(
                e for e in entries if "full-only" not in e.tags
            )
        return entries

    def run(self, only: Optional[Sequence[str]] = None) -> BenchReport:
        from repro.kernels import resolve_backend_name

        # One auto-resolution per suite run: records whose benchmarks did
        # not pin a backend are attributed to the backend the engines
        # would pick (auto selection + REPRO_KERNEL_BACKEND override).
        self._kernel_backend = resolve_backend_name(None)
        git_rev = git_revision()
        report = BenchReport(
            tier=self.tier.name, seed=self.seed, git_rev=git_rev
        )
        ctx = BenchContext(
            self.tier,
            seed=self.seed,
            results_log=self.results_log,
            quiet=self.quiet,
        )
        suite_start = time.perf_counter()
        for entry in self.select(only):
            start = time.perf_counter()
            try:
                entry.fn(ctx)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                ctx.drain_records()
                report.failures.append(
                    BenchFailure(
                        benchmark=entry.name,
                        error=f"{type(exc).__name__}: {exc}",
                        trace=traceback.format_exc(),
                    )
                )
                continue
            wall = time.perf_counter() - start
            points = ctx.drain_records()
            report.records.append(
                self._complete(entry, {"wall_time_s": wall}, wall, git_rev)
            )
            for point in points:
                report.records.append(
                    self._complete(entry, point, wall, git_rev)
                )
        report.wall_time_s = time.perf_counter() - suite_start
        return report

    def _complete(
        self, entry, point: Dict, bench_wall: float, git_rev: str
    ) -> BenchRecord:
        """Fill a context metric point into a full record."""
        wall = point.get("wall_time_s")
        return BenchRecord(
            benchmark=entry.name,
            figure=entry.figure or None,
            tier=self.tier.name,
            seed=self.seed,
            git_rev=git_rev,
            wall_time_s=bench_wall if wall is None else wall,
            scene=point.get("scene"),
            engine=point.get("engine"),
            variant=point.get("variant"),
            kernel_backend=(
                point.get("kernel_backend")
                or getattr(self, "_kernel_backend", None)
            ),
            images_per_second=point.get("images_per_second"),
            transfer_bytes=point.get("transfer_bytes"),
            psnr=point.get("psnr"),
            extra=point.get("extra", {}),
        )
