"""The benchmark registry — ``repro.engines.registry``'s pattern applied
to performance experiments.

Benchmark modules self-register their ``compute`` function together with
the contract its records must meet::

    @register_benchmark("sharding", figure="ROADMAP item 2",
                        variants=("devices_1", "devices_4"),
                        gates=(scaling_clears_the_bar,))
    def compute(ctx):
        ...

and consumers (the :class:`~repro.bench.runner.BenchRunner`, the
``repro bench`` CLI, the pytest wrappers) look them up by name.  The
registered callable takes one argument — a
:class:`~repro.bench.context.BenchContext` — and returns its raw output
(tables/rows) for the pytest shape assertions; measured metrics flow out
through ``ctx.record(...)``.  :func:`check_gates` holds a results
document to every registered contract (``repro bench gate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


class DuplicateBenchmarkError(ValueError):
    """Raised when two benchmarks register under the same name."""


class UnknownBenchmarkError(ValueError):
    """Raised by :func:`get_benchmark` for names not in the registry."""


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    fn: Callable
    figure: str
    tags: Tuple[str, ...]
    description: str
    #: Record variants a run of this benchmark must emit.
    variants: Tuple[str, ...] = ()
    #: Plain functions over ``{variant: record dict}`` that ``assert``.
    gates: Tuple[Callable, ...] = ()


_REGISTRY: Dict[str, BenchmarkEntry] = {}


def register_benchmark(
    name: str,
    *,
    figure: str = "",
    tags: Tuple[str, ...] = (),
    description: str = "",
    variants: Tuple[str, ...] = (),
    gates: Tuple[Callable, ...] = (),
):
    """Decorator adding a ``compute(ctx)`` callable to the registry.

    ``figure`` names the paper figure/table the benchmark reproduces;
    ``tags`` are free-form labels for selection (the runner skips
    ``"full-only"``-tagged benchmarks at the quick tier); ``description``
    defaults to the function's first docstring line.  ``variants`` and
    ``gates`` are the benchmark's contract, checked by :func:`check_gates`:
    the record variants every run must emit, and functions that take the
    run's ``{variant: record dict}`` and ``assert`` what must hold of it.
    """

    def decorator(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise DuplicateBenchmarkError(
                f"benchmark '{name}' is already registered "
                f"(by {_REGISTRY[name].fn!r})"
            )
        summary = description or (fn.__doc__ or "").strip().split("\n")[0]
        _REGISTRY[name] = BenchmarkEntry(
            name, fn, figure, tuple(tags), summary, tuple(variants),
            tuple(gates),
        )
        return fn

    return decorator


def unregister_benchmark(name: str) -> None:
    """Remove a registered benchmark (tests/plugins)."""
    _REGISTRY.pop(name, None)


def available_benchmarks() -> Tuple[str, ...]:
    """Registered benchmark names, in registration order."""
    return tuple(_REGISTRY)


def benchmark_entries() -> Tuple[BenchmarkEntry, ...]:
    return tuple(_REGISTRY.values())


def get_benchmark(name: str) -> BenchmarkEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBenchmarkError(
            f"unknown benchmark '{name}'; choose from {available_benchmarks()}"
        ) from None


def check_gates(doc: Dict) -> List[str]:
    """Problems of a results document against the registered contracts.

    Every record must belong to a registered benchmark; every benchmark
    with records in ``doc`` must have its declared variants present and its
    gates passing (in declared order, stopping at its first failure); one
    the run did not select is not judged.  Each problem names the
    benchmark and the missing variant or the failed assertion.
    """
    by_benchmark: Dict[str, Dict] = {}
    for record in doc.get("records", ()):
        variants = by_benchmark.setdefault(record["benchmark"], {})
        variants[record.get("variant")] = record
    problems = []
    for name, records in by_benchmark.items():
        entry = _REGISTRY.get(name)
        if entry is None:
            problems.append(f"{name}: records of an unregistered benchmark")
            continue
        missing = [v for v in entry.variants if v not in records]
        if missing:
            problems.append(f"{name}: missing variants {missing}")
            continue
        for gate in entry.gates:
            try:
                gate(records)
            except Exception as exc:  # a corrupt record fails by name too
                problems.append(
                    f"{name}: gate {gate.__name__} failed: "
                    f"{type(exc).__name__}: {exc}"
                )
                break
    return problems
