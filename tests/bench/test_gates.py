"""`repro bench gate`: declared variants and gates, over a toy benchmarks
dir and over the real one with the committed ``BENCH_results.json``."""

import copy
import json
import os
import sys

import pytest

from repro.bench import (
    benchmark_entries,
    discover_benchmarks,
    unregister_benchmark,
    validate_results,
)
from repro.cli import main

REPO = os.path.join(os.path.dirname(__file__), "..", "..")
REAL_DIR = os.path.abspath(os.path.join(REPO, "benchmarks"))
COMMITTED = os.path.abspath(os.path.join(REPO, "BENCH_results.json"))

BENCH_MODULE = '''
"""Toy gated benchmark module."""

from repro.bench import register_benchmark


def new_path_is_faster(records):
    speedup = records["new"]["extra"]["speedup"]
    assert speedup > 1.0, f"new path is no faster ({speedup:.2f}x)"


def wall_times_say_so_too(records):
    ratio = records["old"]["wall_time_s"] / records["new"]["wall_time_s"]
    assert ratio > 1.0, f"wall times disagree ({ratio:.2f}x)"


@register_benchmark("t-gate-toy", variants=("old", "new"),
                    gates=(new_path_is_faster, wall_times_say_so_too))
def compute(ctx):
    """Toy gated benchmark."""
    ctx.record(variant="old", wall_time_s=2.0)
    ctx.record(variant="new", wall_time_s=1.0, speedup=2.0)
'''


def _dump(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """(benchmarks dir, results document of one quick run of it)."""
    path = tmp_path_factory.mktemp("gatebench")
    (path / "bench_t_gate_toy.py").write_text(BENCH_MODULE)
    out = str(path / "results.json")
    assert main([
        "bench", "run", "--dir", str(path), "--only", "t-gate-toy",
        "--quick", "--quiet", "--no-log", "--output", out,
    ]) == 0
    yield str(path), json.load(open(out))
    unregister_benchmark("t-gate-toy")


def test_gate_passes_when_gates_hold(toy, tmp_path, capsys):
    bench_dir, doc = toy
    path = _dump(tmp_path / "ok.json", doc)
    assert main(["bench", "gate", path, "--dir", bench_dir]) == 0
    assert "gates hold" in capsys.readouterr().out


def test_gate_names_the_benchmark_and_the_failed_assertion(
        toy, tmp_path, capsys):
    bench_dir, doc = toy
    doc = copy.deepcopy(doc)
    for record in doc["records"]:
        if record["variant"] == "new":
            record["extra"]["speedup"] = 0.5
    path = _dump(tmp_path / "slow.json", doc)
    assert main(["bench", "gate", path, "--dir", bench_dir]) == 1
    err = capsys.readouterr().err
    assert "t-gate-toy" in err
    assert "new_path_is_faster" in err
    assert "new path is no faster (0.50x)" in err


def test_gate_reports_a_corrupt_record_by_name(toy, tmp_path, capsys):
    bench_dir, doc = toy
    doc = copy.deepcopy(doc)
    for record in doc["records"]:
        if record["variant"] == "new":
            record["wall_time_s"] = 0.0  # the gate divides by it
    path = _dump(tmp_path / "corrupt.json", doc)
    assert main(["bench", "gate", path, "--dir", bench_dir]) == 1
    err = capsys.readouterr().err
    assert "t-gate-toy" in err and "wall_times_say_so_too" in err
    assert "ZeroDivisionError" in err


def test_gate_names_a_missing_declared_variant(toy, tmp_path, capsys):
    bench_dir, doc = toy
    doc = dict(doc, records=[
        r for r in doc["records"] if r["variant"] != "old"
    ])
    path = _dump(tmp_path / "missing.json", doc)
    assert main(["bench", "gate", path, "--dir", bench_dir]) == 1
    err = capsys.readouterr().err
    assert "t-gate-toy" in err and "'old'" in err


def test_gate_rejects_records_of_an_unregistered_benchmark(
        toy, tmp_path, capsys):
    bench_dir, doc = toy
    doc = copy.deepcopy(doc)
    doc["records"][0]["benchmark"] = "t-gate-deleted-script"
    path = _dump(tmp_path / "stale.json", doc)
    assert main(["bench", "gate", path, "--dir", bench_dir]) == 1
    assert "t-gate-deleted-script" in capsys.readouterr().err


# -- the real benchmarks dir and the committed perf trajectory ------------
@pytest.fixture(scope="module")
def real_entries():
    discover_benchmarks(REAL_DIR)
    return [
        e for e in benchmark_entries()
        if os.path.dirname(
            os.path.abspath(sys.modules[e.fn.__module__].__file__)
        ) == REAL_DIR
    ]


@pytest.fixture(scope="module")
def committed():
    return json.load(open(COMMITTED))


def test_committed_results_are_one_valid_run(real_entries, committed):
    assert validate_results(committed) == []
    assert committed["tier"] == "quick"
    # Regenerated whole: one revision stamps the envelope and every record.
    assert {r["git_rev"] for r in committed["records"]} == {
        committed["git_rev"]
    }
    registered = {e.name for e in real_entries}
    assert {r["benchmark"] for r in committed["records"]} <= registered
    for entry in real_entries:
        if "full-only" in entry.tags:
            continue
        variants = {
            r["variant"] for r in committed["records"]
            if r["benchmark"] == entry.name
        }
        assert variants, f"{entry.name} has no committed record"
        assert set(entry.variants) <= variants, entry.name


def test_committed_results_pass_their_gates(
        real_entries, committed, tmp_path, capsys):
    assert main(["bench", "gate", COMMITTED, "--dir", REAL_DIR]) == 0
    # One corrupted gated value is enough to fail the gate by name.
    doc = copy.deepcopy(committed)
    for record in doc["records"]:
        if record["benchmark"] == "sharding" \
                and record["variant"] == "devices_4":
            record["extra"]["speedup"] = 1.0
    path = _dump(tmp_path / "corrupt.json", doc)
    capsys.readouterr()
    assert main(["bench", "gate", path, "--dir", REAL_DIR]) == 1
    err = capsys.readouterr().err
    assert "sharding" in err and "4-device speedup 1.00 < 2.5" in err
    # A disturbed wall-clock run is unresolved, and only that: the floors
    # of the same benchmark are not read off it.
    doc = copy.deepcopy(committed)
    for record in doc["records"]:
        if record["variant"] == "raster+adam.numpy":
            record["extra"]["raster_spread"] = 1.3
            record["extra"]["raster_px_per_s"] *= 10  # would fail the floor
    path = _dump(tmp_path / "disturbed.json", doc)
    assert main(["bench", "gate", path, "--dir", REAL_DIR]) == 1
    err = capsys.readouterr().err
    assert "kernels: gate repeats_agree failed" in err
    assert "measurement unresolved" in err
    assert "native_clears_its_floors" not in err


def test_a_renderer_px_per_s_drop_fails_compare(committed, tmp_path, capsys):
    # The `kernels` raster records carry the step's throughput where
    # `compare` reads it, so a slower renderer is a regression by name.
    doc = copy.deepcopy(committed)
    for record in doc["records"]:
        if record["variant"] == "raster+adam.numpy":
            record["images_per_second"] *= 0.7
    path = _dump(tmp_path / "slow_renderer.json", doc)
    assert main(["bench", "compare", "--baseline", COMMITTED,
                 "--current", path]) == 1
    assert "kernels/raster+adam.numpy images_per_second" in (
        capsys.readouterr().out)
