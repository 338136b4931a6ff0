"""`BENCHMARK.json`, the catalogue and what a run prints agree."""

import json
import re

import pytest

from bench_e2e import catalog, driver

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((driver.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_catalogue(declared):
    assert declared == catalog.benchmark_json()


def test_benchmark_json_meets_the_driver_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["bench_e2e"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    names = [w["name"] for w in declared["workloads"]]
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in declared["end_to_end"] + declared["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert len(json.dumps(declared)) < 64 * 1024


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_prints_exactly_the_declared_metrics(declared, trace):
    result = driver.run_workload("dense", seed=0, seconds=1, trace=trace, smoke=True)
    line = json.loads(result.contract_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert not result.comparable  # smoke numbers are marked as such


def test_readme_documents_every_metric_and_workload(declared):
    readme = (driver.ROOT / "bench_e2e" / "README.md").read_text()
    for workload in declared["workloads"]:
        assert f"`{workload['name']}`" in readme
    for m in declared["end_to_end"] + declared["per_layer"]:
        stem, _, suffix = m["name"].rpartition(".")
        listed_with_siblings = (
            any(f"`{stem}.{other}`, `.{suffix}`" in readme
                for other in ("lo", "sat", "hi"))
        )
        assert f"`{m['name']}`" in readme or listed_with_siblings, m["name"]
