"""Table rendering and results logging."""

import json


from repro.analysis.reporting import ResultsLog, format_table


def read_all(log):
    """Every record of ``log``'s JSONL file, oldest first."""
    with open(log.path) as f:
        return [json.loads(line) for line in f if line.strip()]


def test_format_table_alignment():
    out = format_table(
        ["scene", "img/s"],
        [["bigcity", 88.3], ["bicycle", 6.4]],
        title="Throughput",
    )
    lines = out.splitlines()
    assert lines[0] == "Throughput"
    assert "scene" in lines[1] and "img/s" in lines[1]
    assert len(lines) == 5
    # Columns align: every row has the same prefix width for column 2.
    col = lines[1].index("img/s")
    assert lines[3][col - 2 : col] == "  "


def test_format_table_float_formatting():
    out = format_table(["x"], [[1.23456]], floatfmt="{:.1f}")
    assert "1.2" in out and "1.23" not in out


def test_format_table_handles_ints_and_strings():
    out = format_table(["a", "b"], [[1, "OOM"]])
    assert "OOM" in out


def test_results_log_roundtrip(tmp_path):
    log = ResultsLog(str(tmp_path / "r.jsonl"))
    log.record("fig8", {"scene": "bigcity", "max_n": 102.2})
    log.record("fig8", {"scene": "rubble", "max_n": 45.2})
    entries = read_all(log)
    assert len(entries) == 2
    assert entries[0]["scene"] == "bigcity"
    assert all(e["experiment"] == "fig8" for e in entries)


def test_results_log_creates_directory(tmp_path):
    path = tmp_path / "deep" / "dir" / "r.jsonl"
    log = ResultsLog(str(path))
    log.record("x", {})
    assert path.exists()


def test_results_log_valid_jsonl(tmp_path):
    path = tmp_path / "r.jsonl"
    log = ResultsLog(str(path))
    log.record("x", {"a": [1, 2]})
    with open(path) as f:
        for line in f:
            json.loads(line)


def test_results_log_rotation_bounds_file(tmp_path):
    path = tmp_path / "r.jsonl"
    log = ResultsLog(str(path), max_bytes=4096)
    for i in range(200):
        log.record("x", {"i": i, "pad": "p" * 50})
    assert path.stat().st_size <= 4096
    entries = read_all(log)
    # Newest entries survive, oldest age out.
    assert entries[-1]["i"] == 199
    assert entries[0]["i"] > 0
    # Everything on disk is still one JSON object per line.
    indices = [e["i"] for e in entries]
    assert indices == sorted(indices)


def test_results_log_rotation_keeps_an_oversized_entry(tmp_path):
    path = tmp_path / "r.jsonl"
    log = ResultsLog(str(path), max_bytes=200)
    log.record("big", {"pad": "p" * 500})
    entries = read_all(log)
    assert len(entries) == 1
    assert entries[0]["experiment"] == "big"


def test_results_log_rotation_disabled(tmp_path):
    path = tmp_path / "r.jsonl"
    log = ResultsLog(str(path), max_bytes=None)
    for i in range(50):
        log.record("x", {"i": i, "pad": "p" * 100})
    assert len(read_all(log)) == 50
