"""`median_time`: the warm-up call is untimed, the median and its spread are
taken over the timed repeats only; `repeats_agree` reads the spreads."""

import itertools
from types import SimpleNamespace

import pytest

from repro.bench import median_time, repeats_agree, timing


def scripted_clock(monkeypatch, durations):
    """A clock on which the k-th timed call takes ``durations[k]``."""
    durations = iter(durations)
    ticks = itertools.count()
    now = [0.0]

    def perf_counter():
        if next(ticks) % 2:  # every second reading closes a repeat
            now[0] += next(durations)
        return now[0]

    monkeypatch.setattr(
        timing, "time", SimpleNamespace(perf_counter=perf_counter))


def test_median_time_skips_warmup_and_reports_spread(monkeypatch):
    scripted_clock(monkeypatch, [1.0, 2.0, 3.0, 4.0])
    calls = []
    median_s, spread, result = median_time(
        lambda: calls.append(1) or len(calls), repeats=4)
    assert len(calls) == 5 and result == 5  # 1 untimed + 4 timed
    assert median_s == pytest.approx(2.5)
    assert spread == pytest.approx(1.0 / 2.5)  # deviations .5 .5 1.5 1.5


def test_median_time_of_a_steady_thunk_has_no_spread(monkeypatch):
    scripted_clock(monkeypatch, [1.0, 1.0, 1.0])
    assert median_time(lambda: None, repeats=3)[1] == 0.0


def test_a_stalled_minority_moves_neither_median_nor_spread(monkeypatch):
    # Two of five repeats stall (what a waking BLAS pool does to the first
    # calls); the three that agree carry the estimate.
    scripted_clock(monkeypatch, [0.462, 0.190, 0.024, 0.023, 0.023])
    median_s, spread, _ = median_time(lambda: None, repeats=5)
    assert median_s == pytest.approx(0.024)
    assert spread < 0.05


def test_repeats_agree_names_the_disturbed_timing():
    steady = {"a": {"extra": {"spread": 0.1, "raster_spread": 0.49}},
              None: {"extra": {}}}
    repeats_agree(steady)
    steady["a"]["extra"]["raster_spread"] = 1.3
    with pytest.raises(AssertionError, match="a raster_spread 1.30"):
        repeats_agree(steady)
