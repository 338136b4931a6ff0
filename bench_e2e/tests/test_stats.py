import statistics

import pytest

from bench_e2e import stats


@pytest.mark.parametrize(
    "n, expected",
    [(19, 50.0), (40, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (400, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    picked = stats.tail_percentile(n)
    assert picked == expected


def test_summarize_reports_median_quartiles_and_count():
    s = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
    assert (s["q1"], s["q3"]) == (q1, q3)


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
