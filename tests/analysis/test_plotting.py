"""ASCII plotting."""

import numpy as np

from repro.analysis.plotting import ascii_cdf


def test_cdf_renders_curve():
    x = np.linspace(0, 1, 50)
    out = ascii_cdf({"a": (x, x)}, width=40, height=10)
    lines = out.splitlines()
    assert len(lines) == 13  # canvas + axis + ticks + legend
    assert "*" in out
    assert "a" in lines[-1]


def test_cdf_multiple_curves_distinct_markers():
    x = np.linspace(0, 1, 20)
    out = ascii_cdf({"one": (x, x), "two": (x, np.sqrt(x))})
    assert "*" in out and "o" in out
    assert "*=one" in out and "o=two" in out


def test_cdf_steeper_curve_rises_earlier():
    x = np.linspace(0, 1, 100)
    steep = np.minimum(1.0, 5 * x)
    out = ascii_cdf({"steep": (x, steep), "flat": (x, x)}, width=40, height=10)
    # In the top row, the steep curve's marker appears left of the flat one.
    top = out.splitlines()[0]
    assert "*" in top
    assert top.index("*") < (top.index("o") if "o" in top else 999)


def test_cdf_empty():
    assert ascii_cdf({}) == "(no curves)"
    out = ascii_cdf({"e": (np.array([]), np.array([]))})
    assert "e" in out