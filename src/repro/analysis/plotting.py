"""Dependency-free ASCII plots for benchmark output.

The paper's Figures 5 and 15 are CDF plots; the benchmark harness prints
them as monospace charts so a tee'd run carries the curve shapes, not just
summary points.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

_MARKERS = "*o+x#@%&"


def ascii_cdf(
    curves: "Dict[str, tuple]",
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "CDF",
    x_max: float = None,
) -> str:
    """Render one or more CDF curves (x sorted ascending, y in [0, 1]).

    ``curves`` maps a label to ``(x_values, cdf_values)``.  Returns a
    multi-line string with a legend.
    """
    if not curves:
        return "(no curves)"
    xs_all = [np.asarray(x) for x, _ in curves.values()]
    finite_max = max((float(x.max()) for x in xs_all if x.size), default=1.0)
    hi = x_max if x_max is not None else finite_max
    hi = hi if hi > 0 else 1.0

    canvas = [[" "] * width for _ in range(height)]
    for k, (label, (x, y)) in enumerate(curves.items()):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0:
            continue
        marker = _MARKERS[k % len(_MARKERS)]
        for col in range(width):
            x_val = hi * (col + 0.5) / width
            pos = np.searchsorted(x, x_val, side="right")
            y_val = y[pos - 1] if pos > 0 else 0.0
            row = height - 1 - int(round(y_val * (height - 1)))
            row = min(max(row, 0), height - 1)
            if canvas[row][col] == " ":
                canvas[row][col] = marker
    lines = []
    for i, row in enumerate(canvas):
        y_tick = 1.0 - i / (height - 1)
        prefix = f"{y_tick:4.1f} |" if i % 5 == 0 or i == height - 1 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      0{' ' * (width - 12)}{hi:.3g} ({x_label})")
    legend = "  ".join(
        f"{_MARKERS[k % len(_MARKERS)]}={label}"
        for k, label in enumerate(curves)
    )
    lines.append(f"      {legend}   (y: {y_label})")
    return "\n".join(lines)
