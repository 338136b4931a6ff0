"""Plain-text table rendering and experiment result logging.

The benchmark harness prints the same rows/series the paper's tables and
figures report and appends machine-readable records to ``results/`` so
EXPERIMENTS.md can be regenerated from a run.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
    floatfmt: str = "{:.2f}",
) -> str:
    """Monospace table with auto-sized columns."""

    def render(cell) -> str:
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class ResultsLog:
    """Append-mostly JSONL log of experiment records, with rotation.

    Every benchmark run appends here, so without a bound the file grows
    forever (and used to creep into commits).  ``max_bytes`` caps the file:
    when an append pushes it past the cap, the oldest lines are dropped
    until the newest ones fit in half the budget — recent runs survive,
    ancient ones age out.  ``max_bytes=None`` disables rotation.
    """

    def __init__(
        self,
        path: str = "results/experiments.jsonl",
        max_bytes: Optional[int] = 1_000_000,
    ) -> None:
        self.path = path
        self.max_bytes = max_bytes
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def record(self, experiment: str, data: Dict) -> None:
        entry = {"experiment": experiment, "timestamp": time.time(), **data}
        with open(self.path, "a") as f:
            f.write(json.dumps(entry) + "\n")
        self._rotate()

    def _rotate(self) -> None:
        """Drop oldest lines once the file exceeds ``max_bytes``."""
        if self.max_bytes is None:
            return
        try:
            if os.path.getsize(self.path) <= self.max_bytes:
                return
        except OSError:
            return
        with open(self.path) as f:
            lines = f.readlines()
        budget = self.max_bytes // 2
        kept: List[str] = []
        used = 0
        for line in reversed(lines):
            if used + len(line) > budget and kept:
                break
            kept.append(line)
            used += len(line)
        kept.reverse()
        with open(self.path, "w") as f:
            f.writelines(kept)
