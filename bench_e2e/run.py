"""Entry point: `python3 bench_e2e/run.py` or `python -m bench_e2e.run`.

    python3 bench_e2e/run.py --seed 0                 # everything
    python3 bench_e2e/run.py --workload dense --seed 3 --seconds 30 --trace 0
    python3 bench_e2e/run.py --smoke                  # <20 s, checks on

With one workload and one `--trace` mode the last stdout line is the
driver-contract JSON object; exit status is non-zero when a check fails
or the repository's `src/repro` is not beside this directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the box has 2 cores and the overlap
    variants bring their own worker threads.  Must run before NumPy is
    first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_threads()
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from bench_e2e import driver

    return driver.main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
