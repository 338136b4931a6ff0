"""Which ``src/`` functions no driver reaches.

Runs the repository's drivers, each in a subprocess under a profile hook:

- the ``repro ...`` lines of the "CLI entry point smoke test" step of
  ``.github/workflows/ci.yml``, read from that file and run as
  ``python -m repro.cli ...``;
- every ``examples/*.py``;
- ``python3 bench_e2e/run.py --smoke``;
- ``repro bench run --quick --no-log``, then ``bench validate``,
  ``bench gate`` and ``bench compare`` against ``BENCH_results.json``.

It then prints every function defined under ``src/`` that none of them
called, grouped by file, with its line count (decorators through its last
line) and the totals.  A function nested in an unreached one is counted
with it, not again; abstract methods are skipped (nothing calls them).

The hook is a ``sitecustomize`` module written to a temporary directory
put first on ``PYTHONPATH``: every Python process the drivers start,
subprocesses included, installs ``sys.setprofile`` and
``threading.setprofile`` at start-up and writes the code objects it saw
when it exits.  Standard library only.  It takes about a minute on two
cores, so it is not a Tier-1 test::

    python tests/reference/reachability.py

It exits 1 if a driver failed (its functions then read as unreached) and
names it; ``bench compare`` reporting a regression after its summary line
is not a failure.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: The hook every driver process loads (``{out}`` is the dump directory).
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = {{
        f"{{os.path.abspath(c.co_filename)}}\\t{{c.co_firstlineno}}\\t{{c.co_name}}"
        for c in list(_seen)
    }}
    name = os.path.join({out!r}, f"{{os.getpid()}}-{{id(_seen)}}.txt")
    with open(name, "w") as fh:
        fh.write("\\n".join(sorted(rows)))


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

CI = REPO / ".github" / "workflows" / "ci.yml"
CLI_STEP = "- name: CLI entry point smoke test"


def cli_lines(workflow: Path = CI) -> List[List[str]]:
    """The ``repro ...`` command lines of the CLI smoke step of ``workflow``
    (backslash continuations joined, a trailing ``| ...`` pipe dropped)."""
    lines = workflow.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.strip() == CLI_STEP)
    step_indent = len(lines[at]) - len(lines[at].lstrip())
    commands, pending = [], ""
    for line in lines[at + 1:]:
        text = line.strip()
        if text and len(line) - len(line.lstrip()) <= step_indent:
            break  # the next step or job
        pending += " " + text
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        words = shlex.split(pending.split(" | ")[0])
        pending = ""
        if words[:1] == ["repro"]:
            commands.append(words[1:])
    return commands


def drivers(scratch: Path) -> Dict[str, List[List[str]]]:
    """Each driver group's command lines (run from the repository root)."""
    py = sys.executable
    run_json = str(scratch / "bench_run.json")
    bench = [py, "-m", "repro.cli", "bench"]
    return {
        "cli": [[py, "-m", "repro.cli", *args] for args in cli_lines()],
        "examples": [
            [py, str(path)] for path in sorted((REPO / "examples").glob("*.py"))
        ],
        "bench_e2e": [[py, "bench_e2e/run.py", "--smoke"]],
        "bench": [
            [*bench, "run", "--quick", "--quiet", "--no-log", "--output", run_json],
            [*bench, "validate", run_json],
            [*bench, "gate", run_json],
            [*bench, "compare", "--baseline", "BENCH_results.json",
             "--current", run_json],
        ],
    }


def passed(argv: List[str], returncode: int, stdout: str) -> bool:
    """Whether a driver ran to its end.  ``bench compare`` exits 1 when it
    reports a regression (the hook's slowdown of every Python call can
    cause a wall-clock one); it walked the whole comparison only if it
    printed its closing ``compared N records`` line."""
    if returncode == 0:
        return True
    last = stdout.strip().splitlines()[-1:] or [""]
    return (
        returncode == 1 and "compare" in argv
        and last[0].startswith("compared ")
    )


def run_drivers(scratch: Path) -> Tuple[Set[tuple], List[str]]:
    """Run every driver under the hook: the reached ``(file, first line,
    name)`` triples and the command lines that failed."""
    hook_dir, dump_dir = scratch / "hook", scratch / "dumps"
    hook_dir.mkdir()
    dump_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(out=str(dump_dir))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = []
    for group, commands in drivers(scratch).items():
        for argv in commands:
            start = time.perf_counter()
            done = subprocess.run(
                argv, cwd=REPO, env=env, capture_output=True, text=True,
            )
            label = " ".join(argv[1:])
            print(f"[{group}] {label}  ({time.perf_counter() - start:.0f} s)",
                  file=sys.stderr)
            if not passed(argv, done.returncode, done.stdout):
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
    reached = set()
    for dump in dump_dir.iterdir():
        for line in dump.read_text().splitlines():
            path, first, name = line.split("\t")
            reached.add((os.path.realpath(path), int(first), name))
    return reached, failed


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        or (isinstance(d, ast.Name) and d.id == "abstractmethod")
        for d in node.decorator_list
    )


def unreached(reached: Set[tuple]) -> Tuple[List[tuple], int]:
    """``(file, first line, name, lines)`` of every outermost ``src/``
    function not in ``reached``, and the number of functions defined."""
    out, defined = [], 0

    def visit(node, path):
        nonlocal defined
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_abstract(child):
                    continue
                defined += 1
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                if (path, first, child.name) not in reached:
                    out.append(
                        (path, first, child.name, child.end_lineno - first + 1)
                    )
                    continue
            visit(child, path)

    for file in sorted(SRC.rglob("*.py")):
        path = os.path.realpath(file)
        visit(ast.parse(file.read_text(), filename=path), path)
    return out, defined


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        reached, failed = run_drivers(Path(tmp))
    missing, defined = unreached(reached)
    by_file: Dict[str, List[tuple]] = {}
    for entry in missing:
        by_file.setdefault(entry[0], []).append(entry)
    for path, entries in sorted(
        by_file.items(), key=lambda kv: -sum(e[3] for e in kv[1])
    ):
        rel = os.path.relpath(path, REPO)
        print(f"{rel}  ({len(entries)} functions, "
              f"{sum(e[3] for e in entries)} lines)")
        for _, first, name, lines in entries:
            print(f"  {first:5d}  {name}  ({lines} lines)")
    total = sum(e[3] for e in missing)
    print(f"{len(missing)} of {defined} src/ functions unreached by the "
          f"drivers: {total} lines")
    for label in failed:
        print(f"driver failed: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
