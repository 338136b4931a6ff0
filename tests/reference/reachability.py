"""Which ``src/`` functions no driver reaches, held to an allowlist.

Runs the repository's drivers, each in a subprocess under a profile hook,
from a scratch work directory:

- every ``repro ...`` command of ``.github/workflows/ci.yml``, read from
  that file (all jobs and steps: the CLI smoke lines, ``repro backends``,
  the ``bench`` job's ``bench run --quick`` / ``validate`` / ``gate`` /
  ``compare``) and run as ``python -m repro.cli ...``;
- every ``examples/*.py``;
- ``python3 bench_e2e/run.py --smoke``.

It then prints every function defined under ``src/`` that none of them
called, grouped by file, with its line count (decorators through its last
line), its allowlist reason and the totals.  A function nested in an
unreached one is counted with it, not again; abstract methods are skipped
(nothing calls them).

``tests/reference/unreached.txt`` is the allowlist: one sorted
``src/<path>.py:<qualname> <reason>`` line for each function that stays in
``src/`` with no driver reaching it, the reason one of :data:`REASONS`.
The probe exits 1 when a driver failed (its functions then read as
unreached) or a function is unreached and not on the list, and names
each.  A listed function that a run did reach is only reported: whether
some of them run depends on the machine (``NativeLibrary._build`` runs
where the build cache is cold, as on CI).  ``tests/test_reachability.py``
checks, without running a driver, that every listed function exists, every
reason is known and the list is sorted, so a deletion also shrinks it.

The hook is a ``sitecustomize`` module written to a temporary directory
put first on ``PYTHONPATH``: every Python process the drivers start,
subprocesses included, installs ``sys.setprofile`` and
``threading.setprofile`` at start-up and writes the code objects it saw
when it exits.  Standard library only.  It takes about a minute on two
cores, so it is not a Tier-1 test (CI's ``bench`` job runs it)::

    python tests/reference/reachability.py

``bench compare`` reporting a regression after its summary line is not a
failure.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import shutil
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
ALLOWLIST = Path(__file__).with_name("unreached.txt")

#: Why a function may stay in ``src/`` with no driver reaching it.
REASONS = {
    "oracle": "a Tier-1 test holds shipped code to it",
    "error": "it raises or reports on bad input or a failed call",
    "recovery": "it runs only on a fault, a corrupt file or a restore",
    "protocol": "a protocol requires it",
    "densify": "it runs only when densification is on",
    "cold-cache": "it runs only when the build cache is cold",
    "full-run": "it runs only in a full-tier run, not --quick / --smoke",
    "option": "it runs only under an option no driver sets",
    "plugin": "it registers or removes a plugin, which no driver does",
    "test-api": "public API of a shipped type that only Tier-1 tests call",
}


def _run_blocks(workflow: str):
    """The shell text of every ``run:`` value of ``workflow``: one string a
    command (a ``>`` block folded into one, a ``|`` block split into its
    lines, backslash continuations joined)."""
    lines = workflow.splitlines()
    at = 0
    while at < len(lines):
        match = re.match(r"^\s*(?:- )?run:\s*(.*)$", lines[at])
        at += 1
        if not match:
            continue
        style = match.group(1).strip()
        if style not in ("|", ">"):
            yield style
            continue
        column = lines[at - 1].index("run:")
        body = []
        while at < len(lines) and (
            not lines[at].strip()
            or len(lines[at]) - len(lines[at].lstrip()) > column
        ):
            body.append(lines[at].strip())
            at += 1
        if style == ">":
            yield " ".join(line for line in body if line)
            continue
        pending = ""
        for line in body:
            pending += " " + line
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            yield pending.strip()
            pending = ""


def cli_lines(workflow: str) -> List[List[str]]:
    """The arguments of every ``repro ...`` command of ``workflow`` (the
    text of a GitHub Actions file), in order and once each: a leading
    ``!`` and everything from the first ``|`` on are dropped."""
    commands = []
    for command in _run_blocks(workflow):
        head = command.split("|")[0].strip()
        head = head[1:].strip() if head.startswith("!") else head
        if head.split()[:1] != ["repro"]:
            continue
        words = shlex.split(head)[1:]
        if words not in commands:
            commands.append(words)
    return commands


def drivers() -> Dict[str, List[List[str]]]:
    """Each driver group's command lines."""
    py = sys.executable
    return {
        "ci": [[py, "-m", "repro.cli", *args]
               for args in cli_lines(CI.read_text())],
        "examples": [
            [py, str(path)] for path in sorted((REPO / "examples").glob("*.py"))
        ],
        "bench_e2e": [[py, str(REPO / "bench_e2e" / "run.py"), "--smoke"]],
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
    """Run every driver under the hook, from a work directory holding a
    copy of ``BENCH_results.json`` (what CI's ``bench`` job writes lands
    there): the reached ``(file, first line, name)`` triples and the
    command lines that failed."""
    hook_dir, dump_dir, work = scratch / "hook", scratch / "dumps", scratch / "work"
    for path in (hook_dir, dump_dir, work):
        path.mkdir()
    shutil.copy(REPO / "BENCH_results.json", work)
    (hook_dir / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(out=str(dump_dir))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = []
    for group, commands in drivers().items():
        for argv in commands:
            start = time.perf_counter()
            done = subprocess.run(
                argv, cwd=work, env=env, capture_output=True, text=True,
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


def functions(src: Path = SRC):
    """``(file, first line, qualname, lines, enclosing function's qualname
    or None)`` of every function defined under ``src`` but the abstract
    methods (nothing calls them), in source order.  ``file`` is relative to
    the repository; a nested function's qualname reads
    ``outer.<locals>.inner``."""

    def visit(node, rel, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_abstract(child):
                    continue
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                name = prefix + child.name
                yield rel, first, name, child.end_lineno - first + 1, owner
                yield from visit(child, rel, f"{name}.<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, rel, f"{prefix}{child.name}.", owner)
            else:
                yield from visit(child, rel, prefix, owner)

    for file in sorted(src.rglob("*.py")):
        rel = file.relative_to(REPO).as_posix()
        yield from visit(ast.parse(file.read_text(), filename=str(file)),
                         rel, "", None)


def unreached(reached: Set[tuple]) -> Tuple[List[tuple], int]:
    """``(file, first line, qualname, lines)`` of every outermost ``src/``
    function not in ``reached`` (a function nested in an unreached one is
    counted with it, not again), and the number of functions defined."""
    out, defined, skipped = [], 0, set()
    for rel, first, name, lines, owner in functions():
        defined += 1
        if owner in skipped:
            skipped.add(name)
            continue
        short = name.rsplit(".", 1)[-1]
        if (os.path.realpath(REPO / rel), first, short) not in reached:
            out.append((rel, first, name, lines))
            skipped.add(name)
    return out, defined


def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``{"file:qualname": reason}`` of the allowlist: one
    ``src/...py:Qual.name reason`` line an unreached function that stays."""
    entries = {}
    for line in path.read_text().splitlines():
        key, reason = line.rsplit(" ", 1)
        entries[key] = reason
    return entries


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        reached, failed = run_drivers(Path(tmp))
    missing, defined = unreached(reached)
    allowed = read_allowlist()
    by_file: Dict[str, List[tuple]] = {}
    for entry in missing:
        by_file.setdefault(entry[0], []).append(entry)
    for rel, entries in sorted(
        by_file.items(), key=lambda kv: -sum(e[3] for e in kv[1])
    ):
        print(f"{rel}  ({len(entries)} functions, "
              f"{sum(e[3] for e in entries)} lines)")
        for _, first, name, lines in entries:
            reason = allowed.get(f"{rel}:{name}", "NOT ALLOWLISTED")
            print(f"  {first:5d}  {name}  ({lines} lines)  {reason}")
    total = sum(e[3] for e in missing)
    print(f"{len(missing)} of {defined} src/ functions unreached by the "
          f"drivers: {total} lines")
    keys = {f"{e[0]}:{e[2]}" for e in missing}
    for key in sorted(set(allowed) - keys):
        print(f"allowlisted but reached: {key}")
    unlisted = sorted(keys - set(allowed))
    for key in unlisted:
        print(f"unreached and not allowlisted: {key}")
    for label in failed:
        print(f"driver failed: {label}")
    return 1 if failed or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
