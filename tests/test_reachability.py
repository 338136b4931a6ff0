"""The reachability probe's inputs, checked without running a driver.

``tests/reference/reachability.py`` runs the repository's drivers and fails
on an unreached ``src/`` function that ``tests/reference/unreached.txt``
does not list.  What can go stale without running it is checked here: the
CI commands it reads and the allowlist itself.
"""

import textwrap

import pytest
import reachability
from reachability import (
    ALLOWLIST,
    REASONS,
    cli_lines,
    functions,
    passed,
    read_allowlist,
    unreached,
)

WORKFLOW = """\
jobs:
  test:
    steps:
      - run: repro engines
      - name: Availability
        run: |
          cc --version
          repro backends
          repro backends | grep -q "^auto resolves to: native$"
          for op in $(python -c "import repro.kernels as k; print(*k.KERNEL_OPS)"); do
            repro backends | grep -qE "^native runs: (.*, )?$op(,|$)" || { exit 1; }
          done
          ! repro serve --requests 4 | grep -q "^x$"
      - name: Smoke
        env:
          PYTHONWARNINGS: error::RuntimeWarning
        run: |
          repro train --engine clm \\
            --batches 2
          set -o pipefail
          repro train --autotune | tee /tmp/autotune.txt
  bench:
    steps:
      - name: Compare
        run: >
          repro bench compare --baseline BENCH_results.json
          --current bench_run.json
      - run: python -m pytest -q
"""


def test_cli_lines_reads_every_repro_command_of_every_step():
    assert cli_lines(WORKFLOW) == [
        ["engines"],
        ["backends"],
        ["serve", "--requests", "4"],
        ["train", "--engine", "clm", "--batches", "2"],
        ["train", "--autotune"],
        ["bench", "compare", "--baseline", "BENCH_results.json",
         "--current", "bench_run.json"],
    ]


@pytest.mark.parametrize("workflow, expected", [
    ("- run: repro engines\n", [["engines"]]),
    ("  run: repro train --batches 2\n", [["train", "--batches", "2"]]),
    ("- run: python -m pytest -q\n", []),
    ("- run: repro backends | grep -q native\n", [["backends"]]),
    ("- run: ! repro serve --requests 4\n", [["serve", "--requests", "4"]]),
    ("- run: repro train --name 'a b'\n", [["train", "--name", "a b"]]),
    ("- run: repro engines\n- run: repro engines\n", [["engines"]]),
    ("- run: |\n    cc --version\n    repro engines\n    repro backends\n",
     [["engines"], ["backends"]]),
    ("- run: |\n    repro train \\\n      --batches 2\n",
     [["train", "--batches", "2"]]),
    ("- run: >\n    repro bench gate\n    --results r.json\n",
     [["bench", "gate", "--results", "r.json"]]),
    ("- run: |\n    for op in a b; do\n      repro backends | grep $op\n"
     "    done\n", [["backends"]]),
    ("- run: |\n    repro engines\n- name: next\n  env:\n    run: 1\n",
     [["engines"]]),
], ids=[
    "one-line", "key-form", "not-repro", "pipe-dropped", "bang-dropped",
    "quoted-word", "once-each", "literal-block", "continuation",
    "folded-block", "loop-body", "block-ends-at-dedent",
])
def test_cli_lines_reads_each_shell_form(workflow, expected):
    assert cli_lines(workflow) == expected


@pytest.mark.parametrize("argv, returncode, stdout, ok", [
    (["repro", "engines"], 0, "", True),
    (["repro", "engines"], 1, "compared 3 records\n", False),
    (["repro", "bench", "compare"], 1, "x\ncompared 3 records\n", True),
    (["repro", "bench", "compare"], 1, "compared 3 records\nregression\n",
     False),
    (["repro", "bench", "compare"], 2, "compared 3 records\n", False),
    (["repro", "bench", "compare"], 1, "", False),
], ids=[
    "exit-0", "exit-1", "compare-regression", "compare-stopped-early",
    "compare-usage-error", "compare-no-output",
])
def test_passed_forgives_only_a_finished_compare(argv, returncode, stdout, ok):
    assert passed(argv, returncode, stdout) is ok


SOURCE = textwrap.dedent("""\
    import abc


    def top():
        def inner():
            return 1
        return inner


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            ...

        @property
        def name(self):
            return "shape"

        class Inner:
            def method(self):
                return 2
""")


@pytest.fixture
def tiny_repo(tmp_path, monkeypatch):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(SOURCE)
    monkeypatch.setattr(reachability, "REPO", tmp_path)
    return tmp_path


def test_functions_names_methods_nested_functions_and_decorated_lines(tiny_repo):
    assert list(functions(tiny_repo / "src")) == [
        ("src/pkg/mod.py", 4, "top", 4, None),
        ("src/pkg/mod.py", 5, "top.<locals>.inner", 2, "top"),
        ("src/pkg/mod.py", 15, "Shape.name", 3, None),
        ("src/pkg/mod.py", 20, "Shape.Inner.method", 2, None),
    ]


def test_functions_skips_abstract_methods(tiny_repo):
    names = {name for _, _, name, _, _ in functions(tiny_repo / "src")}
    assert "Shape.area" not in names


def test_unreached_counts_a_nested_function_with_its_unreached_owner(
        tiny_repo, monkeypatch):
    src = tiny_repo / "src"
    monkeypatch.setattr(reachability, "functions", lambda: functions(src))
    mod = str(src / "pkg" / "mod.py")
    missing, defined = unreached({(mod, 15, "name")})
    assert defined == 4
    assert missing == [
        ("src/pkg/mod.py", 4, "top", 4),
        ("src/pkg/mod.py", 20, "Shape.Inner.method", 2),
    ]


def test_unreached_lists_a_nested_function_its_reached_owner_never_called(
        tiny_repo, monkeypatch):
    src = tiny_repo / "src"
    monkeypatch.setattr(reachability, "functions", lambda: functions(src))
    mod = str(src / "pkg" / "mod.py")
    reached = {(mod, 4, "top"), (mod, 15, "name"), (mod, 20, "method")}
    assert unreached(reached) == (
        [("src/pkg/mod.py", 5, "top.<locals>.inner", 2)], 4
    )


def test_read_allowlist_splits_each_line_at_its_last_space(tmp_path):
    path = tmp_path / "unreached.txt"
    path.write_text("src/a.py:f oracle\nsrc/b.py:C.__exit__ protocol\n")
    assert read_allowlist(path) == {
        "src/a.py:f": "oracle", "src/b.py:C.__exit__": "protocol",
    }


def test_the_allowlist_is_sorted_with_each_line_once():
    lines = ALLOWLIST.read_text().splitlines()
    assert lines == sorted(set(lines))


def test_every_allowlisted_name_is_a_function_under_src():
    defined = {f"{rel}:{name}" for rel, _, name, _, _ in functions()}
    assert sorted(set(read_allowlist()) - defined) == []


def test_every_allowlist_reason_is_in_the_fixed_set():
    assert sorted(
        f"{key} {reason}" for key, reason in read_allowlist().items()
        if reason not in REASONS
    ) == []
