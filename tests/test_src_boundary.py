"""What ``src/`` ships is what runs.

Comparators live in ``tests/reference/``, not in the package: no module
under ``src/repro`` defines a ``*_legacy`` name, carries a deprecation
shim, or imports from the tests, and the render context holds only what
the shipped backends produce.
"""

import ast
import dataclasses
import pathlib

import repro
from repro.gaussians.rasterizer import RenderContext

PACKAGE = pathlib.Path(repro.__file__).parent
TESTS = pathlib.Path(__file__).parent
#: Top-level names a module would import test code by: ``tests`` itself
#: and every module pytest's ``pythonpath`` puts on ``sys.path``.
TEST_MODULES = {"tests"} | {path.stem for path in TESTS.rglob("*.py")}


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_ships_no_comparators_shims_or_test_imports():
    offences = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        where = str(path.relative_to(PACKAGE))
        offences += [
            f"{where}: defines {name}"
            for name in _defined_names(tree)
            if name.endswith("_legacy")
        ]
        offences += [
            f"{where}: imports {root}"
            for root in _imported_roots(tree)
            if root in TEST_MODULES
        ]
        if "DeprecationWarning" in text:
            offences.append(f"{where}: mentions DeprecationWarning")
    assert offences == []

    fields = {field.name: field for field in dataclasses.fields(RenderContext)}
    assert "tiles" not in fields
    bins = fields["bins"]
    assert bins.default is dataclasses.MISSING
    assert bins.default_factory is dataclasses.MISSING
    assert bins.type == "TileBins"
