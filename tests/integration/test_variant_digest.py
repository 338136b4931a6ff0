"""``tests/reference/variant_digest.py``: the digest two trees are compared
by repeats on one tree, so an equal digest means equal bits, not luck."""

import os
import shutil
import subprocess

import pytest
from variant_digest import VARIANTS, digests, main

from repro.kernels import get_backend

BACKENDS = ["numpy"] + (["native"] if get_backend("native").available() else [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_digest_repeats_in_one_process(backend):
    first = digests(backend, batches=6, size="smoke")
    assert set(first) == {*VARIANTS, "all"}
    assert digests(backend, batches=6, size="smoke") == first
    # The batches are inside it.
    assert digests(backend, batches=5, size="smoke", variants=["naive"])["naive"] != first["naive"]


def test_the_script_prints_a_line_a_variant(capsys):
    assert main(["--backend", "numpy", "--batches", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [*VARIANTS, "all"]
    assert all(len(line.split()[1]) == 64 for line in lines)


def test_the_digest_against_head_reports_no_difference(capsys):
    """``--against HEAD`` digests the committed package in a subprocess: on
    a checkout whose ``src`` is HEAD's it finds every variant equal."""
    top = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if shutil.which("git") is None or not os.path.exists(os.path.join(top, ".git")):
        pytest.skip("not a git checkout")
    if subprocess.run(["git", "-C", top, "diff", "--quiet", "HEAD", "--", "src"]).returncode:
        pytest.skip("src differs from HEAD")
    assert main(["--backend", "numpy", "--batches", "3", "--size", "smoke", "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"all {len(VARIANTS)} variants equal HEAD"
