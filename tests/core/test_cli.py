"""CLI subcommands."""

import pytest

from repro.cli import main

FAST_SCENE = ["--scale", "5e-5", "--views", "48", "--seed", "1"]


def test_sparsity_command(capsys):
    assert main(["sparsity", "--scene", "bigcity"] + FAST_SCENE) == 0
    out = capsys.readouterr().out
    assert "sparsity" in out
    assert "mean" in out


def test_max_size_command(capsys):
    assert main(["max-size", "--scene", "rubble", "--testbed", "rtx2080ti"]
                + FAST_SCENE) == 0
    out = capsys.readouterr().out
    assert "clm" in out and "baseline" in out


def test_throughput_command(capsys):
    assert main(
        ["throughput", "--scene", "bigcity", "--system", "clm",
         "--n", "15.3e6", "--batches", "2", "--batch-size", "8"] + FAST_SCENE
    ) == 0
    out = capsys.readouterr().out
    assert "images/s" in out


def test_comm_volume_command(capsys):
    assert main(
        ["comm-volume", "--scene", "bigcity", "--n", "15.3e6",
         "--batches", "2", "--batch-size", "8"] + FAST_SCENE
    ) == 0
    out = capsys.readouterr().out
    for ordering in ("random", "camera", "gs_count", "tsp"):
        assert ordering in out


@pytest.mark.parametrize("command", ["throughput", "comm-volume"])
def test_zero_batches_rejected(command):
    with pytest.raises(ValueError, match="num_batches"):
        main([command, "--scene", "bigcity", "--batches", "0",
              "--batch-size", "8"] + FAST_SCENE)


def test_train_command(capsys):
    assert main(["train", "--batches", "3", "--gaussians", "80"]) == 0
    out = capsys.readouterr().out
    assert "PSNR" in out


def test_train_autotune_summary_names_workers_and_ordering(capsys):
    assert main(["train", "--engine", "clm", "--batches", "3",
                 "--gaussians", "60", "--autotune"]) == 0
    out = capsys.readouterr().out
    (line,) = [ln for ln in out.splitlines() if ln.startswith("autotune: ")]
    assert "3 batches tuned" in line and "1 calibration probe(s)" in line
    assert "workers=" in line and "ordering=" in line
    assert "group" not in line


def test_train_command_engine_flag(capsys):
    assert main(["train", "--engine", "enhanced", "--batches", "2",
                 "--gaussians", "60"]) == 0
    out = capsys.readouterr().out
    assert "enhanced" in out


def test_train_command_legacy_system_flag(capsys):
    assert main(["train", "--system", "naive", "--batches", "2",
                 "--gaussians", "60"]) == 0
    out = capsys.readouterr().out
    assert "naive" in out


def test_engines_command_lists_registry(capsys):
    from repro.engines import available_engines

    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in available_engines():
        assert name in out


def test_train_choices_follow_registry(capsys):
    """Unknown engines are rejected with the registry's name list, not a
    KeyError."""
    with pytest.raises(SystemExit):
        main(["train", "--engine", "bogus"])
    err = capsys.readouterr().err
    assert "invalid choice" in err and "clm" in err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_unknown_scene_rejected():
    with pytest.raises(SystemExit):
        main(["sparsity", "--scene", "nowhere"])
