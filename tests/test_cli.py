"""In-process checks of the command-line entry points."""

import json
import math

import numpy as np
import pytest

from nlsdamp.cli import main
from nlsdamp.scenarios import _cache_path, _save_ground_state, ensure_ground_state

EVOLVE_CONFIG = """\
id = cli_demo
dim = 1
n = 256
box = 15.0
initial_data = gaussian
initial_amplitude = 0.8
initial_width = 1.0
damping = gaussian_bump
damping_amplitude = 1.0
damping_sigma = 2.0
dt0 = 1e-3
t_end = 0.05
record_every = 5
outputs = {out}
"""


def test_evolve_command_runs_and_writes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CONFIG.format(out=tmp_path / "out"))
    code = main(["evolve", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario     cli_demo" in out
    assert "stop reason  horizon_reached" in out
    assert "blew up      false" in out
    assert "envelope ok      true" in out
    assert "check global_existence: pass" in out
    run_dir = tmp_path / "out" / "cli_demo"
    for name in ("rows.csv", "report.json", "balance.json", "checks.json"):
        assert (run_dir / name).exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["scenario_id"] == "cli_demo"
    assert report["stop_reason"] == "horizon_reached"
    checks = json.loads((run_dir / "checks.json").read_text())
    assert [c["claim"] for c in checks] == ["global_existence"]


def test_evolve_out_flag_overrides_directory(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CONFIG.format(out=tmp_path / "ignored"))
    code = main(["evolve", "--config", str(cfg_path), "--out",
                 str(tmp_path / "chosen")])
    assert code == 0
    assert (tmp_path / "chosen" / "cli_demo" / "rows.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_evolve_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_evolve_unknown_key_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("bogus = 1\n")
    code = main(["evolve", "--config", str(cfg_path)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("n = 256", "n = 100"),
        ("dt0 = 1e-3", "dt0 = 1e-9"),
        ("dt0 = 1e-3", "dt0 = inf"),
        ("t_end = 0.05", "t_end = inf"),
        ("id = cli_demo", "id = ../esc"),
        ("id = cli_demo", "id = a/b"),
    ],
)
def test_evolve_invalid_value_is_exit_2(tmp_path, capsys, old, new):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(EVOLVE_CONFIG.format(out=tmp_path / "out" / "x").replace(old, new))
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize(
    "line",
    ["conc_decade = 0", "conc_decade = 1", "conc_decade = inf",
     "conc_pass_threshold = 0", "conc_pass_threshold = nan"],
)
def test_evolve_bad_concentration_setting_is_exit_2(tmp_path, capsys, line):
    # A collapsing run, so that an accepted setting would reach the concentration check.
    text = EVOLVE_CONFIG.format(out=tmp_path / "out")
    text = text.replace("damping = gaussian_bump", "damping = zero")
    text = text.replace("t_end = 0.05", "t_end = 10.0")
    text = text.replace("initial_data = gaussian", "initial_data = scaled_ground_state")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text + "initial_scale = 1.2\n" + line + "\n")
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {line.split()[0]} must be finite and ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize("command", ["evolve", "suite"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_is_exit_2(tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.cfg"
    if kind == "directory":
        cfg_path.mkdir()
    else:
        cfg_path.write_bytes(b"t_end = 1.0\n# \xff\xfe\n")
    code = main([command, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_evolve_duplicate_key_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(EVOLVE_CONFIG.format(out=tmp_path / "out") + "n = 128\n")
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "configuration error: line 15: key 'n' repeats line 3\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_evolve_nonperiodic_cosine_is_exit_2(tmp_path, capsys):
    text = EVOLVE_CONFIG.format(out=tmp_path / "out").replace("box = 15.0", "box = 10.0")
    text = text.replace("damping = gaussian_bump", "damping = cosine")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text + "damping_wavelength = 7\n")
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: cosine wavelength 7 ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_suite_duplicate_key_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(f"t_end = 1.0\noutputs = {tmp_path / 'out'}\nt_end = 2.0\n")
    code = main(["suite", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "configuration error: line 3: key 't_end' repeats line 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["n = 100", "dt0 = 1e-9", "box = 0"])
def test_suite_invalid_override_is_exit_2(tmp_path, capsys, line):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(f"{line}\noutputs = {tmp_path / 'out'}\n")
    code = main(["suite", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ground-state", "--dim", "1", "--n", "100", "--box", "10.0"],
        ["ground-state", "--dim", "1", "--n", "256", "--box", "10.0", "--tol", "0"],
        ["gn-check", "--dim", "1", "--n", "100"],
        ["gn-check", "--dim", "1", "--box", "-1.0"],
    ],
)
def test_grid_arguments_invalid_is_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    out_args = ["--out", str(tmp_path / "out")] if argv[0] == "ground-state" else []
    code = main(argv + out_args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stale_cache", [False, True])
def test_ground_state_infinite_tol_is_exit_2(tmp_path, capsys, monkeypatch, stale_cache):
    # An infinite tolerance would accept the first iterate and cache it. A
    # cache file keyed by tol = inf, as earlier versions wrote, is not read.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    stale = []
    if stale_cache:
        gs = ensure_ground_state(1, 256, 10.0, 1e-10)
        stale = [_cache_path(out / "gs_cache", 1, 256, 10.0, math.inf)]
        _save_ground_state(stale[0], gs, math.inf)
    code = main(["ground-state", "--dim", "1", "--n", "256", "--box", "10.0",
                 "--tol", "inf", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "configuration error: tol must be finite and > 0, got inf\n"
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == stale


def test_evolve_infinite_gs_tol_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(EVOLVE_CONFIG.format(out=tmp_path / "out") + "gs_tol = inf\n")
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "configuration error: gs_tol must be finite and > 0, got inf\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_ground_state_command_writes_profile(tmp_path, capsys):
    code = main(["ground-state", "--dim", "1", "--n", "256", "--box", "12.0",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mass_sq" in out
    payload = json.loads((tmp_path / "ground_state_d1.json").read_text())
    assert payload["dim"] == 1
    assert payload["mass_sq"] == pytest.approx(2.7206990463513265, abs=1e-6)
    assert payload["residual"] < 1e-10
    csv_lines = (tmp_path / "ground_state_d1.csv").read_text().splitlines()
    assert csv_lines[0] == "x_1,q"
    assert len(csv_lines) == 1 + 256


def test_ground_state_command_over_corrupt_cache(tmp_path, capsys):
    argv = ["ground-state", "--dim", "1", "--n", "128", "--box", "12.0", "--out", str(tmp_path)]
    assert main(argv) == 0
    (path,) = (tmp_path / "gs_cache").glob("gs-v*.npz")
    path.write_bytes(b"not a zip archive")
    capsys.readouterr()
    with pytest.warns(UserWarning, match="rejected"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert "pde residual" in captured.out
    with np.load(path) as data:
        assert data["profile"].shape == (128,)


def test_suite_bad_config_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text("id = nope\n")
    code = main(["suite", "--config", str(cfg_path)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_gn_check_small_sample(capsys):
    code = main(["gn-check", "--dim", "1", "--n", "256", "--box", "12.0",
                 "--samples", "25", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound holds" in out


@pytest.mark.parametrize(
    "flag, value, least", [("--seed", "-1", 0), ("--samples", "0", 1), ("--samples", "-3", 1)]
)
def test_gn_check_bad_sampling_is_exit_2(tmp_path, capsys, monkeypatch, flag, value, least):
    monkeypatch.chdir(tmp_path)
    code = main(["gn-check", "--dim", "1", "--n", "64", "--box", "8.0", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"configuration error: {flag} must be >= {least}, got {value}\n"
    assert "bound holds" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
