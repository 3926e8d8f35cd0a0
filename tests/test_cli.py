"""In-process checks of the command-line entry points."""

import json
import math
import warnings

import numpy as np
import pytest

from nlsdamp import scenarios
from nlsdamp.cli import main
from nlsdamp.scenarios import GS_CACHE_VERSION, _cache_path, _save_ground_state, ensure_ground_state

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


@pytest.mark.parametrize("damping", [("gaussian_bump", "80"), ("constant", "100")])
def test_evolve_strong_damping_over_a_long_horizon(tmp_path, capsys, damping):
    # ‖a‖∞·t reaches 800 and 1000: the envelope's upper bound e^(‖a‖∞ t)
    # overflows a float and holds as +∞. Under constant damping the mass
    # underflows to exactly 0.0 and stays there, which is still decreasing.
    kind, amplitude = damping
    text = EVOLVE_CONFIG.format(out=tmp_path / "out")
    text = text.replace("damping = gaussian_bump", f"damping = {kind}")
    text = text.replace("damping_amplitude = 1.0", f"damping_amplitude = {amplitude}")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text.replace("t_end = 0.05", "t_end = 10"))
    code = main(["evolve", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stop reason  horizon_reached" in out
    assert "envelope ok      true" in out
    assert "check global_existence: pass" in out
    masses = np.loadtxt(tmp_path / "out" / "cli_demo" / "rows.csv", delimiter=",",
                        skiprows=1, usecols=1)
    assert (masses[-1] == 0.0) == (kind == "constant")


def test_evolve_unresolved_initial_data_is_exit_2(tmp_path, capsys):
    # A Gaussian of width 0.05 on a 1-D N = 512 grid of box 20 trips the
    # tail guard before the first step.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "id = narrow\ndim = 1\nn = 512\nbox = 20.0\ninitial_data = gaussian\n"
        "initial_amplitude = 1.0\ninitial_width = 0.05\ndamping = zero\n"
        f"outputs = {tmp_path / 'out'}\n"
    )
    code = main(["evolve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("initial data is under-resolved on this grid: tail fraction ")
    assert err.endswith(" > tail_threshold 0.0001 at t = 0; raise n\n")
    assert err.count("\n") == 1


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
        ("initial_amplitude = 0.8", "initial_amplitude = nan"),
        ("initial_width = 1.0", "initial_width = 0"),
        ("initial_width = 1.0", "initial_width = inf"),
        ("damping_amplitude = 1.0", "damping_amplitude = inf"),
        ("initial_data = gaussian", "initial_data = scaled_ground_state\ninitial_scale = nan"),
        ("initial_data = gaussian", "initial_data = boosted_ground_state\ninitial_velocity = -inf"),
        ("box = 15.0", "box = 1e200"),
        ("box = 15.0", "box = 1e300"),
        ("box = 15.0", "box = 1e-300"),
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


@pytest.mark.parametrize("command", ["evolve", "ground-state"])
@pytest.mark.parametrize("box", ["0.5", "1e-5", "1e-150"])
def test_box_too_small_to_hold_the_ground_state_is_exit_2(tmp_path, capsys, command, box):
    # On such a box the iteration settles on the flat profile Q ≡ 1.
    out = tmp_path / "out"
    if command == "evolve":
        cfg_path = tmp_path / "run.cfg"
        text = EVOLVE_CONFIG.format(out=out).replace("n = 256", "n = 64")
        cfg_path.write_text(text.replace("box = 15.0", f"box = {box}"))
        argv = ["evolve", "--config", str(cfg_path)]
    else:
        argv = ["ground-state", "--dim", "1", "--n", "64", "--box", box, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: box half_width {float(box)} is too small")
    assert err.count("\n") == 1
    assert not out.exists()


def test_flat_cached_profile_is_exit_2_without_a_solve(tmp_path, capsys, monkeypatch):
    # A cache file holding Q ≡ 1 (residual 0), as earlier versions wrote on
    # such a box, is refused as the solved profile is: one line, no re-solve.
    out = tmp_path / "out"
    path = _cache_path(out / "gs_cache", 1, 64, 0.5, 1e-10)
    path.parent.mkdir(parents=True)
    np.savez(path, version=GS_CACHE_VERSION, dim=1, n=64, box=0.5, tol=1e-10,
             profile=np.ones(64))
    monkeypatch.setattr(scenarios, "solve_ground_state", lambda *a, **k: pytest.fail("solved"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ground-state", "--dim", "1", "--n", "64", "--box", "0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: box half_width 0.5 is too small")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["evolve", "suite", "ground-state"])
def test_failed_ground_state_solve_is_exit_1(tmp_path, capsys, command):
    # No 64-point profile reaches a residual of 1e-30 in the 500-pass budget.
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    if command == "evolve":
        text = EVOLVE_CONFIG.format(out=out).replace("n = 256", "n = 64")
        cfg_path.write_text(text + "gs_tol = 1e-30\n")
        argv = ["evolve", "--config", str(cfg_path)]
    elif command == "suite":
        cfg_path.write_text(f"n = 64\ngs_tol = 1e-30\noutputs = {out}\n")
        argv = ["suite", "--config", str(cfg_path)]
    else:
        argv = ["ground-state", "--dim", "1", "--n", "64", "--box", "10.0",
                "--tol", "1e-30", "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ground-state iteration failed: no convergence after 500 iterations")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "suite", "ground-state"])
def test_uncreatable_outputs_root_is_exit_2(tmp_path, capsys, command):
    # A path below a file cannot be made a directory.
    out = "/dev/null/x"
    cfg_path = tmp_path / "run.cfg"
    if command == "evolve":
        cfg_path.write_text(EVOLVE_CONFIG.format(out=out).replace("n = 256", "n = 64"))
        argv = ["evolve", "--config", str(cfg_path)]
    elif command == "suite":
        cfg_path.write_text(f"n = 64\nt_end = 0.01\noutputs = {out}\n")
        argv = ["suite", "--config", str(cfg_path)]
    else:
        argv = ["ground-state", "--dim", "1", "--n", "64", "--box", "10.0", "--out", out]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: cannot create output directory /dev/null/x")
    assert err.count("\n") == 1


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
