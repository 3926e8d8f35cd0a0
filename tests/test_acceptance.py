"""End-to-end acceptance gates.

One test per shipped guarantee. Each prints a single line with the measured
quantities it gates on; the pinned tolerances live in the TOL table.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import closed_form_q_1d, field_of, state_of, strang_step

import nlsdamp
from nlsdamp import (
    DampingProfile,
    DampingSpec,
    Grid,
    InitialSpec,
    ScenarioConfig,
    SimConfig,
    StopReason,
    gn_ratio,
    pohozaev_residuals,
    run_scenario,
    sharp_gn_constant,
    solve_ground_state,
)
from nlsdamp.diagnostics import random_smooth_field
from nlsdamp.scenarios import STATUS_FAIL, STATUS_PASS

Q_MASS_SQ = math.pi * math.sqrt(3.0) / 2.0
GLOBAL_IDS = ("global_bump_0p5", "global_bump_0p9", "global_bump_1p0")
SMOOTH_IDS = GLOBAL_IDS + ("soliton_free", "decay_constant")
BOUND_IDS = ("bound_negative_0p9", "bound_negative_0p99")

TOL = {
    "profile_max": 1e-8,
    "mass": 1e-6,
    "pohozaev": 1e-8,
    "d2_mass_drift": 1e-5,
    "ratio_at_optimum": 1e-6,
    "soliton_err_dt_1e3": 3e-5,
    "soliton_err_dt_5e4": 1e-5,
    "slope_lo": 1.9,
    "slope_hi": 2.1,
    "balance_residual": 1e-5,
    "shrink_factor": 3.5,
    "fd_match": 1e-3,
    "const_decay": 1e-8,
    "envelope_saturation": 1e-8,
    "peak_grad_ratio": 100.0,
    "energy_near": 5e-4,
    "conc_fraction": 0.9,
    "terminal_mass_fraction": 0.95,
}


def test_criterion_1_ground_state_quality(gs_1d, gs_2d):
    exact = closed_form_q_1d(gs_1d.grid.coords[0])
    profile_err = float(np.max(np.abs(gs_1d.profile - exact)))
    mass_err = abs(gs_1d.mass_sq - Q_MASS_SQ)
    res = pohozaev_residuals(gs_1d)
    poho = max(res.energy_res, res.gradient_res)
    gs_2d_fine = solve_ground_state(Grid(2, 512, 15.0), tol=1e-10)
    drift = abs(gs_2d_fine.mass_sq - gs_2d.mass_sq)
    print(
        f"criterion 1: profile_err={profile_err:.3e} mass_err={mass_err:.3e} "
        f"pohozaev={poho:.3e} d2_mass_drift={drift:.3e}"
    )
    assert profile_err < TOL["profile_max"]
    assert mass_err < TOL["mass"]
    assert poho < TOL["pohozaev"]
    assert drift < TOL["d2_mass_drift"]


def test_criterion_2_sharp_interpolation_constant(gs_1d):
    measured = gn_ratio(gs_1d.field())
    predicted = 3.0 * gs_1d.mass_sq**-2.0
    sharp = sharp_gn_constant(1, gs_1d.mass_sq)
    grid = Grid(1, 256, 15.0)
    rng = np.random.default_rng(2024)
    worst = max(gn_ratio(random_smooth_field(grid, rng)) for _ in range(1000))
    print(
        f"criterion 2: ratio_at_optimum={measured:.12f} predicted={predicted:.12f} "
        f"worst_of_1000={worst:.6f}"
    )
    assert abs(measured - predicted) < TOL["ratio_at_optimum"]
    assert abs(measured - 4.0 / math.pi**2) < TOL["ratio_at_optimum"]
    assert worst < min(measured, sharp)


def _soliton_error(gs, dt):
    steps = round(1.0 / dt)
    zero = DampingProfile.zero(gs.grid)
    state = state_of(gs.field())
    for _ in range(steps):
        state = strang_step(state, zero, dt)
    exact = gs.profile.astype(np.complex128) * np.exp(1j)
    err_sq = (np.abs(field_of(state, gs.grid).values - exact) ** 2).sum() * gs.grid.cell_volume
    return math.sqrt(float(err_sq))


def test_criterion_3_soliton_accuracy_and_order(gs_1d):
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    errs = [_soliton_error(gs_1d, dt) for dt in dts]
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    slope = sum(slopes) / len(slopes)
    print(
        f"criterion 3: err(1e-3)={errs[2]:.6e} err(5e-4)={errs[3]:.6e} "
        f"slope={slope:.4f}"
    )
    assert errs[2] < TOL["soliton_err_dt_1e3"]
    assert errs[3] < TOL["soliton_err_dt_5e4"]
    assert TOL["slope_lo"] <= slope <= TOL["slope_hi"]


def _shrink_ratios(out):
    def residuals(dt0):
        cfg = ScenarioConfig(
            scenario_id="shrink",
            dim=1,
            n=512,
            box=20.0,
            initial=InitialSpec("scaled_ground_state", scale=0.9),
            damping=DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
            sim=SimConfig(dt0=dt0, t_end=0.05, record_every=1),
            outputs=str(out),
        )
        res = run_scenario(cfg)
        return res.balance.mass_residual, res.balance.energy_residual

    coarse = residuals(1e-3)
    fine = residuals(5e-4)
    return [c / f for c, f in zip(coarse, fine)]


def test_criterion_4_balance_laws(catalog_results, tmp_path):
    by_id = catalog_results["by_id"]
    worst = {"mass": 0.0, "energy": 0.0, "momentum": 0.0}
    for sid in SMOOTH_IDS:
        bal = by_id[sid].balance
        worst["mass"] = max(worst["mass"], bal.mass_residual)
        worst["energy"] = max(worst["energy"], bal.energy_residual)
        worst["momentum"] = max(worst["momentum"], bal.momentum_residual)

    rows = by_id["decay_constant"].rows
    t, energy, h, mass = (
        rows.column(name).tolist() for name in ("t", "energy", "h_value", "mass_sq")
    )
    i = len(rows) // 2
    span = t[i + 1] - t[i - 1]
    fd = (energy[i + 1] - energy[i - 1]) / span
    h_mid = h[i]
    fd_rel = abs(fd - h_mid) / max(abs(h_mid), 1e-12)

    m0 = mass[0]
    decay_dev = max(
        abs(m - m0 * math.exp(-t_i)) / m0 for t_i, m in zip(t, mass)
    )

    ratios = _shrink_ratios(tmp_path)
    print(
        f"criterion 4: residuals mass={worst['mass']:.3e} "
        f"energy={worst['energy']:.3e} momentum={worst['momentum']:.3e} "
        f"fd_rel={fd_rel:.3e} const_decay_dev={decay_dev:.3e} "
        f"shrink={min(ratios):.2f}x"
    )
    assert fd * h_mid > 0.0
    assert fd_rel < TOL["fd_match"]
    for key, value in worst.items():
        assert value < TOL["balance_residual"], key
    assert decay_dev < TOL["const_decay"]
    assert min(ratios) >= TOL["shrink_factor"]


def test_criterion_5_mass_envelope(catalog_results):
    results = catalog_results["results"]
    for r in results:
        assert r.balance is not None
        assert r.balance.envelope_ok, r.config.scenario_id
    worst_violation = max(r.balance.max_envelope_violation for r in results)

    rows = catalog_results["by_id"]["decay_constant"].rows
    t, mass = rows.column("t").tolist(), rows.column("mass_sq").tolist()
    m0 = mass[0]
    sup = 0.5
    saturation = (
        max(abs(m - m0 * math.exp(-2.0 * sup * t_i)) for t_i, m in zip(t, mass)) / m0
    )
    print(
        f"criterion 5: {len(results)} envelopes ok, "
        f"worst_violation={worst_violation:.3e} lower_saturation={saturation:.3e}"
    )
    assert saturation < TOL["envelope_saturation"]


def test_criterion_6_global_existence(catalog_results):
    ratios = []
    for sid in GLOBAL_IDS:
        r = catalog_results["by_id"][sid]
        check = {c.claim: c for c in r.checks}["global_existence"]
        ratio = r.report.peak_grad_sq / r.rows.column("grad_sq")[0].item()
        masses = r.rows.column("mass_sq").tolist()
        assert r.report.stop_reason is StopReason.HORIZON_REACHED
        assert not r.report.blew_up
        assert check.status == STATUS_PASS
        assert ratio < TOL["peak_grad_ratio"]
        assert all(b < a for a, b in zip(masses, masses[1:])), sid
        ratios.append(ratio)
    print(
        "criterion 6: horizon reached on all three, peak gradient ratios "
        + ", ".join(f"{x:.3f}" for x in ratios)
    )


def test_criterion_7_blowup_and_concentration(catalog_results):
    r = catalog_results["by_id"]["collapse_free_1p2"]
    e0 = r.rows.column("energy")[0].item()
    check = {c.claim: c for c in r.checks}["concentration"]
    print(
        f"criterion 7: E0={e0:.6f} blew_up={r.report.blew_up} "
        f"t_detect={r.report.t_detect:.4f} window_fraction={check.observed:.4f}"
    )
    assert e0 == pytest.approx(-1.0516, abs=TOL["energy_near"])
    assert r.report.blew_up
    assert r.report.stop_reason is StopReason.TAIL_UNRESOLVED
    assert 0.2 < r.report.t_detect < 0.35
    assert check.status == STATUS_PASS
    assert check.observed >= TOL["conc_fraction"]
    window = r.rows.column("window_w")
    assert window[-1] < window[0]


def test_criterion_8_conditional_time_bound(catalog_results, gs_1d):
    q_norm = math.sqrt(gs_1d.mass_sq)
    parts = []
    for sid in BOUND_IDS:
        r = catalog_results["by_id"][sid]
        check = {c.claim: c for c in r.checks}["blowup_time_bound"]
        terminal_norm = math.sqrt(r.report.terminal_mass_sq)
        assert r.report.blew_up
        assert check.status == STATUS_PASS
        assert check.observed > check.bound_value
        assert check.margin > 0.0
        assert terminal_norm >= TOL["terminal_mass_fraction"] * q_norm
        parts.append(
            f"{sid} t={check.observed:.4f}>bound={check.bound_value:.4f} "
            f"terminal_norm={terminal_norm:.4f}"
        )
    for r in catalog_results["results"]:
        claims = {c.claim: c for c in r.checks}
        if "blowup_time_bound" in claims:
            assert claims["blowup_time_bound"].status != STATUS_FAIL
        if not r.report.blew_up:
            assert "blowup_time_bound" not in claims
    print("criterion 8: " + "; ".join(parts))


def test_criterion_9_suite_determinism(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH entry no longer
    # resolves; put the directory of the package this process imported first.
    env = dict(os.environ)
    package_root = str(Path(nlsdamp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def invoke(tag):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(f"outputs = {out}\nt_end = 1.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nlsdamp.cli", "suite", "--config", str(cfg)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, f"PYTHONPATH={env['PYTHONPATH']}\n{proc.stderr}"
        return out

    first = invoke("first")
    second = invoke("second")
    names = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    assert len(names) == 9
    for rel in names:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)
    print(f"criterion 9: {len(names)} csv files byte-identical across two suite runs")
