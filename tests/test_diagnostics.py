"""Diagnostics rows, balance residuals, envelopes, windowed concentration,
and the interpolation functional, each pinned by an independent oracle."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import traced_held, traced_peak
from reference import (
    closed_form_q_1d,
    csv_line,
    diagnostics_row,
    row_table,
    snapshot_block,
    windowed_mass,
)

from nlsdamp import (
    BalanceReport,
    ComplexField,
    DampingProfile,
    DampingSpec,
    Grid,
    SimConfig,
    TrajectoryRecorder,
    balance_report,
    build_damping,
    build_initial,
    compute_row,
    energy_balance_residual,
    ensure_ground_state,
    evolve,
    gn_ratio,
    load_scenario_config,
    mass_balance_residual,
    mass_envelope_check,
    momentum_balance_residual,
    norms,
    sharp_gn_constant,
)
from nlsdamp.cli import main
from nlsdamp.diagnostics import (
    _windows,
    csv_header,
    random_smooth_field,
)
from nlsdamp.spectral import grid_dot

TOL = {
    "fd_energy": 1e-4,
    "fd_mass": 1e-4,
    "row_energy": 1e-9,
    "row_momentum": 1e-12,
    "row_reduction": 1e-8,
    "boosted_momentum": 1e-10,
    "mass_res_free": 1e-10,
    "mass_res_damped": 1e-8,
    "energy_res_free": 1e-8,
    "shrink_factor": 3.5,
    "momentum_res_symmetric": 1e-10,
    "momentum_decay": 1e-6,
    "momentum_res_bump": 1e-5,
    "momentum_law_gate": 1e-5,
    "momentum_rows_match": 1e-12,
    "momentum_column_vs_fields": 1e-12,
    "row_growth_per_field": 0.25,
    "two_bump_rel": 1e-3,
    "big_window_fraction": 0.999,
    "gn_at_optimum": 1e-9,
    "gn_scale_invariance": 1e-12,
    "gn_gaussian": 1e-10,
}

Q_MASS_SQ = math.pi * math.sqrt(3.0) / 2.0


def _bump_profile(grid, amp=1.0, s=2.0):
    s2 = s * s
    x = grid.axis
    grad = -amp * (x / s2) * np.exp(-x * x / (2.0 * s2))
    return DampingProfile(grid, amp * np.exp(-x * x / (2.0 * s2)), lambda j: grad)


def _record(u0, a, gs, dt0=1e-3, t_end=0.5, record_every=5):
    cfg = SimConfig(dt0=dt0, t_end=t_end, adapt_const=1e-2, record_every=record_every)
    rec = TrajectoryRecorder(a, gs.grad_sq)
    evolve(u0, a, cfg, rec)
    return rec


def test_balance_sign_oracle(gs_1d):
    """Centered differences along a fine trajectory pin both balance laws:
    the energy rate equals +H (not -H) and the mass rate carries factor 2."""
    g = gs_1d.grid
    a = DampingProfile.constant(g, 0.5)
    rec = _record(ComplexField(g, 0.9 * gs_1d.profile), a, gs_1d,
                  dt0=2e-4, t_end=0.02, record_every=1)
    t, energy, h, mass, a_u2 = (
        rec.rows.column(name).tolist() for name in ("t", "energy", "h_value", "mass_sq", "int_a_u2")
    )
    assert len(t) >= 21
    scale_h = max(abs(x) for x in h)
    scale_m = mass[0]
    err_plus = err_minus = err_two = err_one = 0.0
    for i in range(1, len(t) - 1):
        span = t[i + 1] - t[i - 1]
        fd_e = (energy[i + 1] - energy[i - 1]) / span
        err_plus = max(err_plus, abs(fd_e - h[i]))
        err_minus = max(err_minus, abs(fd_e + h[i]))
        fd_m = (mass[i + 1] - mass[i - 1]) / span
        err_two = max(err_two, abs(fd_m + 2.0 * a_u2[i]))
        err_one = max(err_one, abs(fd_m + 1.0 * a_u2[i]))
    print(f"energy rate: |fd - (+H)| = {err_plus:.3e}, |fd - (-H)| = {err_minus:.3e}")
    print(f"mass rate: |fd + 2*aU| = {err_two:.3e}, |fd + 1*aU| = {err_one:.3e}")
    assert err_plus < TOL["fd_energy"] * scale_h
    assert err_minus > 0.5 * scale_h
    assert err_two < TOL["fd_mass"] * scale_m
    assert err_one > 0.1 * scale_m


def test_row_ground_state_free(gs_1d):
    row = diagnostics_row(gs_1d.field(), DampingProfile.zero(gs_1d.grid),
                          gs_1d.grad_sq)
    assert abs(row["energy"]) < TOL["row_energy"]
    assert abs(row["p_1"]) < TOL["row_momentum"]
    assert row["h_value"] == 0.0
    assert row["int_a_u2"] == 0.0
    assert row["int_a_grad2"] == 0.0
    assert row["re_grad_a_term"] == 0.0
    assert row["window_w"] == pytest.approx(1.0, rel=1e-12)
    # closed-form windowed mass over |x| <= 1 is sqrt(3)*atan(sinh 2)
    exact = math.sqrt(3.0) * math.atan(math.sinh(2.0))
    assert row["conc_mass"] == pytest.approx(exact, rel=2e-2)


def test_row_constant_damping_reduction(gs_1d):
    # With a = 1 the dissipation functional reduces to lp - grad, which for
    # the ground state equals its squared critical norm.
    row = diagnostics_row(gs_1d.field(), DampingProfile.constant(gs_1d.grid, 1.0),
                          1.0)
    assert row["re_grad_a_term"] == 0.0
    assert row["int_a_u2"] == pytest.approx(row["mass_sq"], rel=1e-13)
    assert row["h_value"] == pytest.approx(Q_MASS_SQ, abs=TOL["row_reduction"])


def test_row_boosted_momentum():
    g = Grid(1, 256, 20.0)
    k0 = g.wavenumbers[8]
    x = g.axis
    u = ComplexField(g, np.exp(-0.5 * x * x) * np.exp(1j * k0 * x))
    row = diagnostics_row(u, DampingProfile.zero(g), 1.0)
    assert [name for name in row if name.startswith("p_")] == ["p_1"]
    assert row["p_1"] == pytest.approx(k0 * math.sqrt(math.pi),
                                       rel=TOL["boosted_momentum"])


def test_row_zero_field():
    g = Grid(1, 64, 10.0)
    row = diagnostics_row(ComplexField(g, np.zeros(g.shape)),
                          DampingProfile.zero(g), 1.0)
    assert row["mass_sq"] == 0.0
    assert row["conc_mass"] == 0.0
    assert row["window_w"] == 0.0


def test_csv_header_exact():
    assert csv_header(1) == (
        "t,mass_sq,energy,p_1,grad_sq,lp_power,h_value,int_a_u2,int_a_grad2,"
        "int_a_lp,re_grad_a_term,int_a_im_grad_1,dt_used,tail_fraction,conc_mass,window_w"
    )
    assert csv_header(2).split(",")[3:5] == ["p_1", "p_2"]
    assert len(csv_header(3).split(",")) == 20


def test_csv_line_roundtrips_floats():
    table = row_table(t=[0.5, 1e-9], mass_sq=[1.25, math.pi], energy=[-0.75, 0.0],
                      h_value=[-1.0, 0.0], int_a_u2=[0.5, 0.0])
    lines = list(table.csv_lines())
    parts = lines[0].split(",")
    assert len(parts) == 16
    assert float(parts[0]) == 0.5
    assert float(parts[1]) == 1.25
    assert float(parts[2]) == -0.75
    assert float(lines[1].split(",")[0]) == 1e-9
    assert float(lines[1].split(",")[1]) == math.pi
    assert csv_line([0.5, 1.25, -0.75] + [0.0] * 13).split(",")[:3] == parts[:3]


def test_mass_residual_free_soliton(gs_1d):
    rec = _record(gs_1d.field(), DampingProfile.zero(gs_1d.grid), gs_1d)
    assert mass_balance_residual(rec.rows) < TOL["mass_res_free"]
    assert energy_balance_residual(rec.rows) < TOL["energy_res_free"]


def test_mass_residual_constant_damping(gs_1d):
    a = DampingProfile.constant(gs_1d.grid, 0.5)
    rec = _record(ComplexField(gs_1d.grid, 0.9 * gs_1d.profile), a, gs_1d,
                  record_every=2)
    assert mass_balance_residual(rec.rows) < TOL["mass_res_damped"]


def test_residuals_shrink_with_dt(gs_1d):
    a = DampingProfile.constant(gs_1d.grid, 0.5)
    u0 = ComplexField(gs_1d.grid, 0.9 * gs_1d.profile)
    coarse = _record(u0, a, gs_1d, dt0=1e-3, t_end=0.25, record_every=2)
    fine = _record(u0, a, gs_1d, dt0=5e-4, t_end=0.25, record_every=2)
    for residual in (mass_balance_residual, energy_balance_residual):
        rc = residual(coarse.rows)
        rf = residual(fine.rows)
        assert rf > 0.0
        assert rc / rf > TOL["shrink_factor"]


def test_momentum_residual_symmetric(gs_1d):
    rec = _record(gs_1d.field(), _bump_profile(gs_1d.grid), gs_1d, record_every=5)
    res = momentum_balance_residual(rec.rows)
    assert res < TOL["momentum_res_symmetric"]


def test_momentum_decay_boosted_constant(gs_1d):
    g = gs_1d.grid
    k0 = g.wavenumbers[8]
    u0 = ComplexField(g, 0.9 * gs_1d.profile * np.exp(1j * k0 * g.axis))
    a0 = 0.5
    a = DampingProfile.constant(g, a0)
    rec = _record(u0, a, gs_1d, record_every=10)
    t, p = rec.rows.column("t").tolist(), rec.rows.column("p_1").tolist()
    p0 = p[0]
    assert p0 > 0.0
    worst = max(abs(p_t - p0 * math.exp(-2.0 * a0 * t_i)) / p0 for t_i, p_t in zip(t, p))
    assert worst < TOL["momentum_decay"]


def test_momentum_residual_boosted_bump(gs_1d):
    g = gs_1d.grid
    k0 = g.wavenumbers[8]
    u0 = ComplexField(g, 0.9 * gs_1d.profile * np.exp(1j * k0 * g.axis))
    rec = _record(u0, _bump_profile(g), gs_1d, t_end=0.25, record_every=2)
    res = momentum_balance_residual(rec.rows)
    assert res < TOL["momentum_res_bump"]


def test_momentum_residual_needs_aligned_fields(gs_1d):
    rows = _record(gs_1d.field(), DampingProfile.zero(gs_1d.grid), gs_1d).rows
    first = row_table(**{name: rows.column(name)[:1] for name in rows.names})
    with pytest.raises(ValueError):
        momentum_balance_residual(first)


# A boosted ground state starts on the damping bump and moves off it; the
# damping takes most of its momentum, so P_1 falls by O(1) over the run.
# Rows every 5 steps, as in the catalog.
BOOSTED_RUN = """\
id = boosted_bump
dim = 1
n = 512
initial_data = boosted_ground_state
initial_scale = 0.9
initial_velocity = 1.0
damping = gaussian_bump
damping_amplitude = 1.0
damping_sigma = 2.0
t_end = 2.0
record_every = 5
outputs = {out}
"""


def test_momentum_law_bites_and_reads_from_rows(tmp_path, capsys):
    cfg_path = tmp_path / "boosted.cfg"
    cfg_path.write_text(BOOSTED_RUN.format(out=tmp_path / "out"))
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "out" / "boosted_bump"
    with open(run_dir / "rows.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    cols = {name: [float(v) for v in vals] for name, vals in zip(header, zip(*body))}
    balance = json.loads((run_dir / "balance.json").read_text())

    t, p, ap = cols["t"], cols["p_1"], cols["int_a_im_grad_1"]
    assert p[-1] < 0.5 * p[0]
    scale = cols["mass_sq"][0] * math.sqrt(cols["grad_sq"][0])
    # dP_1/dt = -2 ∫a Im(∂_1 u ū), by the trapezoid rule between rows.
    defect = max(
        abs(p[i + 1] - p[i] + (t[i + 1] - t[i]) * (ap[i] + ap[i + 1]))
        for i in range(len(t) - 1)
    ) / scale
    print(f"P_1 {p[0]:.3f} -> {p[-1]:.3f}, momentum residual {defect:.3e}")
    assert defect == pytest.approx(balance["momentum_residual"], rel=TOL["momentum_rows_match"])
    assert defect < TOL["momentum_law_gate"]

    # The same run again, keeping the snapshot fields to recompute the column.
    cfg = load_scenario_config(cfg_path)
    gs = ensure_ground_state(cfg.dim, cfg.n, cfg.box, cfg.gs_tol,
                             cache_dir=tmp_path / "out" / "gs_cache")
    a = build_damping(gs.grid, cfg.damping)
    snapshots = []
    evolve(build_initial(gs.grid, cfg.initial, gs), a, cfg.sim,
           sink=lambda s: snapshots.append((s.time, np.fft.ifftn(s.spectrum))))
    assert [time for time, _ in snapshots] == t
    g = gs.grid
    for (_, values), column in zip(snapshots, ap):
        grad = np.fft.ifftn(1j * g.k_mesh[0] * np.fft.fftn(values))
        expected = (a.values * (grad * values.conj()).imag).sum() * g.cell_volume
        assert abs(column - expected) <= TOL["momentum_column_vs_fields"] * scale


def test_recorded_run_memory_grows_by_rows_not_fields():
    g = Grid(1, 2048, 20.0)
    u0 = ComplexField(g, 0.9 * closed_form_q_1d(g.axis))
    a = _bump_profile(g)
    dt = 1e-4

    def recorded_peak(steps):
        cfg = SimConfig(dt0=dt, t_end=steps * dt, record_every=1)
        rec = TrajectoryRecorder(a, 1.0)
        peak = traced_peak(lambda: evolve(u0, a, cfg, rec))
        return len(rec.rows), peak

    rows_short, peak_short = recorded_peak(20)
    rows_long, peak_long = recorded_peak(80)
    assert rows_long - rows_short >= 60
    per_row = (peak_long - peak_short) / (rows_long - rows_short)
    print(f"peak growth {per_row:.0f} B per row; one field is {u0.values.nbytes} B")
    assert per_row < TOL["row_growth_per_field"] * u0.values.nbytes


def _row_peak(g, a):
    """Peak traced bytes of a warmed row (ball spectrum cached) on a block of
    one whose field and spectrum already exist, in complex grid arrays."""
    values = 3.0 * random_smooth_field(g, np.random.default_rng(5)).values
    block = snapshot_block(ComplexField(g, values))
    compute_row(*block, a, 1.0)
    return traced_peak(lambda: compute_row(*block, a, 1.0)) / values.nbytes


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64), (3, 32)])
def test_row_temporaries_stay_below_four_grid_arrays(dim, n):
    g = Grid(dim, n, 10.0)
    peak = _row_peak(g, build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0)))
    print(f"row peak {peak:.2f} complex grid arrays")
    assert peak < 4.0


def test_row_derivatives_share_one_array_at_64_squared():
    # ∂_1 u and ∂_2 u are formed in one array in turn, so a warmed 2-D row
    # peaks near 2.1 complex grid arrays; an array per axis makes about 3.1.
    g = Grid(2, 64, 10.0)
    peak = _row_peak(g, build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0)))
    print(f"row peak {peak:.2f} complex grid arrays")
    assert peak < 2.5


def test_zero_damping_holds_no_gradient_arrays():
    # Each vanishing gradient component is one zero broadcast with stride 0,
    # so the zero profile at 64³ holds a(x) alone, 2 MiB (8 MiB with three
    # full-grid zero gradients).
    g = Grid(3, 64, 10.0)
    held = traced_held(lambda: DampingProfile.zero(g))
    print(f"zero profile holds {held / 2**20:.2f} MiB")
    assert held <= 2.1 * 2**20
    for grad in map(DampingProfile.zero(g).gradient, range(g.dim)):
        assert grad.strides == (0, 0, 0)
        assert not grad.flags.writeable


def test_bump_damping_holds_no_gradient_arrays():
    # A bump's ∂_j a = -(x_j/σ²)·a is formed when a row reads it, so the
    # profile at 64³ holds a(x) alone, as the zero profile does (8 MiB with
    # three stored full-grid gradients).
    g = Grid(3, 64, 10.0)
    spec = DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0)
    held = traced_held(lambda: build_damping(g, spec))
    print(f"bump profile holds {held / 2**20:.2f} MiB")
    assert held <= 2.1 * 2**20


def test_grid_dot_reads_a_zero_gradient_without_copying_it():
    g = Grid(3, 32, 10.0)
    x = np.random.default_rng(3).standard_normal((2, *g.shape))
    zero = DampingProfile.zero(g).gradient(0)
    assert grid_dot(x, zero).tolist() == [0.0, 0.0]
    assert traced_peak(lambda: grid_dot(x, zero)) < 0.1 * x[0].nbytes


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64), (3, 16)])
def test_norms_are_the_row_integrals(dim, n):
    # norms and a diagnostics row form the three integrals the same way.
    g = Grid(dim, n, 10.0)
    u = random_smooth_field(g, np.random.default_rng(dim))
    nm = norms(u)
    row = diagnostics_row(u, DampingProfile.zero(g), 1.0)
    for name in ("mass_sq", "grad_sq", "lp_power"):
        assert getattr(nm, name).hex() == row[name].hex(), name


def test_zero_damping_row_peak_at_64_cubed():
    # A warmed 3-D row on zero damping peaks where it did with full-grid zero
    # gradients: 2.047 complex grid arrays.
    g = Grid(3, 64, 10.0)
    peak = _row_peak(g, DampingProfile.zero(g))
    print(f"row peak {peak:.3f} complex grid arrays")
    assert peak <= 2.05


def _nan_rows(name, value):
    # Three rows of an exact undamped ledger, the middle one broken in one column.
    columns = {"t": [0.0, 0.5, 1.0], "mass_sq": [1.0] * 3, "grad_sq": [1.0] * 3}
    column = LEDGER_READS[name][0]
    broken = list(columns.get(column, [0.0] * 3))
    broken[1] = value
    return row_table(**{**columns, column: broken})


# (the rows.csv column, the ledgers that read it)
LEDGER_READS = {
    "time": ("t", ("mass", "energy", "momentum", "envelope")),
    "mass_sq": ("mass_sq", ("mass", "envelope")),
    "int_a_u2": ("int_a_u2", ("mass",)),
    "energy": ("energy", ("energy",)),
    "h_value": ("h_value", ("energy",)),
    "momentum": ("p_1", ("momentum",)),
    "int_a_im_grad": ("int_a_im_grad_1", ("momentum",)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(LEDGER_READS))
def test_ledger_reports_non_finite_row(name, value):
    # max() and min() skip a NaN; the ledger must not read one as exact.
    a = DampingProfile.zero(Grid(1, 16, 5.0))
    clean = _nan_rows("time", 0.5)
    assert balance_report(clean, a) == BalanceReport(0.0, 0.0, 0.0, True, 0.0)
    rows = _nan_rows(name, value)
    reads = LEDGER_READS[name][1]
    residuals = {
        "mass": mass_balance_residual(rows),
        "energy": energy_balance_residual(rows),
        "momentum": momentum_balance_residual(rows),
    }
    for law, residual in residuals.items():
        assert math.isnan(residual) == (law in reads), law
    worst = mass_envelope_check(rows, a)
    bal = balance_report(rows, a)
    assert (worst >= 0.0) == bal.envelope_ok == ("envelope" not in reads)
    if "envelope" in reads:
        assert math.isnan(worst) and math.isnan(bal.max_envelope_violation)


def test_envelope_holds_and_saturates(gs_1d):
    a = DampingProfile.constant(gs_1d.grid, 0.5)
    rec = _record(ComplexField(gs_1d.grid, 0.9 * gs_1d.profile), a, gs_1d)
    worst = mass_envelope_check(rec.rows, a)
    # Constant damping makes the lower envelope an equality up to the slack.
    u0_norm = math.sqrt(rec.rows.column("mass_sq")[0])
    assert 0.0 <= worst < 2e-8 * u0_norm


def test_envelope_flags_synthetic_violation():
    g = Grid(1, 16, 5.0)
    a = DampingProfile.zero(g)
    rows = row_table(t=[0.0, 1.0], mass_sq=[1.0, 4.0], grad_sq=[1.0, 1.0])
    assert mass_envelope_check(rows, a) < 0.0
    bal = balance_report(rows, a)
    assert not bal.envelope_ok
    assert bal.max_envelope_violation == pytest.approx(1.0, abs=1e-6)
    assert bal.momentum_residual == 0.0
    with pytest.raises(ValueError):
        mass_envelope_check(row_table(), a)
    with pytest.raises(ValueError):
        mass_balance_residual(row_table(t=[0.0], mass_sq=[1.0], grad_sq=[1.0]))


def test_concentration_big_window_captures_profile(gs_1d):
    value = windowed_mass(gs_1d.field(), 5.0)
    assert value >= TOL["big_window_fraction"] * gs_1d.mass_sq
    assert value <= gs_1d.mass_sq + 1e-12


def test_concentration_two_bump_oracle():
    g = Grid(1, 512, 20.0)
    q = closed_form_q_1d(g.axis)
    shift = 64  # exactly 5 length units at this spacing
    u = ComplexField(g, np.roll(q, shift) + np.roll(q, -shift))
    exact = math.sqrt(3.0) * math.atan(math.sinh(4.0))
    assert windowed_mass(u, 2.0) == pytest.approx(exact, rel=TOL["two_bump_rel"])


def test_concentration_monotone_in_window(gs_1d):
    v1 = windowed_mass(gs_1d.field(), 1.0)
    v2 = windowed_mass(gs_1d.field(), 2.0)
    v5 = windowed_mass(gs_1d.field(), 5.0)
    assert v1 < v2 < v5


def test_concentration_window_validation(gs_1d):
    with pytest.raises(ValueError):
        windowed_mass(gs_1d.field(), 0.0)
    with pytest.raises(ValueError):
        windowed_mass(gs_1d.field(), -1.0)
    with pytest.raises(ValueError):
        windowed_mass(gs_1d.field(), gs_1d.grid.half_width)


def test_gn_ratio_optimal_at_ground_state(gs_1d):
    j_q = gn_ratio(gs_1d.field())
    exact = 4.0 / math.pi**2
    assert j_q == pytest.approx(exact, rel=TOL["gn_at_optimum"])
    sharp = sharp_gn_constant(1, gs_1d.mass_sq)
    assert sharp == pytest.approx(exact, rel=1e-8)
    assert abs(j_q - sharp) < 1e-6 * sharp


def test_gn_ratio_invariances(gs_1d):
    base = gn_ratio(gs_1d.field())
    scaled = gn_ratio(ComplexField(gs_1d.grid, 2.0 * gs_1d.profile))
    assert scaled == pytest.approx(base, rel=TOL["gn_scale_invariance"])
    moved = ComplexField(
        gs_1d.grid, np.roll(gs_1d.profile, 17) * np.exp(0.7j)
    )
    assert gn_ratio(moved) == pytest.approx(base, rel=1e-10)


def test_gn_ratio_gaussian_value():
    g = Grid(1, 256, 20.0)
    f = ComplexField(g, np.exp(-g.axis * g.axis))
    exact = 2.0 / (math.pi * math.sqrt(3.0))
    assert gn_ratio(f) == pytest.approx(exact, rel=TOL["gn_gaussian"])


def test_gn_random_fields_below_sharp(gs_1d):
    grid = Grid(1, 256, 15.0)
    sharp = sharp_gn_constant(1, gs_1d.mass_sq)
    rng = np.random.default_rng(2024)
    worst = max(gn_ratio(random_smooth_field(grid, rng)) for _ in range(200))
    assert worst < sharp


def test_gn_ratio_zero_field_raises():
    g = Grid(1, 32, 5.0)
    with pytest.raises(ValueError):
        gn_ratio(ComplexField(g, np.zeros(g.shape)))


def test_window_rules():
    # w = (‖∇Q‖/‖∇u‖)^(1/2) for ‖∇Q‖² = 4; no gradient content gives the 0.99 L clamp.
    g = Grid(1, 64, 10.0)
    block = np.ones((3, *g.shape))
    _, radius = _windows(g, block, np.ones(3), np.array([4.0, 64.0, 0.0]), 4.0)
    assert radius[0] == pytest.approx(1.0, rel=1e-15)
    assert radius[1] == pytest.approx(0.5, rel=1e-15)
    assert radius[2] == 0.99 * g.half_width
    a = DampingProfile.zero(g)
    with pytest.raises(ValueError):
        TrajectoryRecorder(a, 0.0)
    with pytest.raises(ValueError):
        compute_row(*snapshot_block(ComplexField(g, np.ones(g.shape))), a, 0.0)
