"""Splitting substeps, the exact damping kick, adaptive stepping, and guards."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from reference import boundary_mask, field_of, state_of, strang_step, tail_mask

from nlsdamp import (
    ComplexField,
    ConfigurationError,
    DampingProfile,
    DampingSpec,
    Grid,
    SimConfig,
    StopReason,
    build_damping,
    catalog,
    evolve,
    norms,
    run_scenario,
)
from nlsdamp.diagnostics import random_smooth_field
from nlsdamp.evolution import (
    BOUNDARY_MASS_LIMIT,
    _chebyshev,
    _dt_from_grad,
    _spectral_norms,
    _StrangKernel,
)

TOL = {
    "dispersion": 1e-12,
    "mass_preserved": 1e-12,
    "identity_step": 1e-13,
    "kick_amplitude": 1e-14,
    "kick_phase": 1e-12,
    "branch_seam": 1e-12,
    "reversible_free": 1e-12,
    "reversible_damped": 1e-10,
    "soliton_t1": 3e-5,
    "mass_decay": 1e-12,
    "dt_from_grad": 1e-12,
}

# Phase rate of the unit-amplitude kick at a = ln2/dt in one dimension:
# (1 - 2^-4) / (4 ln 2).
KICK_PHASE_RATE = 0.3381316502083508


def _gaussian_field(grid):
    return ComplexField(grid, np.exp(-0.5 * sum(c * c for c in grid.coords)))


def _bump(grid, amp, s2):
    x = grid.axis
    vals = amp * np.exp(-x * x / (2.0 * s2))
    grad = -(x / s2) * vals
    return DampingProfile(grid, vals, lambda j: grad)


def _kicked(field_, a, dt):
    """The kernel's damping kick of a copy of the field over dt."""
    u = field_.values.copy()
    _StrangKernel(field_.grid, a).kick(u, dt)
    return ComplexField(field_.grid, u)


def test_phase_free_dispersion():
    # exp(-x^2/2) spreads so that |u(1/2, 0)|^2 = 2^(-1/2) under the free flow.
    g = Grid(1, 256, 20.0)
    u_hat = np.fft.fft(_gaussian_field(g).values)
    _StrangKernel(g, DampingProfile.zero(g)).phase(u_hat, 0.5)
    out = ComplexField(g, np.fft.ifft(u_hat))
    center = g.points_per_axis // 2
    assert g.axis[center] == 0.0
    value = abs(out.values[center]) ** 2
    assert abs(value - 2.0**-0.5) < TOL["dispersion"]
    assert abs(norms(out).mass_sq - norms(_gaussian_field(g)).mass_sq) < TOL["mass_preserved"]


def test_strang_step_zero_dt_is_identity():
    g = Grid(1, 128, 10.0)
    f = _gaussian_field(g)
    state = state_of(_gaussian_field(g))
    out = strang_step(state, DampingProfile.zero(g), 0.0)
    assert out.time == 0.0
    assert out.step_count == 1
    assert np.max(np.abs(field_of(out, g).values - f.values)) < TOL["identity_step"]


def test_kick_halves_amplitude_at_log2_rate():
    g = Grid(1, 64, 10.0)
    ones = ComplexField(g, np.ones(g.shape))
    dt = 0.25
    a = DampingProfile.constant(g, math.log(2.0) / dt)
    out = _kicked(ones, a, dt)
    amp = np.abs(out.values)
    phase = np.angle(out.values)
    assert np.max(np.abs(amp - 0.5)) < TOL["kick_amplitude"]
    assert np.max(np.abs(phase - KICK_PHASE_RATE * dt)) < TOL["kick_phase"] * dt


def test_kick_zero_damping_pure_rotation():
    g = Grid(1, 64, 10.0)
    ones = ComplexField(g, np.ones(g.shape))
    dt = 0.3
    out = _kicked(ones, DampingProfile.zero(g), dt)
    assert np.max(np.abs(np.abs(out.values) - 1.0)) < 1e-14
    assert np.max(np.abs(np.angle(out.values) - dt)) < 1e-14


def test_kick_branch_seam():
    # Series and exact phase factors agree through the small-argument switch.
    for z in (1e-12, 1e-9, 4e-7, 1e-6, 4e-6, 1e-5):
        series = 1.0 - z / 2.0 + z * z / 6.0
        exact = -math.expm1(-z) / z
        assert abs(series - exact) < TOL["branch_seam"]
    g = Grid(1, 16, 10.0)
    ones = ComplexField(g, np.ones(g.shape))
    for adt in (0.99e-6, 1.01e-6):
        out = _kicked(ones, DampingProfile.constant(g, adt), 1.0)
        z = 4.0 * adt
        expected = -math.expm1(-z) / z
        assert np.max(np.abs(np.angle(out.values) - expected)) < TOL["branch_seam"]


def test_strang_step_reversible():
    g = Grid(1, 256, 20.0)
    f = _gaussian_field(g)
    dt = 1e-2
    zero = DampingProfile.zero(g)
    fwd = strang_step(state_of(_gaussian_field(g)), zero, dt)
    back = strang_step(fwd, zero, -dt)
    assert np.max(np.abs(field_of(back, g).values - f.values)) < TOL["reversible_free"]

    bump = _bump(g, 0.8, 4.0)
    fwd = strang_step(state_of(_gaussian_field(g)), bump, dt)
    back = strang_step(fwd, bump, -dt)
    assert np.max(np.abs(field_of(back, g).values - f.values)) < TOL["reversible_damped"]


def test_soliton_accuracy_at_unit_time(gs_1d):
    # Undamped ground-state data rotates in phase; frozen second-order error
    # level at dt = 1e-3 verified against a high-order spectral reference.
    g = gs_1d.grid
    zero = DampingProfile.zero(g)
    dt = 1e-3
    state = state_of(gs_1d.field())
    for _ in range(1000):
        state = strang_step(state, zero, dt)
    out = field_of(state, g)
    exact = np.exp(1j * 1.0) * gs_1d.profile
    diff = out.values - exact
    err = math.sqrt(float((np.abs(diff) ** 2).sum()) * g.cell_volume)
    assert err < TOL["soliton_t1"]
    mass_drift = abs(norms(out).mass_sq - gs_1d.mass_sq) / gs_1d.mass_sq
    assert mass_drift < TOL["mass_preserved"]


def test_constant_damping_exact_mass_decay(gs_1d):
    g = gs_1d.grid
    a0 = 0.5
    a = DampingProfile.constant(g, a0)
    u0 = ComplexField(g, 0.9 * gs_1d.profile)
    m0 = norms(u0).mass_sq
    state = state_of(u0)
    dt = 1e-3
    for _ in range(200):
        state = strang_step(state, a, dt)
    expected = m0 * math.exp(-2.0 * a0 * 0.2)
    assert abs(norms(field_of(state, g)).mass_sq - expected) < TOL["mass_decay"] * m0


def test_dt_from_grad_arithmetic():
    g = Grid(1, 128, 10.0)
    k0 = g.wavenumbers[16]
    mode = ComplexField(g, np.exp(1j * k0 * g.axis))
    grad_sq = norms(mode).grad_sq
    assert grad_sq == pytest.approx(k0 * k0 * 2.0 * g.half_width, rel=1e-12)
    # The step rule reads ‖∇u‖² from the spectrum, as evolve does.
    weights = np.stack([g.k2, np.zeros(g.shape)])
    spectral_grad_sq = _spectral_norms(np.fft.fft(mode.values), g, weights)[1]
    mid = SimConfig(dt0=0.1, t_end=1.0, adapt_const=0.01 * grad_sq, dt_min=1e-9)
    assert _dt_from_grad(spectral_grad_sq, mid) == pytest.approx(0.01, rel=TOL["dt_from_grad"])
    high = SimConfig(dt0=0.1, t_end=1.0, adapt_const=10.0 * grad_sq, dt_min=1e-9)
    assert _dt_from_grad(spectral_grad_sq, high) == 0.1
    # Below the floor the rule's value is returned, not dt_min: evolve stops on it.
    low = SimConfig(dt0=0.1, t_end=1.0, adapt_const=1e-10 * grad_sq, dt_min=1e-9)
    assert _dt_from_grad(spectral_grad_sq, low) == pytest.approx(1e-10, rel=TOL["dt_from_grad"])
    zero_grad_sq = _spectral_norms(np.zeros(g.shape, dtype=np.complex128), g, weights)[1]
    assert _dt_from_grad(zero_grad_sq, mid) == mid.dt0


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt0=1e-8, dt_min=1e-7)
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(adapt_const=0.0)
    with pytest.raises(ValueError):
        SimConfig(tail_threshold=1.0)
    with pytest.raises(ValueError):
        SimConfig(record_every=0)
    with pytest.raises(ValueError):
        SimConfig(blowup_grad_ratio=1.0)


def test_evolve_zero_field_runs_clean():
    g = Grid(1, 64, 10.0)
    u0 = ComplexField(g, np.zeros(g.shape))
    a = DampingProfile.zero(g)
    cfg = SimConfig(dt0=1e-3, t_end=5e-3, record_every=1)
    seen = []
    report = evolve(u0, a, cfg, sink=lambda s: seen.append(s.time))
    assert report.stop_reason is StopReason.HORIZON_REACHED
    assert not report.blew_up
    assert report.terminal_mass_sq == 0.0
    assert report.scale_at_detect == math.inf
    assert len(seen) == 6
    assert seen[0] == 0.0
    assert report.t_detect == pytest.approx(5e-3, abs=1e-12)


def test_evolve_nonfinite_input_stops_without_rows():
    g = Grid(1, 64, 10.0)
    vals = np.ones(g.shape, dtype=np.complex128)
    vals[3] = np.nan
    report = evolve(
        ComplexField(g, vals),
        DampingProfile.zero(g),
        SimConfig(dt0=1e-3, t_end=1.0),
        sink=lambda *args: pytest.fail("no snapshot should be emitted"),
    )
    assert report.stop_reason is StopReason.NONFINITE
    assert not report.blew_up
    assert math.isnan(report.terminal_mass_sq)


def test_evolve_grid_mismatch():
    u0 = ComplexField(Grid(1, 64, 10.0), np.zeros(64))
    a = DampingProfile.zero(Grid(1, 128, 10.0))
    with pytest.raises(ConfigurationError):
        evolve(u0, a, SimConfig())


def test_evolve_emits_first_and_last():
    g = Grid(1, 64, 10.0)
    cfg = SimConfig(dt0=1e-3, t_end=0.02, record_every=1000)
    times = []
    evolve(_gaussian_field(g), DampingProfile.zero(g), cfg,
           sink=lambda s: times.append(s.time))
    assert len(times) == 2
    assert times[0] == 0.0
    assert times[1] == pytest.approx(0.02, abs=1e-12)


def test_evolve_collapse_detection(gs_1d):
    # Above-critical undamped data focuses until the resolution guard trips;
    # the growth ratio classifies it as detected blow-up.
    g = gs_1d.grid
    u0 = ComplexField(g, 1.2 * gs_1d.profile)
    grad0 = norms(u0).grad_sq
    cfg = SimConfig(dt0=1e-3, t_end=10.0, adapt_const=1e-2,
                    tail_threshold=1e-4, record_every=5, blowup_grad_ratio=4.0)
    report = evolve(u0, DampingProfile.zero(g), cfg, ref_grad_sq=gs_1d.grad_sq)
    assert report.stop_reason is StopReason.TAIL_UNRESOLVED
    assert report.blew_up
    assert 0.2 < report.t_detect < 0.35
    assert report.peak_grad_sq >= cfg.blowup_grad_ratio * grad0
    assert 0.0 < report.scale_at_detect < 0.3
    assert not report.boundary_mass_flag


def test_dt_floor_stops_collapse_as_blowup(tmp_path):
    # collapse_free_1p2 with a floor the step rule crosses before the tail
    # guard trips (at t ≈ 0.2685 with the catalog's floor): the run stops at
    # the first state whose rule step adapt_const/‖∇u‖² is below dt_min, and
    # the growth of ‖∇u‖² classifies the stop as blow-up.
    cfg = next(c for c in catalog() if c.scenario_id == "collapse_free_1p2")
    cfg = replace(cfg, sim=replace(cfg.sim, dt_min=9.9e-4), outputs=str(tmp_path))
    result = run_scenario(cfg)
    report, rows = result.report, result.rows
    assert report.stop_reason is StopReason.GRADIENT_THRESHOLD
    assert report.blew_up
    assert report.t_detect == pytest.approx(0.213, abs=1e-3)
    grad_sq, dt_used = rows.column("grad_sq"), rows.column("dt_used")
    assert cfg.sim.adapt_const / grad_sq[-1] < cfg.sim.dt_min
    assert (dt_used[1:] >= cfg.sim.dt_min).all()
    assert grad_sq[-1] >= cfg.sim.blowup_grad_ratio * grad_sq[0]


def test_dt_floor_stops_before_the_first_step():
    # The rule's step, adapt_const/‖∇u₀‖² ≈ 1.1e-6, is below dt_min at t = 0:
    # the run stops there, with the one row of t = 0, and is not blow-up.
    g = Grid(1, 512, 20.0)
    cfg = SimConfig(dt0=1e-3, t_end=1.0, adapt_const=1e-6, dt_min=1e-5)
    assert _dt_from_grad(norms(_gaussian_field(g)).grad_sq, cfg) < cfg.dt_min
    times = []
    report = evolve(_gaussian_field(g), DampingProfile.zero(g), cfg,
                    sink=lambda s: times.append(s.time))
    assert report.stop_reason is StopReason.GRADIENT_THRESHOLD
    assert not report.blew_up
    assert report.t_detect == 0.0
    assert times == [0.0]


def test_evolve_repeat_runs_bitwise_identical():
    g = Grid(1, 128, 10.0)
    bump = _bump(g, 1.0, 1.0)
    cfg = SimConfig(dt0=1e-3, t_end=0.03, record_every=10)

    def run():
        fields = []
        evolve(_gaussian_field(g), bump, cfg,
               sink=lambda s: fields.append(np.fft.ifftn(s.spectrum)))
        return fields

    first, second = run(), run()
    assert len(first) == len(second)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def _edge_fraction(field_):
    g = field_.grid
    abs2 = np.abs(field_.values) ** 2
    cheb = np.max(np.abs(np.stack(g.coords)), axis=0)
    return float(abs2[cheb >= 0.9 * g.half_width].sum()) / float(abs2.sum())


def test_boundary_flag_raised_between_record_points():
    # A packet at group velocity 2k = 30 starts at x = 4 and ends at x = -4,
    # crossing the periodic edge x = ±L in between. Only t = 0 and the stop
    # are recorded, and both hold far less than the limit near the edge.
    g = Grid(1, 256, 10.0)
    x = g.axis
    u0 = ComplexField(g, 0.1 * np.exp(-0.5 * (x - 4.0) ** 2 + 15j * x))
    cfg = SimConfig(dt0=1e-3, t_end=0.4, record_every=1000)
    snapshots = []
    report = evolve(u0, DampingProfile.zero(g), cfg,
                    sink=lambda s: snapshots.append((s.step_count, field_of(s, g))))
    assert report.stop_reason is StopReason.HORIZON_REACHED
    assert [n for n, _ in snapshots] == [0, 400]
    assert all(_edge_fraction(f) < 0.1 * BOUNDARY_MASS_LIMIT for _, f in snapshots)
    assert report.boundary_mass_flag


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_evolve_fft_budget(monkeypatch, dim, n):
    # One forward FFT of u0, then one inverse and one forward per accepted
    # step; a snapshot is the lent spectrum, so the sink costs no transform.
    calls = {"forward": 0, "inverse": 0}
    for name, kind in (("fft", "forward"), ("fftn", "forward"),
                       ("ifft", "inverse"), ("ifftn", "inverse")):
        def counted(*args, _fn=getattr(np.fft, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    g = Grid(dim, n, 10.0)
    cfg = SimConfig(dt0=1e-3, t_end=0.011, record_every=3)
    steps = []
    evolve(_gaussian_field(g), DampingProfile.constant(g, 0.5), cfg,
           sink=lambda s: steps.append(s.step_count))
    assert steps == [0, 3, 6, 9, 11]
    assert calls == {"forward": 11 + 1, "inverse": 11}


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 32)])
def test_evolve_first_transform_holds_one_grid_array(monkeypatch, dim, n):
    # evolve transforms u0 into one new array and leaves u0 unwritten; fftn
    # without out= allocates one array per axis, so it would hold two.
    held = []

    def measured(x, *args, _fn=np.fft.fftn, **kwargs):
        result = []
        peak = traced_peak(lambda: result.append(_fn(x, *args, **kwargs)))
        # An out= array the caller made for the transform counts too.
        out = kwargs.get("out")
        held.append((peak + (0 if out is None else out.nbytes)) / x.nbytes)
        return result[0]

    monkeypatch.setattr(np.fft, "fftn", measured)
    g = Grid(dim, n, 10.0)
    u0 = _gaussian_field(g)
    before = u0.values.copy()
    evolve(u0, DampingProfile.zero(g), SimConfig(dt0=1e-3, t_end=1e-3))
    assert np.array_equal(u0.values, before)
    print(f"first transform holds {held[0]:.2f} complex grid arrays")
    assert held[0] < 1.5


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 128), (3, 32)])
def test_evolve_masks_match_full_grid_reference(monkeypatch, dim, n):
    # The tail and edge weights evolve passes on, bit for bit the masks
    # built from the full-grid meshes; |k|² is the grid's own, not a copy.
    seen = {}

    def norms_spy(u_hat, grid, weights, _fn=_spectral_norms):
        seen["k2"], seen["tail"] = weights
        seen["k2_shared"] = np.shares_memory(grid.k2, weights)
        return _fn(u_hat, grid, weights)

    def advance_spy(self, u_hat, h, dt, edge_w=None, _fn=_StrangKernel.advance):
        seen["edge"] = edge_w
        return _fn(self, u_hat, h, dt, edge_w)

    monkeypatch.setattr("nlsdamp.evolution._spectral_norms", norms_spy)
    monkeypatch.setattr(_StrangKernel, "advance", advance_spy)
    g = Grid(dim, n, 10.0)
    evolve(_gaussian_field(g), DampingProfile.zero(g), SimConfig(dt0=1e-3, t_end=1e-3))
    assert seen["tail"].dtype == np.float64
    assert seen["k2_shared"]
    assert np.array_equal(seen["k2"], g.k2)
    assert np.array_equal(seen["tail"], tail_mask(g).astype(np.float64))
    assert np.array_equal(seen["edge"], boundary_mask(g).ravel().astype(np.float64))


def test_mask_weight_holds_under_one_grid_array():
    # One weight built from the 1-D axis peaks at 0.77 complex grid arrays
    # of traced allocation at 32³ (0.56 at 64³); the builders from the
    # full-grid meshes peak at 2.50 at both.
    g = Grid(3, 32, 10.0)
    grid_bytes = 16 * g.size
    peak = traced_peak(
        lambda: (_chebyshev(g, g.axis) >= 0.9 * g.half_width).ravel().astype(np.float64)
    )
    print(f"one mask weight peaks at {peak / grid_bytes:.2f} complex grid arrays")
    assert peak < 1.0 * grid_bytes


def _stepping_setup(dim, n):
    g = Grid(dim, n, 10.0)
    a = build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0))
    u_hat = np.fft.fftn(3.0 * random_smooth_field(g, np.random.default_rng(5)).values)
    return g, _StrangKernel(g, a), u_hat


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64), (3, 32)])
def test_advance_in_place_matches_out_of_place(dim, n):
    # The in-place step against the allocating FFT(kick(IFFT(phase(û)))), bit for bit.
    g, kernel, u_hat0 = _stepping_setup(dim, n)
    edge_w = np.random.default_rng(6).random(g.size)
    for h, dt in ((5e-4, 1e-3), (1.5e-3, 2e-3)):
        ref = u_hat0.copy()
        kernel.phase(ref, h)
        u = np.fft.ifftn(ref)
        ref_edge = kernel.kick(u, dt, edge_w)
        ref = np.fft.fftn(u)
        u_hat = u_hat0.copy()
        out, edge = kernel.advance(u_hat, h, dt, edge_w)
        assert out is u_hat
        assert np.array_equal(out, ref)
        assert edge == ref_edge


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64), (3, 32)])
def test_advance_allocates_no_grid_array(dim, n):
    # With the phase and kick coefficients of (h, dt) cached by one step,
    # three more steps peak below 1.5 complex grid arrays of traced
    # allocation; allocating transforms would make about 4.
    g, kernel, u_hat = _stepping_setup(dim, n)
    u_hat, _ = kernel.advance(u_hat, 1e-3, 1e-3)

    def three_steps():
        for _ in range(3):
            kernel.advance(u_hat, 1e-3, 1e-3)

    assert traced_peak(three_steps) < 1.5 * u_hat.nbytes
