"""Stabilized fixed-point solver and the elliptic-profile identities."""

import math

import numpy as np
import pytest

from reference import closed_form_q_1d, full_grid_ground_state

from nlsdamp import (
    ConvergenceError,
    Grid,
    GroundState,
    pohozaev_residuals,
    solve_ground_state,
)
import nlsdamp.ground_state as ground_state
from nlsdamp.ground_state import pde_residual

TOL = {
    "profile_sup": 1e-8,
    "integrals": 1e-6,
    "energy": 1e-9,
    "pohozaev": 1e-8,
    "ode_pointwise": 1e-6,
    "n_doubling": 1e-8,
    "d2_mass": 1e-6,
    # Max-norm gap between the octant solve and the full-grid reference, over max Q.
    "reference": 1e-13,
}

Q_MASS_SQ = math.pi * math.sqrt(3.0) / 2.0
Q_GRAD_SQ = math.pi * math.sqrt(3.0) / 4.0
Q_LP = 3.0 * math.pi * math.sqrt(3.0) / 4.0
# Converged value on the 256-point, half-width-15 two-dimensional grid.
D2_MASS_SQ = 11.700896524497164


def test_profile_matches_closed_form(gs_1d):
    exact = closed_form_q_1d(gs_1d.grid.axis)
    assert np.max(np.abs(gs_1d.profile - exact)) < TOL["profile_sup"]


def test_integrals_match_closed_forms(gs_1d):
    assert abs(gs_1d.mass_sq - Q_MASS_SQ) < TOL["integrals"]
    assert abs(gs_1d.grad_sq - Q_GRAD_SQ) < TOL["integrals"]
    assert abs(gs_1d.lp_power - Q_LP) < TOL["integrals"]
    assert abs(gs_1d.energy) < TOL["energy"]


def test_pohozaev_residuals_vanish(gs_1d):
    res = pohozaev_residuals(gs_1d)
    assert res.energy_res < TOL["pohozaev"]
    assert res.gradient_res < TOL["pohozaev"]


def test_stored_residual_restates(gs_1d):
    assert gs_1d.residual < 1e-10
    assert pde_residual(gs_1d.grid, gs_1d.profile) == gs_1d.residual


def test_pohozaev_rejects_wrong_scale(gs_1d):
    # Doubling the profile scales grad by 4 and the sextic integral by 64,
    # leaving normalized defects of exactly 7.5 and 45 in the limit.
    fake = GroundState(gs_1d.grid, 2.0 * gs_1d.profile, 0.0)
    res = pohozaev_residuals(fake)
    assert res.energy_res == pytest.approx(7.5, rel=1e-6)
    assert res.gradient_res == pytest.approx(45.0, rel=1e-6)


def test_closed_form_satisfies_ode_pointwise():
    # Richardson-extrapolated second difference of Q'' - Q + Q^5 at two points.
    def residual(x):
        def second(h):
            q = closed_form_q_1d
            return (q(x + h) - 2.0 * q(x) + q(x - h)) / (h * h)

        h = 1e-2
        qxx = (4.0 * second(h) - second(2.0 * h)) / 3.0
        q0 = closed_form_q_1d(x)
        return float(qxx - q0 + q0**5)

    assert abs(residual(0.3)) < TOL["ode_pointwise"]
    assert abs(residual(1.0)) < TOL["ode_pointwise"]


def test_closed_form_decays_without_overflow():
    vals = closed_form_q_1d(np.array([0.0, 50.0, 500.0]))
    assert vals[0] == pytest.approx(3.0**0.25, rel=1e-14)
    assert np.all(np.isfinite(vals))
    assert vals[2] < 1e-200 or vals[2] == 0.0


def test_n_doubling_stability_1d(gs_1d):
    coarse = solve_ground_state(Grid(1, 256, 20.0), tol=1e-10)
    assert abs(coarse.mass_sq - gs_1d.mass_sq) < TOL["n_doubling"] * gs_1d.mass_sq


def test_d2_mass_value(gs_2d):
    assert abs(gs_2d.mass_sq - D2_MASS_SQ) < TOL["d2_mass"]
    res = pohozaev_residuals(gs_2d)
    assert res.energy_res < TOL["pohozaev"]
    assert res.gradient_res < TOL["pohozaev"]


def test_custom_initial_converges():
    grid = Grid(1, 512, 20.0)
    gs = solve_ground_state(grid, tol=1e-10, initial=closed_form_q_1d(grid.axis))
    assert abs(gs.mass_sq - Q_MASS_SQ) < TOL["integrals"]


def test_max_iter_exhaustion_reports_residual():
    with pytest.raises(ConvergenceError) as info:
        solve_ground_state(Grid(1, 128, 12.0), tol=1e-14, max_iter=1)
    assert info.value.residual is not None
    assert info.value.residual > 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_uneven_initial_is_refused(dim):
    # Off by one ulp at one point, and the even profile moved one cell.
    grid = Grid(dim, 64, 10.0)
    q = solve_ground_state(grid).profile
    nudged = q.copy()
    nudged.flat[5] = np.nextafter(nudged.flat[5], np.inf)
    for initial in (nudged, np.roll(q, 1)):
        with pytest.raises(ValueError, match="^initial iterate is not even about the box centre$"):
            solve_ground_state(grid, initial=initial)


def test_zero_initial_collapses():
    grid = Grid(1, 64, 10.0)
    with pytest.raises(ConvergenceError, match="larger initial amplitude"):
        solve_ground_state(grid, initial=np.zeros(grid.shape))


def test_argument_validation():
    grid = Grid(1, 64, 10.0)
    with pytest.raises(ValueError):
        solve_ground_state(grid, tol=0.0)
    with pytest.raises(ValueError):
        solve_ground_state(grid, max_iter=0)
    with pytest.raises(ValueError):
        solve_ground_state(grid, initial=np.zeros(32))


def test_field_view_is_complex(gs_1d):
    f = gs_1d.field()
    assert f.values.dtype == np.complex128
    assert np.max(np.abs(f.values.imag)) == 0.0


def _count_ffts(monkeypatch):
    """Count numpy.fft calls by name, the full-FFT calls made inside `norms`,
    and the solver's updates, one Anderson solve each."""
    calls = {"rfft": 0, "rfftn": 0, "irfftn": 0, "fftn": 0, "ifftn": 0, "in_norms": 0, "updates": 0}
    inside = [False]
    for name in ("rfft", "rfftn", "irfftn", "fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            calls["in_norms"] += inside[0] and _name in ("fftn", "ifftn")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def norms_counted(*args, _fn=ground_state.norms, **kwargs):
        inside[0] = True
        try:
            return _fn(*args, **kwargs)
        finally:
            inside[0] = False

    def update_counted(*args, _fn=ground_state._anderson_coefficients):
        calls["updates"] += 1
        return _fn(*args)

    monkeypatch.setattr(ground_state, "norms", norms_counted)
    monkeypatch.setattr(ground_state, "_anderson_coefficients", update_counted)
    return calls


def test_solve_fft_budget(monkeypatch):
    # A DCT-I is one `rfft` per axis. Pass i reads the residual of update i
    # from the two forward spectra it forms anyway; each update makes one
    # inverse. The full-grid acceptance check is the one `rfftn` pair, and
    # full complex FFTs happen only in the final `norms`.
    calls = _count_ffts(monkeypatch)
    grid = Grid(2, 64, 10.0)
    solve_ground_state(grid, tol=1e-10)
    updates = calls["updates"]
    assert updates > 0
    assert calls["rfft"] == grid.dim * (3 * updates + 2)
    assert (calls["rfftn"], calls["irfftn"]) == (2, 0)
    assert calls["fftn"] + calls["ifftn"] == calls["in_norms"] == 1


SOLVE_GRIDS = [Grid(1, 512, 20.0), Grid(2, 128, 10.0), Grid(3, 64, 10.0)]


# Anderson mixing of depth 2; the unaccelerated iteration took 27, 44 and 66.
@pytest.mark.parametrize("grid, updates", list(zip(SOLVE_GRIDS, [10, 13, 14])),
                         ids=["1d-512", "2d-128", "3d-64"])
def test_solve_iteration_count(monkeypatch, grid, updates):
    calls = _count_ffts(monkeypatch)
    gs = solve_ground_state(grid, tol=1e-10)
    assert calls["updates"] == updates
    assert calls["rfft"] == grid.dim * (3 * updates + 2)
    assert gs.residual < 1e-10


@pytest.mark.parametrize("grid", SOLVE_GRIDS[:2] + [Grid(3, 32, 10.0)],
                         ids=["1d-512", "2d-128", "3d-32"])
def test_octant_solve_matches_full_grid_reference(monkeypatch, grid):
    calls = _count_ffts(monkeypatch)
    gs = solve_ground_state(grid, tol=1e-10)
    updates = calls["updates"]
    ref, ref_updates = full_grid_ground_state(grid, tol=1e-10)
    assert updates == ref_updates
    assert np.max(np.abs(gs.profile - ref)) <= TOL["reference"] * np.max(ref)


@pytest.mark.parametrize("depth", [1, 2])
def test_anderson_coefficients_solve_the_least_squares_problem(depth):
    # In the norm weighted by the multiplicities 1, 2, 4 and 8 of octant points.
    rng = np.random.default_rng(depth)
    f = rng.standard_normal((8, 8))
    f_hist = [rng.standard_normal((8, 8)) for _ in range(depth)]
    weight = 2.0 ** rng.integers(0, 4, (8, 8))
    coefs = ground_state._anderson_coefficients(f, f_hist, weight)
    root = np.sqrt(weight).ravel()
    diffs = np.stack([root * (f - h).ravel() for h in f_hist], axis=1)
    ref, *_ = np.linalg.lstsq(diffs, root * f.ravel(), rcond=None)
    assert np.allclose(coefs, ref, rtol=1e-12, atol=0.0)


def test_anderson_coefficients_singular_is_none():
    f = np.linspace(1.0, 2.0, 16)
    assert ground_state._anderson_coefficients(f, [], 1.0) is None
    # A repeated step, and two steps whose differences from f are parallel.
    assert ground_state._anderson_coefficients(f, [f.copy()], 1.0) is None
    assert ground_state._anderson_coefficients(f, [0.5 * f, 0.25 * f], 1.0) is None
