"""The damping kick's coefficient table and its blocked half-angle rotation,
each against the full-grid formulas it replaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsdamp import DampingProfile, DampingSpec, Grid, build_damping
from nlsdamp.diagnostics import random_smooth_field
from nlsdamp.evolution import KICK_BLOCK, _StrangKernel

TOL = {
    # |rotation - amp e^(iθ)| over amp, against an extended-precision reference.
    "half_angle_rotation": 4.5e-16,
    # Max-norm gap over the max norm, blocked kick against one full-grid pass.
    "blocked_kick": 1e-15,
    "blocked_edge_sum": 1e-13,
}

DAMPINGS = [
    DampingSpec("zero"),
    DampingSpec("constant", amplitude=0.5),
    DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
    DampingSpec("negative_bump", amplitude=1.0, sigma=2.0),
    DampingSpec("cosine", amplitude=0.7, wavelength=5.0),
]


def full_grid_coefficients(a_values, dt, sigma):
    """Amplitude e^(-a dt) and phase coefficient dt (1 - e^(-sigma a dt))/(sigma a)
    at every grid point, with the series branch for |a dt| < 1e-6."""
    adt = a_values * dt
    z = sigma * adt
    small = np.abs(adt) < 1e-6
    safe = np.where(small, 1.0, z)
    factor = np.where(small, 1.0 - z / 2.0 + z * z / 6.0, -np.expm1(-safe) / safe)
    return np.exp(-adt), dt * factor


def one_pass_kick(u, a_values, dt, edge_w):
    """The kick over the whole grid at once, rotating by cos and sin; returns (u, edge sum)."""
    sigma = 4.0 / u.ndim
    amp, coef = full_grid_coefficients(a_values, dt, sigma)
    abs2 = u.real**2 + u.imag**2
    theta = abs2 ** (0.5 * sigma) * coef
    return u * amp * (np.cos(theta) + 1j * np.sin(theta)), float(np.dot(abs2.ravel(), edge_w))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("spec", DAMPINGS, ids=lambda s: s.kind)
def test_coefficient_table_is_bit_identical_to_full_grid(dim, n, spec):
    g = Grid(dim, n, 10.0)
    a = build_damping(g, spec)
    kernel = _StrangKernel(g, a)
    # a dt = 0.5 dt sits either side of the 1e-6 series seam at dt = 2e-6;
    # the bumps' tails reach it at every dt.
    for dt in (1e-3, 2.01e-6, 1.99e-6, -1e-3, 1e-3):
        amp, half_coef = kernel._kick_coefficients(dt)
        ref_amp, ref_coef = full_grid_coefficients(a.values, dt, 4.0 / dim)
        assert np.array_equal(amp, ref_amp.ravel())
        assert np.array_equal(half_coef, 0.5 * ref_coef.ravel())


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("spec", DAMPINGS, ids=lambda s: s.kind)
def test_distinct_values_match_np_unique(dim, n, spec):
    a = build_damping(Grid(dim, n, 10.0), spec)
    values, index = a.distinct_values
    ref_values, ref_index = np.unique(a.values, return_inverse=True)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(index, ref_index.ravel())
    assert index.dtype == ref_index.dtype


def test_kernels_on_one_profile_share_its_table():
    g = Grid(2, 32, 10.0)
    a = build_damping(g, DampingSpec("negative_bump", amplitude=1.0, sigma=2.0))
    values, index = a.distinct_values
    assert np.array_equal(values[index].reshape(g.shape), a.values)
    assert np.all(np.diff(values) > 0.0)
    # Built once per profile, as in a loop of strang_step calls.
    kernels = [_StrangKernel(g, a) for _ in range(2)]
    assert all(k._a_values is values and k._a_index is index for k in kernels)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="needs an extended-precision reference")
@settings(max_examples=200, deadline=None)
@given(
    theta=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
    adt=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)
@example(theta=0.0, adt=0.0)
@example(theta=math.pi, adt=0.0)
@example(theta=float(np.nextafter(math.pi, 0.0)), adt=0.0)
@example(theta=float(np.nextafter(math.pi, 4.0)), adt=0.0)
@example(theta=math.pi, adt=-0.6)
def test_half_angle_rotation_matches_cos_sin(theta, adt):
    # At d = 2 and |u| = 1 the kick multiplies u by amp e^(iθ) with θ the
    # phase coefficient; with zero damping θ = dt exactly.
    g = Grid(2, 2, 1.0)
    dt = theta
    a = DampingProfile.constant(g, adt / dt if dt > 0.0 else 0.0)
    u = np.ones(g.shape, dtype=np.complex128)
    _StrangKernel(g, a).kick(u, dt)
    amp, coef = full_grid_coefficients(a.values, dt, 2.0)
    amp, coef = amp.astype(np.longdouble), coef.astype(np.longdouble)
    gap = np.hypot(u.real - amp * np.cos(coef), u.imag - amp * np.sin(coef))
    assert np.all(gap <= TOL["half_angle_rotation"] * amp)


@pytest.mark.parametrize("dim, n", [(3, 32), (2, 256)])
def test_blocked_kick_matches_one_pass(dim, n):
    g = Grid(dim, n, 10.0)
    assert g.size // KICK_BLOCK in (2, 4)
    u0 = 3.0 * random_smooth_field(g, np.random.default_rng(11)).values
    a = build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0))
    edge_w = np.random.default_rng(12).random(g.size)
    kernel = _StrangKernel(g, a)
    for dt in (1e-2, 1e-3):
        ref, ref_edge = one_pass_kick(u0, a.values, dt, edge_w)
        u = u0.copy()
        edge = kernel.kick(u, dt, edge_w)
        assert np.max(np.abs(u - ref)) <= TOL["blocked_kick"] * np.max(np.abs(ref))
        assert abs(edge - ref_edge) <= TOL["blocked_edge_sum"] * ref_edge
    assert kernel.kick(u0.copy(), dt) == 0.0
