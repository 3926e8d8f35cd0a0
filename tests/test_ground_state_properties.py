"""Property checks: the half-spectrum PDE residual against the physical-space
one, and the accelerated solver's profile against that residual and its exact
symmetry."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsdamp import Grid, solve_ground_state
from nlsdamp.ground_state import pde_residual

TOL = {
    # Relative gap between the two ways of taking ‖ΔQ - Q + |Q|^(4/d) Q‖.
    "half_spectrum_residual": 1e-12,
}


def physical_space_residual(grid, q):
    """The residual through full complex FFTs, summed over physical space."""
    sigma = 4.0 / grid.dim
    linear = np.fft.ifftn((-grid.k2 - 1.0) * np.fft.fftn(q)).real
    r = linear + np.abs(q) ** sigma * q
    return float(np.sqrt((r * r).sum() * grid.cell_volume))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3]),
    log2_n=st.integers(0, 4),
    half_width=st.floats(0.5, 20.0),
    amplitude=st.floats(0.1, 3.0),
)
def test_half_spectrum_residual_matches_physical_space(seed, dim, log2_n, half_width, amplitude):
    g = Grid(dim, 2 ** (log2_n + (4 - dim)), half_width)
    q = amplitude * np.random.default_rng(seed).standard_normal(g.shape)
    ref = physical_space_residual(g, q)
    assert abs(pde_residual(g, q) - ref) <= TOL["half_spectrum_residual"] * ref


# Points per axis by dimension; the box is kept to a spacing of at most 0.5,
# where the discrete profile is positive (a coarser grid's tails oscillate).
SOLVE_N = {1: [64, 128, 256, 512], 2: [32, 64, 128], 3: [16, 32]}


@st.composite
def solve_grids(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from(SOLVE_N[dim]))
    return Grid(dim, n, draw(st.floats(3.0, min(8.0, n / 4.0))))


@settings(max_examples=25, deadline=None)
@given(grid=solve_grids())
def test_solved_profile_is_a_positive_even_root(grid):
    tol = 1e-10
    q = solve_ground_state(grid, tol=tol).profile
    assert physical_space_residual(grid, q) < tol
    assert q.min() > 0.0
    # Index j mirrors to n - j (mod n) about the centre index n/2.
    axes = tuple(range(grid.dim))
    mirror = np.roll(np.flip(q, axes), 1, axes)
    assert np.array_equal(mirror, q)
