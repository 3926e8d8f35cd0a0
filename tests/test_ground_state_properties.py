"""Property check: the half-spectrum PDE residual against the physical-space one."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsdamp import Grid
from nlsdamp.ground_state import pde_residual

# Relative gap between the two ways of taking ‖ΔQ - Q + |Q|^(4/d) Q‖.
TOL = {"half_spectrum_residual": 1e-12}


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
