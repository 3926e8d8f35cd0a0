"""Property check: the 1-D prefix-sum windowed mass against the FFT circular convolution."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlsdamp import ComplexField, Grid, concentration_mass

# Gap between the two windowed masses, relative to the total mass ∫|u|².
TOL = {"prefix_sum_window": 1e-12}


def fft_windowed_mass(grid, values, w):
    """∫_{|x-y|<=w} |u|² for every grid center y, by circular convolution with the ball."""
    r2 = sum(c * c for c in grid.coords)
    ball = np.fft.ifftshift((r2 <= w * w).astype(np.float64))
    abs2 = values.real**2 + values.imag**2
    return np.fft.ifftn(np.fft.fftn(abs2) * np.fft.fftn(ball)).real * grid.cell_volume


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_n=st.integers(3, 10),
    half_width=st.floats(0.5, 30.0),
    envelope=st.floats(0.05, 50.0),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    nudge=st.sampled_from([None, -1, 0, 1]),
)
def test_prefix_sum_window_matches_fft_convolution(
    seed, log2_n, half_width, envelope, fraction, nudge
):
    g = Grid(1, 2**log2_n, half_width)
    n = g.points_per_axis
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
        -((g.axis / envelope) ** 2)
    )
    if nudge is None:
        w = fraction * half_width
    else:
        # A grid offset |x_j| itself, or one ulp either side of it.
        j = 1 + int(fraction * (n - 1))
        offset = abs(float(g.axis[j]))
        w = offset if nudge == 0 else float(np.nextafter(offset, nudge * np.inf))
    assume(0.0 < w < half_width)
    ref = fft_windowed_mass(g, values, w)
    total = g.integrate(values.real**2 + values.imag**2)
    res = concentration_mass(ComplexField(g, values), w)
    assert abs(res.value - ref.max()) <= TOL["prefix_sum_window"] * total
    (i,) = np.flatnonzero(g.axis == res.center[0])
    assert abs(ref[i] - ref.max()) <= TOL["prefix_sum_window"] * total
