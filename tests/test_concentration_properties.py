"""Property checks: the windowed masses of a block, by a cached real ball
spectrum in every dimension, against the complex-FFT circular convolution
and against one call per snapshot."""

import gc
import weakref

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import windowed_mass

from nlsdamp import ComplexField, Grid, concentration_mass

# Gap between the two windowed masses, relative to the total mass ∫|u|².
TOL = {"ball_spectrum_window_1d": 1e-12, "ball_spectrum_window": 1e-12}


def fft_windowed_mass(grid, values, w):
    """∫_{|x-y|<=w} |u|² for every grid center y, by circular convolution with the ball."""
    r2 = sum(c * c for c in grid.coords)
    ball = np.fft.ifftshift((r2 <= w * w).astype(np.float64))
    abs2 = values.real**2 + values.imag**2
    return np.fft.ifftn(np.fft.fftn(abs2) * np.fft.fftn(ball)).real * grid.cell_volume


def _block_masses(grid, values, windows):
    """The windowed masses of k copies of one density, one window each, in
    one call; they must equal k calls on the block of one, bit for bit."""
    abs2 = values.real**2 + values.imag**2
    block = np.repeat(abs2[None], len(windows), axis=0)
    masses = concentration_mass(grid, block, np.array(windows))
    field = ComplexField(grid, values)
    assert np.array_equal(masses, [windowed_mass(field, w) for w in windows])
    return masses


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_n=st.integers(3, 10),
    half_width=st.floats(0.5, 30.0),
    envelope=st.floats(0.05, 50.0),
    picks=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from([None, -1, 0, 1]),
        ),
        min_size=1, max_size=6,
    ),
)
def test_ball_spectrum_window_1d_matches_fft_convolution(seed, log2_n, half_width, envelope, picks):
    g = Grid(1, 2**log2_n, half_width)
    n = g.points_per_axis
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
        -((g.axis / envelope) ** 2)
    )
    windows = []
    for fraction, nudge in picks:
        if nudge is None:
            w = fraction * half_width
        else:
            # A grid offset |x_j| itself, or one ulp either side of it.
            j = 1 + int(fraction * (n - 1))
            offset = abs(float(g.axis[j]))
            w = offset if nudge == 0 else float(np.nextafter(offset, nudge * np.inf))
        if 0.0 < w < half_width:
            windows.append(w)
    assume(windows)
    total = (values.real**2 + values.imag**2).sum() * g.cell_volume
    for w, mass in zip(windows, _block_masses(g, values, windows)):
        ref = fft_windowed_mass(g, values, w)
        assert abs(mass - ref.max()) <= TOL["ball_spectrum_window_1d"] * total


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    log2_n=st.integers(2, 5),
    half_width=st.floats(0.5, 30.0),
    picks=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([-1, 0, 1])),
        min_size=1, max_size=6,
    ),
)
def test_ball_spectrum_window_matches_fft_convolution(seed, dim, log2_n, half_width, picks):
    g = Grid(dim, 2**log2_n, half_width)
    rng = np.random.default_rng(seed)
    r2 = sum(c * c for c in g.coords)
    values = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) * np.exp(
        -r2 / half_width**2
    )
    total = (values.real**2 + values.imag**2).sum() * g.cell_volume
    # Grid radii, and the on-axis offsets whose square is exactly a grid r².
    radii = np.union1d(np.sqrt(np.unique(r2)), np.abs(g.axis))
    # Windows shrink, then grow again: every radius is visited twice and
    # neighbouring radii, or one radius nudged by an ulp, share a ball or not.
    # One block holds them all, so one call crosses and reuses the balls.
    windows = []
    for fraction, nudge in sorted(picks, reverse=True) + sorted(picks):
        w = float(radii[int(fraction * radii.size)])
        if nudge:
            w = float(np.nextafter(w, nudge * np.inf))
        if 0.0 < w < half_width:
            windows.append(w)
    assume(windows)
    for w, mass in zip(windows, _block_masses(g, values, windows)):
        ref = fft_windowed_mass(g, values, w)
        assert abs(mass - ref.max()) <= TOL["ball_spectrum_window"] * total


def test_ball_cache_keeps_no_grid_alive():
    # The cache is keyed by the grid's layout, so the grid and its full-grid
    # arrays go once its last user does.
    g = Grid(2, 32, 6.0)
    windowed_mass(ComplexField(g, np.ones(g.shape, dtype=np.complex128)), 1.0)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
