"""Grid construction, fields, Fourier multipliers, and the integral norms."""

import math

import numpy as np
import pytest

from reference import closed_form_q_1d

from nlsdamp import (
    ComplexField,
    DampingProfile,
    Grid,
    norms,
)

TOL = {
    "roundtrip": 1e-12,
    "eigenmode": 1e-12,
    "derivative": 1e-8,
    "plancherel": 1e-10,
    "quadrature": 1e-12,
    "q_integrals": 2e-8,
    "damping_gradient": 1e-8,
}

Q_MASS_SQ = math.pi * math.sqrt(3.0) / 2.0
Q_GRAD_SQ = math.pi * math.sqrt(3.0) / 4.0
Q_LP = 3.0 * math.pi * math.sqrt(3.0) / 4.0


def _multiply(grid, values, symbol):
    """Fourier multiplier: inverse FFT of symbol(k) times the FFT."""
    return np.fft.ifftn(symbol(*grid.k_mesh) * np.fft.fftn(values))


def test_grid_layout():
    g = Grid(1, 8, 4.0)
    assert g.spacing == 1.0
    assert g.shape == (8,)
    assert g.size == 8
    assert g.cell_volume == 1.0
    assert g.axis[0] == -4.0
    assert g.axis[-1] == 3.0
    assert 0.0 in g.axis
    assert g.wavenumbers[0] == 0.0
    assert g.wavenumbers[1] == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert np.all(g.k2 >= 0.0)


def test_grid_layout_3d():
    g = Grid(3, 4, 2.0)
    assert g.shape == (4, 4, 4)
    assert g.size == 64
    assert g.cell_volume == 1.0
    assert len(g.coords) == 3
    assert g.coords[0].shape == (4, 4, 4)
    assert g.k2.shape == (4, 4, 4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_meshes_are_zero_stride_views(dim):
    g = Grid(dim, 8, 3.0)
    for axis, meshes in ((g.axis, g.coords), (g.wavenumbers, g.k_mesh)):
        full = np.meshgrid(*(axis,) * dim, indexing="ij")
        for j, (mesh, ref) in enumerate(zip(meshes, full)):
            assert not mesh.flags.writeable
            assert mesh.strides == tuple(axis.itemsize if i == j else 0 for i in range(dim))
            assert np.array_equal(mesh, ref)
    assert np.array_equal(sum(c * c for c in g.coords),
                          sum(c * c for c in np.meshgrid(*(g.axis,) * dim, indexing="ij")))
    assert np.array_equal(g.k2,
                          sum(k * k for k in np.meshgrid(*(g.wavenumbers,) * dim, indexing="ij")))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 8, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 100, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 1, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 8, 0.0)
    with pytest.raises(ValueError):
        Grid(1, 8, -3.0)
    with pytest.raises(ValueError):
        Grid(1, 8, math.inf)


def test_same_layout():
    a = Grid(1, 64, 10.0)
    b = Grid(1, 64, 10.0)
    c = Grid(1, 128, 10.0)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_complex_field_validation():
    g = Grid(1, 16, 2.0)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros(8))
    f = ComplexField(g, np.arange(16))
    assert f.values.dtype == np.complex128


def test_multiplier_identity_roundtrip():
    g = Grid(1, 256, 20.0)
    f = np.exp(-0.5 * g.axis * g.axis) * (1.0 + 0.3j)
    out = _multiply(g, f, lambda k: 1.0)
    assert np.max(np.abs(out - f)) < TOL["roundtrip"]


def test_multiplier_eigenmode():
    g = Grid(1, 64, 10.0)
    k0 = g.wavenumbers[5]
    f = np.exp(1j * k0 * g.axis)
    out = _multiply(g, f, lambda k: -(k**2))
    assert np.max(np.abs(out + k0 * k0 * f)) < TOL["eigenmode"] * k0 * k0


def test_multiplier_derivative_of_gaussian():
    g = Grid(1, 256, 20.0)
    out = _multiply(g, np.exp(-0.5 * g.axis * g.axis), lambda k: 1j * k)
    exact = -g.axis * np.exp(-0.5 * g.axis * g.axis)
    assert np.max(np.abs(out - exact)) < TOL["derivative"]


def test_rectangle_rule_exact_for_trig():
    g = Grid(1, 32, 5.0)
    # |cos|² integrates to L, exactly for the rectangle rule.
    mass_sq = norms(ComplexField(g, np.cos(math.pi * g.axis / g.half_width))).mass_sq
    assert abs(mass_sq - g.half_width) < TOL["quadrature"] * g.half_width


def test_norms_gaussian_closed_forms():
    # u = exp(-x^2/2): mass sqrt(pi), gradient sqrt(pi)/2, sextic sqrt(pi/3)
    g = Grid(1, 256, 20.0)
    f = ComplexField(g, np.exp(-0.5 * g.axis * g.axis))
    nm = norms(f)
    assert abs(nm.mass_sq - math.sqrt(math.pi)) < TOL["plancherel"]
    assert abs(nm.grad_sq - 0.5 * math.sqrt(math.pi)) < TOL["plancherel"]
    assert abs(nm.lp_power - math.sqrt(math.pi / 3.0)) < TOL["plancherel"]


def test_norms_closed_form_profile():
    g = Grid(1, 512, 20.0)
    f = ComplexField(g, closed_form_q_1d(g.axis))
    nm = norms(f)
    assert abs(nm.mass_sq - Q_MASS_SQ) < TOL["q_integrals"]
    assert abs(nm.grad_sq - Q_GRAD_SQ) < TOL["q_integrals"]
    assert abs(nm.lp_power - Q_LP) < TOL["q_integrals"]
    peak = float(np.max(f.values.real))
    assert peak == pytest.approx(3.0**0.25, rel=1e-12)


def test_norms_2d_lp_exponent():
    # d = 2 uses |u|^4: for exp(-r^2/2) that integral is pi/2
    g = Grid(2, 64, 10.0)
    x, y = g.coords
    f = ComplexField(g, np.exp(-0.5 * (x * x + y * y)))
    nm = norms(f)
    assert abs(nm.mass_sq - math.pi) < 1e-10
    assert abs(nm.lp_power - math.pi / 2.0) < 1e-10


def test_damping_profile_constant_and_zero():
    g = Grid(1, 64, 10.0)
    z = DampingProfile.zero(g)
    assert z.sup_norm == 0.0
    c = DampingProfile.constant(g, -0.7)
    assert c.sup_norm == 0.7
    assert np.all(c.values == -0.7)


def test_damping_profile_gradient_consistency():
    g = Grid(1, 256, 20.0)
    s2 = 4.0
    x = g.axis
    vals = np.exp(-x * x / (2.0 * s2))
    prof = DampingProfile(g, vals, lambda j: -(x / s2) * vals)
    assert prof.sup_norm == pytest.approx(1.0, abs=1e-14)
    spectral = _multiply(g, prof.values, lambda k: 1j * k)
    assert np.max(np.abs(spectral.real - prof.gradient(0))) < TOL["damping_gradient"]


def test_damping_profile_validation():
    g = Grid(2, 16, 5.0)
    with pytest.raises(ValueError):
        DampingProfile(g, np.zeros(16), lambda j: np.zeros(g.shape))
