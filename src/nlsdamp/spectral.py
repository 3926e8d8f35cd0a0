"""Periodic grids, spectral transforms, and the integral norms shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "ConfigurationError",
    "Grid",
    "ComplexField",
    "DampingProfile",
    "FieldNorms",
    "norms",
]


class ConfigurationError(ValueError):
    """Raised when inputs describe an inconsistent or unknown setup."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim with an FFT spectral basis.

    Wavenumbers follow the standard FFT layout, k_j = pi*j/L for symmetric
    integer frequencies j; the Nyquist mode keeps its multiplier as-is.
    Integrals use the rectangle rule, which is exact for trigonometric
    polynomials resolved by the grid.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of {1, 2, 3}.
    points_per_axis : int
        Grid points per axis; must be a power of two.
    half_width : float
        L, half the box width per axis.
    """

    dim: int
    points_per_axis: int
    half_width: float

    axis: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    coords: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    k_mesh: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2, or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 2 or n & (n - 1):
            raise ConfigurationError(f"points_per_axis must be a power of two >= 2, got {n}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigurationError(f"half_width must be positive, got {self.half_width}")
        axis = -self.half_width + self.spacing * np.arange(n)
        k_axis = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        coords = np.meshgrid(*(axis,) * self.dim, indexing="ij")
        k_mesh = np.meshgrid(*(k_axis,) * self.dim, indexing="ij")
        k2 = sum(k * k for k in k_mesh)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "wavenumbers", k_axis)
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "k_mesh", tuple(k_mesh))
        object.__setattr__(self, "k2", k2)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def integrate(self, values: np.ndarray) -> float:
        """Rectangle-rule integral of real samples over the box."""
        return float(values.sum() * self.cell_volume)

    def same_layout(self, other: "Grid") -> bool:
        return (self.dim, self.points_per_axis, self.half_width) == (
            other.dim,
            other.points_per_axis,
            other.half_width,
        )


@dataclass(eq=False)
class ComplexField:
    """A complex state sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = arr


@dataclass(frozen=True, eq=False)
class DampingProfile:
    """Samples of a real coefficient a(x) together with its gradient.

    The gradient is supplied in closed form alongside a(x) so that no
    numerical differentiation enters the flux terms; consistency with
    spectral differentiation is checked by the test suite.
    """

    grid: Grid
    values: np.ndarray
    gradient_values: Tuple[np.ndarray, ...]
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError("damping samples do not match the grid shape")
        grads = tuple(np.asarray(g, dtype=np.float64) for g in self.gradient_values)
        if len(grads) != self.grid.dim:
            raise ValueError(
                f"expected {self.grid.dim} gradient components, got {len(grads)}"
            )
        for g in grads:
            if g.shape != self.grid.shape:
                raise ValueError("gradient samples do not match the grid shape")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gradient_values", grads)
        object.__setattr__(self, "sup_norm", float(np.max(np.abs(vals))))

    @classmethod
    def zero(cls, grid: Grid) -> "DampingProfile":
        z = np.zeros(grid.shape)
        return cls(grid, z, tuple(np.zeros(grid.shape) for _ in range(grid.dim)))

    @classmethod
    def constant(cls, grid: Grid, amplitude: float) -> "DampingProfile":
        vals = np.full(grid.shape, float(amplitude))
        return cls(grid, vals, tuple(np.zeros(grid.shape) for _ in range(grid.dim)))


@dataclass(frozen=True)
class FieldNorms:
    """Rectangle-rule integrals: mass ∫|u|², gradient ∫|∇u|², power ∫|u|^(4/d+2)."""

    mass_sq: float
    grad_sq: float
    lp_power: float


def norms(field_: ComplexField) -> FieldNorms:
    """Mass, gradient, and power integrals of a field.

    The gradient integral is evaluated in spectral space (Plancherel with
    the |k|² multiplier); the other two use the rectangle rule in physical
    space.
    """
    g = field_.grid
    vals = field_.values
    abs2 = vals.real**2 + vals.imag**2
    spec2 = np.abs(np.fft.fftn(vals)) ** 2
    p = 4.0 / g.dim + 2.0
    return FieldNorms(
        g.integrate(abs2), g.integrate(g.k2 * spec2) / g.size, g.integrate(abs2 ** (p / 2.0))
    )
