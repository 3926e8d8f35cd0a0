"""Periodic grids, spectral transforms, and the grid reductions and integral
norms shared by every solver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Tuple

import numpy as np
from numpy._core.multiarray import c_einsum

__all__ = [
    "ConfigurationError",
    "Grid",
    "ComplexField",
    "DampingProfile",
    "FieldNorms",
    "abs2",
    "critical_power",
    "grid_dot",
    "norms",
]


class ConfigurationError(ValueError):
    """Raised when inputs describe an inconsistent or unknown setup."""


def _require_finite(spec, prefix: str = "") -> None:
    """ConfigurationError on the first non-finite float field of a dataclass.

    The message names the field as the config key `<prefix><name>`.
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{prefix}{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim with an FFT spectral basis.

    Wavenumbers follow the standard FFT layout, k_j = pi*j/L for symmetric
    integer frequencies j; the Nyquist mode keeps its multiplier as-is.
    Integrals use the rectangle rule, which is exact for trigonometric
    polynomials resolved by the grid; `norms` forms them.

    `coords[j]` and `k_mesh[j]` are read-only views of the 1-D axis and
    wavenumbers, broadcast to the grid shape with stride 0 off axis j: they
    read like `np.meshgrid(..., indexing="ij")` but hold no full-grid array.
    The one full array is `norm_weight`, (2, *shape): row 0 is |k|² (`k2` is
    a view of it); row 1 is `evolve`'s tail mask, max_j |k_j| > (2/3)·max|k|,
    referenced by `tail_mask` in tests/reference.py. A grid that only a
    ground-state solve uses holds row 1 too, one real array it never reads.

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
    norm_weight: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2, or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 2 or n & (n - 1):
            raise ConfigurationError(f"points_per_axis must be a power of two >= 2, got {n}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigurationError(f"half_width must be positive, got {self.half_width}")
        # Squared distances reach d·L² and cell volumes (2L/n)^d: both stay
        # below (2L)^max(2, d), which must be finite. |k|² reaches d·(π/h)²
        # for the spacing h, which must be finite too, and the volume positive.
        power = max(2, self.dim)
        if not math.isfinite(_power(2.0 * self.half_width, power)):
            raise ConfigurationError(
                f"half_width {self.half_width} is too large: (2*half_width)**{power} overflows"
            )
        h = self.spacing
        k2_max = self.dim * _power(math.pi / h, 2) if self.cell_volume > 0.0 else math.inf
        if not math.isfinite(k2_max):
            raise ConfigurationError(
                f"half_width {self.half_width} is too small: the cell volume "
                "(2*half_width/n)**dim underflows or max |k|**2 overflows"
            )
        axis = -self.half_width + self.spacing * np.arange(n)
        k_axis = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        coords = self._mesh(axis)
        k_mesh = self._mesh(k_axis)
        weight = np.empty((2, *self.shape))
        weight[0] = _sum_sq(self.dim, k_axis)
        weight[1] = _chebyshev(self, k_axis) > (2.0 / 3.0) * float(np.max(np.abs(k_axis)))
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "wavenumbers", k_axis)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "k_mesh", k_mesh)
        object.__setattr__(self, "norm_weight", weight)
        object.__setattr__(self, "k2", weight[0])

    def _mesh(self, values: np.ndarray) -> Tuple[np.ndarray, ...]:
        """`values` along each axis j in turn, broadcast over the others."""
        shape = self.shape
        return tuple(
            np.broadcast_to(values.reshape([-1 if i == j else 1 for i in range(self.dim)]), shape)
            for j in range(self.dim)
        )

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


def _power(x: float, p: int) -> float:
    """x**p as a Python float, +inf where it overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _chebyshev(grid: Grid, values: np.ndarray) -> np.ndarray:
    """max_j |v_j| over the grid, for `values` v along each axis: one full array."""
    return functools.reduce(np.maximum, np.ix_(*(np.abs(values),) * grid.dim))


def _sum_sq(dim: int, values: np.ndarray) -> np.ndarray:
    """Σ_j v_j² over the dim-D grid, for `values` v along each axis, summed in
    axis order from the 1-D squares: one full array."""
    return sum(np.ix_(*(values * values,) * dim))


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
    spectral differentiation is checked by the test suite. `gradient(j)`
    returns ∂_j a on the grid, stored or formed per call; a component that
    vanishes is a read-only `_zero_view`, not a full-grid array.
    """

    grid: Grid
    values: np.ndarray
    gradient: Callable[[int], np.ndarray]
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError("damping samples do not match the grid shape")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sup_norm", float(np.max(np.abs(vals))))

    @functools.cached_property
    def distinct_values(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct values of a(x), ascending, and the index with a.ravel() = values[index].

        Built at first use and kept; like sup_norm, it assumes the samples
        are not changed afterwards. Equal to np.unique(return_inverse=True),
        written out over a stable argsort: np.unique's default sort maps
        more code pages on first use.
        """
        flat = self.values.reshape(-1)
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        first = np.empty(flat.size, dtype=bool)
        first[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        index = np.empty(flat.size, dtype=np.intp)
        index[order] = np.cumsum(first) - 1
        return ranked[first], index

    @classmethod
    def zero(cls, grid: Grid) -> "DampingProfile":
        return cls.constant(grid, 0.0)

    @classmethod
    def constant(cls, grid: Grid, amplitude: float) -> "DampingProfile":
        return cls(grid, np.full(grid.shape, float(amplitude)), lambda j: _zero_view(grid))


def _zero_view(grid: Grid) -> np.ndarray:
    """Read-only zeros of the grid's shape, one value broadcast with stride 0,
    as a gradient component that vanishes is stored."""
    return np.broadcast_to(0.0, grid.shape)


def abs2(v: np.ndarray) -> np.ndarray:
    """|v|² = Re(v)² + Im(v)², built in one new array."""
    x = v.real**2
    x += v.imag**2
    return x


@functools.lru_cache(maxsize=None)
def _dot_subscripts(x_ndim: int, y_ndim: int) -> str:
    axes = "abcd"[:x_ndim]
    return f"{axes},{axes[x_ndim - y_ndim:]}->{axes[:x_ndim - y_ndim]}"


def grid_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ x·y over the axes of y, the trailing axes of x: one sum per index
    of x's leading axes, or a scalar when x has none.

    Every weighted grid sum goes through here: numpy's own einsum loop, not
    BLAS, so its bits do not depend on a thread count; a y of stride 0 is
    read in place. It skips np.einsum's dispatch, about 1 µs a call.
    """
    return c_einsum(_dot_subscripts(x.ndim, y.ndim), x, y)


def critical_power(u2: np.ndarray, dim: int) -> np.ndarray:
    """In place: |v|² <- (|v|²)^(2/d) = |v|^(4/d), the critical nonlinearity's modulus.

    Squared for d = 1, as is for d = 2; for d = 3 a cube root then a square,
    about twice as fast as np.power with exponent 2/3. Returns `u2`.
    """
    if dim == 1:
        np.square(u2, out=u2)
    elif dim == 3:
        np.cbrt(u2, out=u2)
        np.square(u2, out=u2)
    return u2


@dataclass(frozen=True)
class FieldNorms:
    """Rectangle-rule integrals: mass ∫|u|², gradient ∫|∇u|², power ∫|u|^(4/d+2)."""

    mass_sq: float
    grad_sq: float
    lp_power: float


def _sum(x: np.ndarray) -> np.ndarray:
    """Σ x over the grid axes, one sum per snapshot of the block x."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def _block_norms(grid: Grid, values: np.ndarray, spectra: np.ndarray):
    """(|u|², |u|^(4/d+2), mass_sq, grad_sq, lp_power) of k fields and their
    FFTs û, each (k, *grid.shape); the integrals are one per field.

    ∫|∇u|² is Plancherel with the |k|² multiplier, the others the rectangle
    rule. |û|² is freed before |u|^(4/d+2) is made, so a row's peak holds.
    """
    vol = grid.cell_volume
    u2 = abs2(values)
    grad_sq = grid_dot(abs2(spectra), grid.k2) * vol / grid.size
    # |u|^(4/d+2) = |u|^(4/d)·|u|².
    absp = critical_power(u2.copy(), grid.dim)
    absp *= u2
    return u2, absp, _sum(u2) * vol, grad_sq, _sum(absp) * vol


def norms(field_: ComplexField) -> FieldNorms:
    """Mass, gradient, and power integrals of a field: a diagnostics row's, bit
    for bit, as both are formed by `_block_norms`, here on a block of one."""
    u = field_.values
    _, _, *integrals = _block_norms(field_.grid, u[None], np.fft.fftn(u)[None])
    return FieldNorms(*(float(x[0]) for x in integrals))
