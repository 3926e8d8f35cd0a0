"""Ground-state profiles of the focusing mass-critical elliptic equation.

Solves ΔQ - Q + |Q|^(4/d) Q = 0 on the periodic box with the stabilized
(Petviashvili) fixed-point iteration, accelerated by Anderson mixing of
depth 2, and exposes the scaling identities that a true profile must
satisfy. The mixing cuts the passes from 27 to 10 at 1-D 512, from 44 to 13
at 2-D 128² and from 66 to 14 at 3-D 64³. The profile is even about the box
centre, so the iteration runs on the (n/2+1)^d points of one octant with
DCT-I transforms, and the converged octant is unfolded to the full grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .spectral import ComplexField, ConfigurationError, Grid, _sum_sq, abs2, critical_power, grid_dot, norms

__all__ = [
    "ConvergenceError",
    "GroundState",
    "PohozaevResiduals",
    "pde_residual",
    "pohozaev_residuals",
    "solve_ground_state",
]


# A 2×2 Gram system whose determinant is below this fraction of the product
# of its diagonal is treated as singular.
ANDERSON_SINGULAR = 1e-12
# A profile with ‖∇Q‖² at most this fraction of ‖Q‖₂² is flat: on a box too
# small to hold Q the iteration settles on the constant Q ≡ 1.
FLAT_PROFILE_RATIO = 1e-12


class ConvergenceError(RuntimeError):
    """Iteration failed; carries the last residual when one was computed."""

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class GroundState:
    """A converged profile and its final PDE residual; the integrals are
    the profile's own, formed from it on construction. A flat profile (see
    FLAT_PROFILE_RATIO), solved or read from the cache, is a
    ConfigurationError: its box is too small."""

    grid: Grid
    profile: np.ndarray
    residual: float
    mass_sq: float = field(init=False)
    grad_sq: float = field(init=False)
    lp_power: float = field(init=False)

    def __post_init__(self) -> None:
        nm = norms(self.field())
        object.__setattr__(self, "mass_sq", nm.mass_sq)
        object.__setattr__(self, "grad_sq", nm.grad_sq)
        object.__setattr__(self, "lp_power", nm.lp_power)
        if not nm.grad_sq > FLAT_PROFILE_RATIO * nm.mass_sq:
            raise ConfigurationError(
                f"box half_width {self.grid.half_width} is too small to hold the ground "
                f"state: the profile is flat (grad_sq {nm.grad_sq:.3g}, mass_sq {nm.mass_sq:.3g})"
            )

    @property
    def energy(self) -> float:
        d = self.grid.dim
        return 0.5 * self.grad_sq - d / (4.0 + 2.0 * d) * self.lp_power

    def field(self) -> ComplexField:
        """The profile as a complex state, ready for evolution."""
        return ComplexField(self.grid, self.profile.astype(np.complex128))


def _multiplicity(n: int) -> np.ndarray:
    """How many of the n points along an axis each of m = 0…n/2 stands for:
    1 at m = 0 and m = n/2, 2 for the others, which stand for their mirror
    images too."""
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    return weight


def _half_spectrum(grid: Grid):
    """1 + |k|² on the `rfftn` half spectrum, and the Parseval weight of each
    last-axis column, its multiplicity.
    """
    m = grid.points_per_axis // 2 + 1
    return 1.0 + grid.k2[..., :m], _multiplicity(grid.points_per_axis)


def _spectra(q: np.ndarray, dim: int, transform):
    """Spectra of q and of |q|^(4/d) q by `transform`, with |q|^(4/d) q itself."""
    nonlin = critical_power(q * q, dim)
    nonlin *= q
    return transform(q), nonlin, transform(nonlin)


def _residual(grid: Grid, helmholtz, weight, q_hat, nonlin_hat) -> float:
    """L² norm of ΔQ - Q + |Q|^σ Q from the spectra of Q and |Q|^σ Q on a part
    of the spectrum, each point weighted by how many it stands for."""
    r = nonlin_hat - helmholtz * q_hat
    r2 = weight * abs2(r)
    return float(np.sqrt(r2.sum() * grid.cell_volume / grid.size))


def pde_residual(grid: Grid, profile: np.ndarray) -> float:
    """L² norm of ΔQ - Q + |Q|^(4/d) Q for real samples Q."""
    q = np.asarray(profile, dtype=np.float64)
    q_hat, _, nonlin_hat = _spectra(q, grid.dim, np.fft.rfftn)
    return _residual(grid, *_half_spectrum(grid), q_hat, nonlin_hat)


def _anderson_coefficients(f: np.ndarray, f_hist: List[np.ndarray], weight) -> Optional[List[float]]:
    """Weights c minimizing ‖f - Σ c_j (f - f_hist[j])‖ over one or two earlier
    steps, in the norm whose grid sum weighs each point by `weight`: the
    octant's multiplicities, or 1.0 on the full grid.

    The Gram entries of the differences come from grid sums of products of
    the steps, and the system is solved by hand, so no LAPACK code is loaded.
    None means no history or a singular system.
    """
    if not f_hist:
        return None
    rows = [f] + f_hist

    def dot(i: int, j: int) -> float:
        return float(grid_dot(weight * rows[i], rows[j]))

    # b_i = <f, f - f_i>; the Gram entry <f - f_i, f - f_j> is b_i - <f, f_j> + <f_i, f_j>.
    ff = dot(0, 0)
    fh = [dot(0, j) for j in range(1, len(rows))]
    b = [ff - x for x in fh]
    a00 = b[0] - fh[0] + dot(1, 1)
    if len(b) == 1:
        return [b[0] / a00] if a00 > 0.0 else None
    a11 = b[1] - fh[1] + dot(2, 2)
    a01 = b[0] - fh[1] + dot(1, 2)
    det = a00 * a11 - a01 * a01
    if det > ANDERSON_SINGULAR * a00 * a11:
        return [(b[0] * a11 - b[1] * a01) / det, (a00 * b[1] - a01 * b[0]) / det]
    return None


def _dct1(a: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along every axis: each axis m = 0…n/2 is extended
    evenly to the n points of a period and transformed by `np.fft.rfft`,
    whose real part is kept. It is its own inverse up to a factor n per axis.
    """
    for ax in range(a.ndim):
        mirror = [slice(None)] * a.ndim
        mirror[ax] = slice(-2, 0, -1)
        a = np.fft.rfft(np.concatenate([a, a[tuple(mirror)]], axis=ax), axis=ax).real
    return a


def _unfold(octant: np.ndarray, n: int) -> np.ndarray:
    """The full grid of an even function from its octant: index i reads m = |i - n/2|."""
    m = np.abs(np.arange(n) - n // 2)
    return octant[np.ix_(*(m,) * octant.ndim)]


def solve_ground_state(
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 500,
    initial: Optional[np.ndarray] = None,
) -> GroundState:
    """Compute the positive, box-centered ground state on a grid.

    The Petviashvili map is G(Q) = S^gamma (1-Δ)^(-1)(|Q|^(4/d) Q), where S
    is the standard stabilizing quotient <(1-Δ)Q, Q>/<|Q|^(4/d) Q, Q> and
    gamma = m/(m-1) with m = 1 + 4/d. Iterating Q <- G(Q) converges
    linearly; the solver accelerates it by Anderson mixing of depth 2
    (Walker & Ni 2011): the next iterate is the combination of G at the
    last three iterates whose steps G(Q) - Q combine to the least L² norm.
    A singular Gram system falls back to Q <- G(Q).

    Q is even in every coordinate about the centre index n/2, and G keeps
    that symmetry, which also pins the translation mode. So the loop works
    on the (n/2+1)^d octant m = 0…n/2 from the centre along each axis, and
    its transforms are DCT-Is: G and the residual multiply only by even
    real symbols, so the centre's phase (-1)^k drops out. Every grid sum
    weighs a point by its multiplicity, the number of grid points it
    stands for. Each pass forms the spectra of Q and |Q|^(4/d) Q once; they
    give the residual of the current iterate, the quotient S and G(Q), so a
    pass costs two forward and one inverse DCT-I. Once that residual is
    below `tol`, the octant is unfolded to the full grid, an exactly even
    profile, and convergence is declared if its full-grid `pde_residual`
    is below `tol` too; that value is the one returned.

    `initial`, a full-grid iterate, must be exactly even about the centre.

    Raises ConvergenceError if the iterate collapses toward zero or the
    residual fails to reach `tol` within `max_iter` iterations.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sigma = 4.0 / grid.dim
    gamma = (1.0 + sigma) / sigma
    n, dim = grid.points_per_axis, grid.dim
    vol = grid.cell_volume
    # Octant index m is grid index (n/2 + m) mod n, and wavenumber index m.
    octant = (n // 2 + np.arange(n // 2 + 1)) % n
    helmholtz = 1.0 + _sum_sq(dim, grid.wavenumbers[: n // 2 + 1])
    inv_helmholtz = 1.0 / helmholtz
    weight = functools.reduce(np.multiply, np.ix_(*(_multiplicity(n),) * dim))
    if initial is None:
        q = 2.0 * np.exp(-_sum_sq(dim, grid.axis[octant]))
    else:
        full = np.asarray(initial, dtype=np.float64)
        if full.shape != grid.shape:
            raise ValueError("initial iterate does not match the grid shape")
        q = full[np.ix_(*(octant,) * dim)]
        if not np.array_equal(_unfold(q, n), full):
            raise ValueError("initial iterate is not even about the box centre")
    last_residual: Optional[float] = None
    # G(Q) and the step G(Q) - Q of up to the last two iterates, newest first.
    g_hist: List[np.ndarray] = []
    f_hist: List[np.ndarray] = []
    # Pass 0 only updates; pass i >= 1 first reads the residual of update i.
    for updates in range(max_iter + 1):
        q_hat, nonlin, nonlin_hat = _spectra(q, dim, _dct1)
        if updates:
            last_residual = _residual(grid, helmholtz, weight, q_hat, nonlin_hat)
            if last_residual < tol:
                profile = _unfold(q, n)
                last_residual = pde_residual(grid, profile)
                if last_residual < tol:
                    # The history goes first, so the profile's norms do not add to it.
                    del g, f, g_hist, f_hist
                    return GroundState(grid, profile, last_residual)
            if updates == max_iter:
                break
        # The quotient's sums are numpy's pairwise sums: S^gamma scales all of
        # G(Q), and an einsum loop's rounding here moved the profile 1e-13 of
        # max Q away from the full-grid iteration's; pairwise sums keep 3e-15.
        coupling = float((weight * nonlin * q).sum()) * vol
        if not math.isfinite(coupling) or coupling <= 0.0:
            raise ConvergenceError(
                "iteration collapsed to the zero field; retry with a larger initial amplitude",
                residual=last_residual,
            )
        s = float((weight * helmholtz * q_hat * q_hat).sum()) * vol / grid.size / coupling
        g = _dct1(inv_helmholtz * nonlin_hat)
        g *= s**gamma / grid.size
        f = g - q
        # No history, or a singular system: the plain update Q <- G(Q).
        coefs = _anderson_coefficients(f, f_hist, weight) or [0.0] * len(f_hist)
        # Q <- Σ w_j G_j, its oldest term first.
        terms = list(zip([1.0 - sum(coefs)] + coefs, [g] + g_hist))
        w, h = terms.pop()
        q = h * w
        for w, h in terms:
            q += h * w
        g_hist, f_hist = [g] + g_hist[:1], [f] + f_hist[:1]
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {last_residual:.3e})",
        residual=last_residual,
    )


@dataclass(frozen=True)
class PohozaevResiduals:
    """Normalized defects of the two scaling identities a profile must satisfy."""

    energy_res: float
    gradient_res: float


def pohozaev_residuals(gs: GroundState) -> PohozaevResiduals:
    """Scaling-identity defects, both normalized by the gradient integral.

    energy_res checks  (1/2)∫|∇Q|² = d/(4+2d) ∫|Q|^(4/d+2)  (zero energy);
    gradient_res checks ∫|Q|^(4/d+2) = (d+2)/d ∫|∇Q|².
    """
    d = gs.grid.dim
    energy_res = abs(gs.energy) / gs.grad_sq
    gradient_res = abs(gs.lp_power - (d + 2.0) / d * gs.grad_sq) / gs.grad_sq
    return PohozaevResiduals(energy_res, gradient_res)
