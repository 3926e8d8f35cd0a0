"""Ground-state profiles of the focusing mass-critical elliptic equation.

Solves ΔQ - Q + |Q|^(4/d) Q = 0 on the periodic box with a stabilized
fixed-point iteration and exposes the scaling identities that a true
profile must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import ComplexField, ConfigurationError, Grid, norms

__all__ = [
    "ConvergenceError",
    "GroundState",
    "PohozaevResiduals",
    "closed_form_q_1d",
    "pde_residual",
    "pohozaev_residuals",
    "solve_ground_state",
]


class ConvergenceError(RuntimeError):
    """Iteration failed; carries the last residual when one was computed."""

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class GroundState:
    """A converged profile with its integrals and final PDE residual."""

    grid: Grid
    profile: np.ndarray
    mass_sq: float
    grad_sq: float
    lp_power: float
    residual: float

    @property
    def energy(self) -> float:
        d = self.grid.dim
        return 0.5 * self.grad_sq - d / (4.0 + 2.0 * d) * self.lp_power

    def field(self) -> ComplexField:
        """The profile as a complex state, ready for evolution."""
        return ComplexField(self.grid, self.profile.astype(np.complex128))


def closed_form_q_1d(x) -> np.ndarray:
    """Explicit one-dimensional profile (3 sech²(2x))^(1/4)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    # sech(2x) written via decaying exponentials so large |x| cannot overflow
    sech = 2.0 * np.exp(-2.0 * x) / (1.0 + np.exp(-4.0 * x))
    return (3.0 * sech * sech) ** 0.25


def _half_spectrum(grid: Grid):
    """1 + |k|² on the `rfftn` half spectrum, and the Parseval weight of each
    last-axis column: 1 for columns 0 and n/2, 2 for the others, which also
    stand for their conjugate mirror images.
    """
    m = grid.points_per_axis // 2 + 1
    weight = np.full(m, 2.0)
    weight[[0, -1]] = 1.0
    return 1.0 + grid.k2[..., :m], weight


def _spectra(q: np.ndarray, sigma: float):
    """Half spectra of q and of |q|^σ q, with |q|^σ q itself."""
    nonlin = np.abs(q) ** sigma * q
    return np.fft.rfftn(q), nonlin, np.fft.rfftn(nonlin)


def _residual(grid: Grid, helmholtz, weight, q_hat, nonlin_hat) -> float:
    """L² norm of ΔQ - Q + |Q|^σ Q from the half spectra of Q and |Q|^σ Q."""
    r = nonlin_hat - helmholtz * q_hat
    r2 = weight * (r.real**2 + r.imag**2)
    return float(np.sqrt(r2.sum() * grid.cell_volume / grid.size))


def pde_residual(grid: Grid, profile: np.ndarray) -> float:
    """L² norm of ΔQ - Q + |Q|^(4/d) Q for real samples Q."""
    q = np.asarray(profile, dtype=np.float64)
    q_hat, _, nonlin_hat = _spectra(q, 4.0 / grid.dim)
    return _residual(grid, *_half_spectrum(grid), q_hat, nonlin_hat)


def solve_ground_state(
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 500,
    initial: Optional[np.ndarray] = None,
) -> GroundState:
    """Compute the positive, box-centered ground state on a grid.

    Iterates Q <- S^gamma (1-Δ)^(-1)(|Q|^(4/d) Q) in spectral space, where
    S is the standard stabilizing quotient <(1-Δ)Q, Q>/<|Q|^(4/d) Q, Q> and
    gamma = m/(m-1) with m = 1 + 4/d. The translation mode is pinned by
    rolling the peak back to the box center after every update; convergence
    is declared when the PDE residual drops below `tol`.

    Q is real, so the loop works on half spectra (`rfftn`/`irfftn`). Each
    pass forms the spectra of Q and |Q|^(4/d) Q once; they give the residual
    of the current iterate, the quotient S and the next update, so a pass
    costs two forward and one inverse real FFT.

    Raises ConvergenceError if the iterate collapses toward zero or the
    residual fails to reach `tol` within `max_iter` iterations.
    """
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sigma = 4.0 / grid.dim
    gamma = (1.0 + sigma) / sigma
    vol = grid.cell_volume
    helmholtz, weight = _half_spectrum(grid)
    inv_helmholtz = 1.0 / helmholtz
    if initial is None:
        r2 = sum(c * c for c in grid.coords)
        q = 2.0 * np.exp(-r2)
    else:
        q = np.array(initial, dtype=np.float64, copy=True)
        if q.shape != grid.shape:
            raise ValueError("initial iterate does not match the grid shape")
    center = grid.points_per_axis // 2
    axes = tuple(range(grid.dim))
    last_residual: Optional[float] = None
    # Pass 0 only updates; pass i >= 1 first reads the residual of update i.
    for updates in range(max_iter + 1):
        q_hat, nonlin, nonlin_hat = _spectra(q, sigma)
        if updates:
            last_residual = _residual(grid, helmholtz, weight, q_hat, nonlin_hat)
            if last_residual < tol:
                nm = norms(ComplexField(grid, q))
                return GroundState(grid, q, nm.mass_sq, nm.grad_sq, nm.lp_power, last_residual)
            if updates == max_iter:
                break
        coupling = (nonlin * q).sum() * vol
        if not np.isfinite(coupling) or coupling <= 0.0:
            raise ConvergenceError(
                "iteration collapsed to the zero field; retry with a larger initial amplitude",
                residual=last_residual,
            )
        quad = weight * helmholtz * (q_hat.real**2 + q_hat.imag**2)
        s = quad.sum() * vol / grid.size / coupling
        q = float(s) ** gamma * np.fft.irfftn(inv_helmholtz * nonlin_hat, s=grid.shape, axes=axes)
        peak = np.unravel_index(int(np.argmax(q)), q.shape)
        shift = tuple(center - p for p in peak)
        if any(shift):
            q = np.roll(q, shift, axis=axes)
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
    if not gs.grad_sq > 0:
        raise ValueError("gradient integral must be positive")
    energy_res = abs(0.5 * gs.grad_sq - d / (4.0 + 2.0 * d) * gs.lp_power) / gs.grad_sq
    gradient_res = abs(gs.lp_power - (d + 2.0) / d * gs.grad_sq) / gs.grad_sq
    return PohozaevResiduals(energy_res, gradient_res)
