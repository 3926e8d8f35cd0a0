"""Adaptive Strang-splitting integrator for i u_t + Δu + |u|^(4/d) u + i a(x) u = 0."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .spectral import (
    ComplexField,
    ConfigurationError,
    DampingProfile,
    Grid,
    _chebyshev,
    _require_finite,
    abs2,
    critical_power,
    grid_dot,
)

__all__ = [
    "StopReason",
    "SimConfig",
    "EvolutionState",
    "BlowupReport",
    "evolve",
]

# Fraction of mass in the outer 10% annulus of the box that flags a run.
BOUNDARY_MASS_LIMIT = 1e-6
# Points of the raveled field the kick rotates at a time (256 KiB of complex values).
KICK_BLOCK = 16384


class StopReason(enum.Enum):
    HORIZON_REACHED = "horizon_reached"
    GRADIENT_THRESHOLD = "gradient_threshold"
    TAIL_UNRESOLVED = "tail_unresolved"
    NONFINITE = "nonfinite"


@dataclass(frozen=True)
class SimConfig:
    """Step-size rule and guard settings for one evolution.

    The step rule is dt = min(dt0, adapt_const/‖∇u‖²); a run stops
    (`gradient_threshold`) when it falls below dt_min. A tail or dt-floor
    stop is detected blow-up when ‖∇u‖² has grown by at least
    `blowup_grad_ratio` over its initial value. t_detect is the last
    resolved time, never an extrapolated singularity time.
    """

    dt0: float = 1e-3
    t_end: float = 10.0
    adapt_const: float = 1e-2
    dt_min: float = 1e-7
    tail_threshold: float = 1e-4
    record_every: int = 20
    blowup_grad_ratio: float = 4.0

    def __post_init__(self) -> None:
        if not (self.dt0 > self.dt_min > 0):
            raise ConfigurationError(
                f"need dt0 > dt_min > 0, got dt0={self.dt0}, dt_min={self.dt_min}"
            )
        if not self.t_end > 0:
            raise ConfigurationError(f"t_end must be positive, got {self.t_end}")
        if not self.adapt_const > 0:
            raise ConfigurationError(f"adapt_const must be positive, got {self.adapt_const}")
        if not (0.0 < self.tail_threshold < 1.0):
            raise ConfigurationError(
                f"tail_threshold must lie in (0, 1), got {self.tail_threshold}"
            )
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")
        if not self.blowup_grad_ratio > 1.0:
            raise ConfigurationError("blowup_grad_ratio must exceed 1")
        _require_finite(self)


@dataclass
class EvolutionState:
    """Current time, spectrum, accepted-step count, the last step's dt and
    the spectrum's tail fraction: one snapshot, as the sink receives it.

    `spectrum` is the FFT û of the field: u = IFFT(û) on the grid's shape.
    `evolve` lends the spectrum it steps: it is valid only during the sink
    call, because the next step advances it in place, and its array also
    holds the mid-step field while the step runs. A sink that keeps it must
    copy it, as `TrajectoryRecorder` does when it holds snapshots for a
    block of rows.
    """

    time: float
    spectrum: np.ndarray
    step_count: int = 0
    dt_used: float = 0.0
    tail_fraction: float = 0.0


@dataclass(frozen=True)
class BlowupReport:
    """Terminal summary of one evolution."""

    blew_up: bool
    t_detect: float
    peak_grad_sq: float
    scale_at_detect: float
    stop_reason: StopReason
    terminal_mass_sq: float
    boundary_mass_flag: bool = False


Sink = Callable[[EvolutionState], None]


class _StrangKernel:
    """Free-flow phase and damping kick of the Strang step on one grid and damping.

    The free flow exp(-i|k|²h) is applied as one 1-D phase per axis,
    broadcast in place, so no full-grid complex exponential is formed; the
    per-axis phases of the last two h are kept. The kick coefficients are
    evaluated on the distinct values of a(x) only and gathered onto the
    grid, once per change of dt; runs at a constant dt reuse them on every
    step.
    """

    def __init__(self, grid: Grid, a: DampingProfile):
        self.grid = grid
        self.sigma = 4.0 / grid.dim
        self.k2_axis = grid.wavenumbers**2
        self.axis_shapes = [
            tuple(-1 if j == i else 1 for j in range(grid.dim)) for i in range(grid.dim)
        ]
        # Looked up at construction, not import, so a patched numpy.fft is seen.
        self.fft = np.fft.fft if grid.dim == 1 else np.fft.fftn
        self.ifft = np.fft.ifft if grid.dim == 1 else np.fft.ifftn
        self._phases: Dict[float, np.ndarray] = {}
        self._kick_dt: Optional[float] = None
        # a(x) = a_values[a_index], raveled; the profile keeps the table,
        # so kernels built on one profile share it.
        self._a_values, self._a_index = a.distinct_values
        self._amp = np.empty(grid.size)
        self._half_coef = np.empty(grid.size)
        block = min(KICK_BLOCK, grid.size)
        self._theta = np.empty(block)
        self._t2 = np.empty(block)
        self._rot = np.empty(block, dtype=np.complex128)

    def phase(self, u_hat: np.ndarray, h: float) -> None:
        """In place: û <- exp(-i|k|² h) û, the free flow over h."""
        if h == 0.0:
            return
        p = self._phases.get(h)
        if p is None:
            p = np.exp(-1j * h * self.k2_axis)
            if len(self._phases) == 2:
                del self._phases[next(iter(self._phases))]
            self._phases[h] = p
        for shape in self.axis_shapes:
            u_hat *= p.reshape(shape)

    def _kick_coefficients(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        # Amplitude e^(-a dt) and half the phase coefficient
        # dt (1 - e^(-sigma a dt))/(sigma a), with the series branch guarding
        # |a dt| < 1e-6 (covers a = 0), on the distinct values of a, then
        # gathered onto the raveled grid.
        if dt != self._kick_dt:
            adt = self._a_values * dt
            z = self.sigma * adt
            small = np.abs(adt) < 1e-6
            safe = np.where(small, 1.0, z)
            factor = np.where(small, 1.0 - z / 2.0 + z * z / 6.0, -np.expm1(-safe) / safe)
            np.take(np.exp(-adt), self._a_index, out=self._amp, mode="clip")
            # Halving is exact, so this is half of dt * factor bit for bit.
            np.take(0.5 * dt * factor, self._a_index, out=self._half_coef, mode="clip")
            self._kick_dt = dt
        return self._amp, self._half_coef

    def kick(self, u: np.ndarray, dt: float, edge_w: Optional[np.ndarray] = None) -> float:
        """In place: exact pointwise flow of u_t = i|u|^sigma u - a u over dt.

        The amplitude decays as e^(-a dt) while the phase advances by
        θ = |u|^sigma dt (1 - e^(-sigma a dt))/(sigma a). With t = tan(θ/2),
        the factor is e^(-a dt) ((1 - t²) + 2it)/(1 + t²). It is applied to
        KICK_BLOCK points at a time of the raveled field, so the block's
        working arrays stay in cache. With `edge_w`, returns Σ edge_w |u|² of
        the field before the kick; otherwise 0.
        """
        if not u.flags.c_contiguous:
            raise ValueError("the kick acts in place on a C-contiguous field")
        amp, half_coef = self._kick_coefficients(dt)
        flat = u.reshape(-1)
        theta, t2, rot = self._theta, self._t2, self._rot
        edge = 0.0
        for lo in range(0, flat.size, theta.size):
            hi = lo + theta.size
            ub = flat[lo:hi]
            np.multiply(ub.real, ub.real, out=theta)
            np.multiply(ub.imag, ub.imag, out=t2)
            theta += t2
            if edge_w is not None:
                edge += float(grid_dot(theta, edge_w[lo:hi]))
            critical_power(theta, self.grid.dim)
            theta *= half_coef[lo:hi]
            t = np.tan(theta, out=theta)
            np.multiply(t, t, out=t2)
            np.subtract(1.0, t2, out=rot.real)
            # t2 <- amp/(1 + t²)
            t2 += 1.0
            np.divide(amp[lo:hi], t2, out=t2)
            rot.real *= t2
            t += t
            np.multiply(t, t2, out=rot.imag)
            ub *= rot
        return edge

    def advance(
        self, u_hat: np.ndarray, h: float, dt: float, edge_w: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float]:
        """Free flow over h, kick over dt; returns the new û and the kick's edge sum.

        û is transformed in place with `out=`: its array holds the mid-step
        field during the kick and the new spectrum on return, and it is the
        array returned, so a step allocates no full-grid array. The returned
        spectrum still owes the closing half phase, which a caller merges
        into the next step's opening one.
        """
        self.phase(u_hat, h)
        u = self.ifft(u_hat, out=u_hat)
        edge = self.kick(u, dt, edge_w)
        return self.fft(u, out=u), edge


def _spectral_norms(u_hat: np.ndarray, grid: Grid, weights: np.ndarray) -> Tuple[float, float, float]:
    """Σ|û|², ‖∇u‖² and the tail fraction, read from û.

    `weights` stacks k2 and the tail weight, as `grid.norm_weight` does, so
    both weighted sums are one `grid_dot`. A phase on û drops out, so a spectrum
    that still owes a half phase gives the norms of the field it stands for.
    """
    spec2 = abs2(u_hat)
    total = float(spec2.sum())
    k2_sum, tail_sum = grid_dot(weights, spec2).tolist()
    tail = tail_sum / total if total > 0.0 else 0.0
    return total, k2_sum * grid.cell_volume / grid.size, tail


def _dt_from_grad(grad_sq: float, cfg: SimConfig) -> float:
    if grad_sq <= 0.0:
        return cfg.dt0
    return min(cfg.dt0, cfg.adapt_const / grad_sq)


def evolve(
    u0: ComplexField,
    a: DampingProfile,
    cfg: SimConfig,
    sink: Optional[Sink] = None,
    ref_grad_sq: Optional[float] = None,
) -> BlowupReport:
    """Run the adaptive integrator from u0 until the horizon or a guard stop.

    Stop conditions, in priority order: non-finite state values; spectral
    tail fraction (mass in the outer third of wavenumbers over total) above
    cfg.tail_threshold; the step rule's dt below cfg.dt_min; t >= t_end.
    The sink, when given, receives a snapshot, one EvolutionState, at t = 0,
    every cfg.record_every accepted steps, and at the stop, each step once;
    a non-finite stop gives none. Its spectrum is the stepped û, with its
    owed half phase applied, lent for the call (see EvolutionState).

    The state carried from step to step is the spectrum û, and adjacent
    half phases are merged, so a step costs one inverse and one forward FFT.
    Both are taken in û's own array, so one state array, never u0's, serves
    the whole run, and u0 is released after the first transform.
    Mass, ‖∇u‖² and the tail fraction are read from û, and the sink is
    lent û itself, so the physical field is formed only inside a step. The
    boundary-mass flag is raised when a step's mid-step field, the one the
    kick acts on, holds more than BOUNDARY_MASS_LIMIT of its mass in the
    outer 10% of the box (max_j |x_j| >= 0.9 L); it is checked on every step.
    The tail fraction's mask is row 1 of `grid.norm_weight` (see `Grid`); the
    edge mask thresholds max_j |x_j|, built from the 1-D axis (`_chebyshev`).

    `ref_grad_sq` supplies the reference gradient integral (normally the
    matching ground state's) used for scale_at_detect = ‖∇Q‖/‖∇u(t_detect)‖;
    without it the reference defaults to 1.
    """
    grid = u0.grid
    if a.grid != grid:
        raise ConfigurationError("damping profile and initial data live on different grids")
    kernel = _StrangKernel(grid, a)
    edge_w = (_chebyshev(grid, grid.axis) >= 0.9 * grid.half_width).ravel().astype(np.float64)
    mass_per_total = grid.cell_volume / grid.size

    # Into one new array, so u0 is never written: without out=, fftn
    # allocates one array per axis. u0 is not read again.
    u_hat = kernel.fft(u0.values, out=np.empty_like(u0.values))
    del u0
    # Half phase not yet applied to û: u(t) = IFFT(exp(-i|k|² owed) û).
    owed = 0.0
    t = 0.0
    steps = 0
    last_dt = 0.0
    grad0: Optional[float] = None
    peak_grad = 0.0
    boundary_flag = False

    while True:
        total, grad_sq, tail = _spectral_norms(u_hat, grid, grid.norm_weight)
        # A non-finite value anywhere in u reaches every entry of û.
        if not math.isfinite(total):
            stop = StopReason.NONFINITE
            grad_sq = math.nan
            mass_sq = math.nan
            break
        mass_sq = total * mass_per_total
        if grad0 is None:
            grad0 = grad_sq
        peak_grad = max(peak_grad, grad_sq)
        dt = _dt_from_grad(grad_sq, cfg)
        if tail > cfg.tail_threshold:
            stop = StopReason.TAIL_UNRESOLVED
        elif dt < cfg.dt_min:
            stop = StopReason.GRADIENT_THRESHOLD
        elif t >= cfg.t_end * (1.0 - 1e-12):
            stop = StopReason.HORIZON_REACHED
        else:
            stop = None
        if sink is not None and (stop is not None or steps % cfg.record_every == 0):
            kernel.phase(u_hat, owed)
            owed = 0.0
            sink(EvolutionState(t, u_hat, steps, last_dt, tail))
        if stop is not None:
            break
        dt = min(dt, cfg.t_end - t)
        u_hat, edge = kernel.advance(u_hat, owed + 0.5 * dt, dt, None if boundary_flag else edge_w)
        owed = 0.5 * dt
        t += dt
        steps += 1
        last_dt = dt
        # Parseval: the mid-step field holds total/size of Σ|u|².
        if edge > BOUNDARY_MASS_LIMIT * total / grid.size:
            boundary_flag = True

    blew = (
        stop in (StopReason.TAIL_UNRESOLVED, StopReason.GRADIENT_THRESHOLD)
        and grad0 > 0.0
        and grad_sq >= cfg.blowup_grad_ratio * grad0
    )
    ref = 1.0 if ref_grad_sq is None else float(ref_grad_sq)
    if math.isfinite(grad_sq) and grad_sq > 0.0:
        scale = math.sqrt(ref / grad_sq)
    else:
        scale = math.inf
    return BlowupReport(
        blew_up=blew,
        t_detect=t,
        peak_grad_sq=peak_grad,
        scale_at_detect=scale,
        stop_reason=stop,
        terminal_mass_sq=mass_sq,
        boundary_mass_flag=boundary_flag,
    )
