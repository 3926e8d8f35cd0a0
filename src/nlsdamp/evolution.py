"""Adaptive Strang-splitting integrator for i u_t + Δu + |u|^(4/d) u + i a(x) u = 0."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from .spectral import ComplexField, ConfigurationError, DampingProfile, Grid

__all__ = [
    "StopReason",
    "SimConfig",
    "EvolutionState",
    "BlowupReport",
    "strang_step",
    "evolve",
]

# ‖∇u‖²/‖∇u₀‖² growth at which a dt-floor stop is reported as blow-up outright.
GRAD_RATIO_THRESHOLD = 1e6
# Fraction of mass in the outer 10% annulus of the box that flags a run.
BOUNDARY_MASS_LIMIT = 1e-6


class StopReason(enum.Enum):
    HORIZON_REACHED = "horizon_reached"
    GRADIENT_THRESHOLD = "gradient_threshold"
    DT_FLOOR = "dt_floor"
    TAIL_UNRESOLVED = "tail_unresolved"
    NONFINITE = "nonfinite"


@dataclass(frozen=True)
class SimConfig:
    """Step-size rule and guard settings for one evolution.

    The accepted step is dt = max(dt_min, min(dt0, adapt_const/‖∇u‖²)).
    A stop with the spectral tail unresolved (or the dt floor engaged) is
    classified as detected blow-up when ‖∇u‖² has grown by at least
    `blowup_grad_ratio` over its initial value; t_detect is then the last
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")


@dataclass
class EvolutionState:
    """Current time, field, and accepted-step count.

    `spectrum`, when set, is the FFT û of the field. `evolve` lends the
    spectrum it steps: it is valid only during the sink call, because the
    next step advances it in place. A sink that keeps it must copy it.
    """

    time: float
    field: ComplexField
    step_count: int = 0
    spectrum: Optional[np.ndarray] = None


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


Sink = Callable[[EvolutionState, float, float], None]


class _StrangKernel:
    """Free-flow phase and damping kick of the Strang step on one grid and damping.

    Both stepping paths, `evolve` and `strang_step`, run this arithmetic.
    The free flow exp(-i|k|²h) is applied as one 1-D phase per axis,
    broadcast in place, so no full-grid complex exponential is formed.
    The kick coefficients of the last dt are cached; runs at a constant dt
    reuse them on every step.
    """

    def __init__(self, grid: Grid, a: Optional[DampingProfile] = None):
        self.grid = grid
        self.a = None if a is None else a.values
        self.sigma = 4.0 / grid.dim
        self.k2_axis = grid.wavenumbers**2
        self.axis_shapes = [
            tuple(-1 if j == i else 1 for j in range(grid.dim)) for i in range(grid.dim)
        ]
        # Looked up at construction, not import, so a patched numpy.fft is seen.
        self.fft = np.fft.fft if grid.dim == 1 else np.fft.fftn
        self.ifft = np.fft.ifft if grid.dim == 1 else np.fft.ifftn
        self._kick_dt: Optional[float] = None
        self._amp = self._coef = None

    def phase(self, u_hat: np.ndarray, h: float) -> None:
        """In place: û <- exp(-i|k|² h) û, the free flow over h."""
        if h == 0.0:
            return
        p = np.exp(-1j * h * self.k2_axis)
        for shape in self.axis_shapes:
            u_hat *= p.reshape(shape)

    def _kick_coefficients(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        # Amplitude e^(-a dt) and phase coefficient dt (1 - e^(-sigma a dt))/(sigma a),
        # with the series branch guarding |a dt| < 1e-6 (covers a = 0).
        if dt != self._kick_dt:
            adt = self.a * dt
            z = self.sigma * adt
            small = np.abs(adt) < 1e-6
            safe = np.where(small, 1.0, z)
            factor = np.where(small, 1.0 - z / 2.0 + z * z / 6.0, -np.expm1(-safe) / safe)
            self._amp = np.exp(-adt)
            self._coef = dt * factor
            self._kick_dt = dt
        return self._amp, self._coef

    def kick(self, u: np.ndarray, dt: float, edge_w: Optional[np.ndarray] = None) -> float:
        """In place: exact pointwise flow of u_t = i|u|^sigma u - a u over dt.

        The amplitude decays as e^(-a dt) while the phase advances by
        |u|^sigma dt (1 - e^(-sigma a dt))/(sigma a). With `edge_w`, returns
        Σ edge_w |u|² of the field before the kick; otherwise 0.
        """
        amp, coef = self._kick_coefficients(dt)
        theta = u.real**2 + u.imag**2
        edge = 0.0 if edge_w is None else float(np.dot(theta.ravel(), edge_w))
        # |u|^sigma = (|u|²)^(2/d): squared for d = 1, as is for d = 2.
        if self.grid.dim == 1:
            np.square(theta, out=theta)
        elif self.grid.dim == 3:
            np.power(theta, 0.5 * self.sigma, out=theta)
        theta *= coef
        rot = np.empty_like(u)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        rot *= amp
        u *= rot
        return edge

    def advance(
        self, u_hat: np.ndarray, h: float, dt: float, edge_w: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float]:
        """Free flow over h, kick over dt; returns the new û and the kick's edge sum.

        û is consumed. The returned spectrum still owes the closing half
        phase, which a caller merges into the next step's opening one.
        """
        self.phase(u_hat, h)
        u = self.ifft(u_hat)
        edge = self.kick(u, dt, edge_w)
        return self.fft(u), edge


def _spectral_norms(
    u_hat: np.ndarray, grid: Grid, tail_w: Optional[np.ndarray] = None
) -> Tuple[float, float, float]:
    """Σ|û|², ‖∇u‖² and the tail fraction, read from û.

    A phase on û drops out, so a spectrum that still owes a half phase gives
    the norms of the field it stands for.
    """
    spec2 = (u_hat.real**2 + u_hat.imag**2).ravel()
    total = float(spec2.sum())
    grad_sq = float(np.dot(spec2, grid.k2.ravel())) * grid.cell_volume / grid.size
    tail = 0.0
    if tail_w is not None and total > 0.0:
        tail = float(np.dot(spec2, tail_w)) / total
    return total, grad_sq, tail


def strang_step(state: EvolutionState, a: DampingProfile, dt: float) -> EvolutionState:
    """Second-order composition: half linear, full nonlinear/damping, half linear.

    The same kernel as `evolve`, with the closing half phase applied at once
    instead of merged into the next step.
    """
    kernel = _StrangKernel(state.field.grid, a)
    u_hat, _ = kernel.advance(kernel.fft(state.field.values), 0.5 * dt, dt)
    kernel.phase(u_hat, 0.5 * dt)
    out = ComplexField(state.field.grid, kernel.ifft(u_hat))
    return EvolutionState(state.time + dt, out, state.step_count + 1)


def _dt_from_grad(grad_sq: float, cfg: SimConfig) -> float:
    if grad_sq <= 0.0:
        return cfg.dt0
    return max(cfg.dt_min, min(cfg.dt0, cfg.adapt_const / grad_sq))


def _tail_mask(grid: Grid) -> np.ndarray:
    # Outer third of wavenumbers, per axis: max_j |k_j| beyond 2/3 of Nyquist.
    k_abs = [np.abs(k) for k in grid.k_mesh]
    k_max = float(np.max(np.abs(grid.wavenumbers)))
    cheb = k_abs[0]
    for k in k_abs[1:]:
        cheb = np.maximum(cheb, k)
    return cheb > (2.0 / 3.0) * k_max


def _boundary_mask(grid: Grid) -> np.ndarray:
    x_abs = [np.abs(c) for c in grid.coords]
    cheb = x_abs[0]
    for c in x_abs[1:]:
        cheb = np.maximum(cheb, c)
    return cheb >= 0.9 * grid.half_width


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
    cfg.tail_threshold; dt floor engaged while ‖∇u‖² has grown a
    million-fold; t >= t_end. The sink, when given, receives a snapshot
    (state, dt_used, tail_fraction) at t = 0, every cfg.record_every
    accepted steps, and at the stop. The snapshot's field is its own; its
    `spectrum` is the stepped û, lent for the call (see EvolutionState).

    The state carried from step to step is the spectrum û, and adjacent
    half phases are merged, so a step costs one inverse and one forward FFT.
    Mass, ‖∇u‖² and the tail fraction are read from û; the physical field
    is formed only for the sink, at one inverse FFT per snapshot. The
    boundary-mass flag is raised when a step's mid-step field, the one the
    kick acts on, holds more than BOUNDARY_MASS_LIMIT of its mass in the
    outer 10% of the box (max_j |x_j| >= 0.9 L); it is checked on every step.

    `ref_grad_sq` supplies the reference gradient integral (normally the
    matching ground state's) used for scale_at_detect = ‖∇Q‖/‖∇u(t_detect)‖;
    without it the reference defaults to 1.
    """
    grid = u0.grid
    if a.grid is not grid and not a.grid.same_layout(grid):
        raise ConfigurationError("damping profile and initial data live on different grids")
    kernel = _StrangKernel(grid, a)
    tail_w = _tail_mask(grid).ravel().astype(np.float64)
    edge_w = _boundary_mask(grid).ravel().astype(np.float64)
    mass_per_total = grid.cell_volume / grid.size

    u_hat = kernel.fft(u0.values)
    # Half phase not yet applied to û: u(t) = IFFT(exp(-i|k|² owed) û).
    owed = 0.0
    t = 0.0
    steps = 0
    last_dt = 0.0
    grad0: Optional[float] = None
    peak_grad = 0.0
    boundary_flag = False
    emitted_step = -1
    blew = False

    def emit(tail: float) -> None:
        nonlocal emitted_step, owed
        if sink is not None:
            kernel.phase(u_hat, owed)
            owed = 0.0
            field_ = ComplexField(grid, kernel.ifft(u_hat))
            sink(EvolutionState(t, field_, steps, u_hat), last_dt, tail)
        emitted_step = steps

    while True:
        total, grad_sq, tail = _spectral_norms(u_hat, grid, tail_w)
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
        if steps % cfg.record_every == 0 and steps != emitted_step:
            emit(tail)
        if tail > cfg.tail_threshold:
            stop = StopReason.TAIL_UNRESOLVED
            blew = grad0 > 0.0 and grad_sq >= cfg.blowup_grad_ratio * grad0
            break
        dt = _dt_from_grad(grad_sq, cfg)
        if dt <= cfg.dt_min and grad0 > 0.0 and grad_sq > GRAD_RATIO_THRESHOLD * grad0:
            stop = StopReason.GRADIENT_THRESHOLD
            blew = True
            break
        if t >= cfg.t_end * (1.0 - 1e-12):
            stop = StopReason.HORIZON_REACHED
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

    if stop is not StopReason.NONFINITE and steps != emitted_step:
        emit(tail)
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
