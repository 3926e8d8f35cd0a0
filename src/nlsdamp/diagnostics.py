"""Per-snapshot diagnostics rows, balance residuals, mass envelopes, windowed
concentration, and the sharp interpolation-inequality functional."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, List, Sequence, Tuple, get_origin, get_type_hints

import numpy as np

from .evolution import EvolutionState, _spectral_norms
from .reporting import format_float
from .spectral import ComplexField, DampingProfile, norms

__all__ = [
    "WindowRule",
    "gradient_window_rule",
    "DiagnosticsRow",
    "compute_row",
    "TrajectoryRecorder",
    "csv_header",
    "csv_line",
    "mass_balance_residual",
    "energy_balance_residual",
    "momentum_balance_residual",
    "EnvelopeCheck",
    "mass_envelope_check",
    "BalanceReport",
    "balance_report",
    "ConcentrationResult",
    "concentration_mass",
    "gn_ratio",
    "sharp_gn_constant",
    "random_smooth_field",
]

WindowRule = Callable[[float], float]


def gradient_window_rule(ref_grad_sq: float, w0: float = 1.0) -> WindowRule:
    """Window rule w = w0 (‖∇Q‖/‖∇u‖)^(1/2).

    The window shrinks as the solution focuses while w·‖∇u‖ still diverges,
    which is the regime the concentration claim addresses. `ref_grad_sq` is
    the reference gradient integral ‖∇Q‖².
    """
    if not ref_grad_sq > 0:
        raise ValueError("reference gradient integral must be positive")

    def rule(grad_sq: float) -> float:
        if grad_sq <= 0.0:
            return math.inf
        return w0 * (ref_grad_sq / grad_sq) ** 0.25

    return rule


@dataclass(frozen=True)
class DiagnosticsRow:
    """One recorded snapshot of the conserved-quantity ledger.

    The fields, in order, are the rows.csv columns. Metadata "csv" names a
    column that differs from its field; a tuple field holds one value per
    axis and gives the columns `<name>_1` … `<name>_d`.
    """

    time: float = field(metadata={"csv": "t"})
    mass_sq: float
    energy: float
    momentum: Tuple[float, ...] = field(metadata={"csv": "p"})
    grad_sq: float
    lp_power: float
    h_value: float
    int_a_u2: float
    int_a_grad2: float
    int_a_lp: float
    re_grad_a_term: float
    int_a_im_grad: Tuple[float, ...]
    dt_used: float
    tail_fraction: float
    concentration_mass: float = field(metadata={"csv": "conc_mass"})
    window_radius: float = field(metadata={"csv": "window_w"})


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Σ x·y over the grid, as one dot product."""
    return float(np.dot(x.ravel(), y.ravel()))


def compute_row(
    state: EvolutionState,
    a: DampingProfile,
    w_rule: WindowRule,
    dt_used: float = 0.0,
    tail_fraction: float = 0.0,
) -> DiagnosticsRow:
    """Evaluate every diagnostic at one snapshot.

    Energy is E = (1/2)∫|∇u|² - d/(4+2d) ∫|u|^(4/d+2); momentum components
    are P_j = Im ∫ (∂_j u) ū; the dissipation functional is
    H = -∫a|∇u|² + ∫a|u|^(4/d+2) - Re ∫ (∇u·∇a) ū, so that dE/dt = H.
    The damping-weighted integrals, ∫a Im((∂_j u) ū) among them, are stored
    so that the mass, energy and momentum balance residuals are formed from
    rows alone, without re-simulation. The spectrum û is taken from the
    state when it carries one, and transformed from the field otherwise.
    """
    g = state.field.grid
    d = g.dim
    vol = g.cell_volume
    vals = state.field.values
    abs2 = vals.real**2 + vals.imag**2
    mass_sq = g.integrate(abs2)
    u_hat = state.spectrum if state.spectrum is not None else np.fft.fftn(vals)
    _, grad_sq, _ = _spectral_norms(u_hat, g)
    p = 4.0 / d + 2.0
    absp = abs2 ** (p / 2.0)
    lp_power = g.integrate(absp)
    energy = 0.5 * grad_sq - d / (4.0 + 2.0 * d) * lp_power
    conj_v = vals.conj()
    momentum, int_a_im_grad = [], []
    a_grad2 = re_grad_a = 0.0
    # One axis at a time, so at most one gradient component is held.
    for k, ga in zip(g.k_mesh, a.gradient_values):
        gj = np.fft.ifftn(1j * k * u_hat)
        flux = gj * conj_v  # (∂_j u) ū
        momentum.append(g.integrate(flux.imag))
        int_a_im_grad.append(_dot(a.values, flux.imag) * vol)
        a_grad2 += _dot(a.values, gj.real**2 + gj.imag**2)
        re_grad_a += _dot(flux.real, ga)
    int_a_u2 = _dot(a.values, abs2) * vol
    int_a_grad2 = a_grad2 * vol
    int_a_lp = _dot(a.values, absp) * vol
    re_grad_a_term = re_grad_a * vol
    h_value = -int_a_grad2 + int_a_lp - re_grad_a_term
    if mass_sq == 0.0:
        window_radius = 0.0
        conc = 0.0
    else:
        window_radius = float(w_rule(grad_sq))
        # Keep the ball inside the fundamental cell; the rule may blow up
        # when the field has no gradient content.
        window_radius = min(window_radius, 0.99 * g.half_width)
        if window_radius > 0.0:
            conc = concentration_mass(state.field, window_radius).value
        else:
            window_radius = max(window_radius, 0.0)
            conc = 0.0
    return DiagnosticsRow(
        time=state.time,
        mass_sq=mass_sq,
        energy=energy,
        momentum=tuple(momentum),
        grad_sq=grad_sq,
        lp_power=lp_power,
        h_value=h_value,
        int_a_u2=int_a_u2,
        int_a_grad2=int_a_grad2,
        int_a_lp=int_a_lp,
        re_grad_a_term=re_grad_a_term,
        int_a_im_grad=tuple(int_a_im_grad),
        dt_used=dt_used,
        tail_fraction=tail_fraction,
        concentration_mass=conc,
        window_radius=window_radius,
    )


class TrajectoryRecorder:
    """Evolution sink that turns snapshots into diagnostics rows.

    Only the rows are kept, so memory grows by one row per snapshot.
    """

    def __init__(self, a: DampingProfile, w_rule: WindowRule):
        self.a = a
        self.w_rule = w_rule
        self.rows: List[DiagnosticsRow] = []

    def __call__(self, state: EvolutionState, dt_used: float, tail_fraction: float) -> None:
        self.rows.append(compute_row(state, self.a, self.w_rule, dt_used, tail_fraction))


def _row_columns() -> Tuple[Tuple[str, str, bool], ...]:
    """(field name, CSV name, one value per axis) for each DiagnosticsRow field."""
    hints = get_type_hints(DiagnosticsRow)
    return tuple(
        (f.name, f.metadata.get("csv", f.name), get_origin(hints[f.name]) is tuple)
        for f in fields(DiagnosticsRow)
    )


_ROW_COLUMNS = _row_columns()


def csv_header(dim: int) -> str:
    cols: List[str] = []
    for _, col, per_axis in _ROW_COLUMNS:
        cols += [f"{col}_{j + 1}" for j in range(dim)] if per_axis else [col]
    return ",".join(cols)


def csv_line(row: DiagnosticsRow, dim: int) -> str:
    vals: List[float] = []
    for name, _, per_axis in _ROW_COLUMNS:
        value = getattr(row, name)
        vals += [value[j] for j in range(dim)] if per_axis else [value]
    return ",".join(format_float(v) for v in vals)


def mass_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval defect of d/dt ∫|u|² = -2 ∫a|u|².

    Trapezoid rule in time over consecutive rows, normalized by the initial
    mass.
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    m0 = rows[0].mass_sq
    if m0 == 0.0:
        return 0.0
    worst = 0.0
    for r1, r2 in zip(rows, rows[1:]):
        dt = r2.time - r1.time
        integral = 0.5 * dt * (r1.int_a_u2 + r2.int_a_u2)
        worst = max(worst, abs(r2.mass_sq - r1.mass_sq + 2.0 * integral))
    return worst / m0


def energy_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval defect of dE/dt = H, normalized by max(1, |E(0)|).

    The sign convention (energy drifts by +∫H dt) is pinned by the
    finite-difference oracle in the test suite.
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = max(1.0, abs(rows[0].energy))
    worst = 0.0
    for r1, r2 in zip(rows, rows[1:]):
        dt = r2.time - r1.time
        integral = 0.5 * dt * (r1.h_value + r2.h_value)
        worst = max(worst, abs(r2.energy - r1.energy - integral))
    return worst / scale


def momentum_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval, per-component defect of dP/dt = -2 ∫a Im(∇u ū).

    Trapezoid rule in time over consecutive rows, normalized by
    mass_sq(0)·‖∇u₀‖ (or 1 when that degenerates to zero).
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = rows[0].mass_sq * math.sqrt(rows[0].grad_sq)
    if scale == 0.0:
        scale = 1.0
    dim = len(rows[0].momentum)
    worst = 0.0
    for r1, r2 in zip(rows, rows[1:]):
        dt = r2.time - r1.time
        for j in range(dim):
            integral = 0.5 * dt * (r1.int_a_im_grad[j] + r2.int_a_im_grad[j])
            defect = r2.momentum[j] - r1.momentum[j] + 2.0 * integral
            worst = max(worst, abs(defect))
    return worst / scale


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of the two-sided mass envelope test; worst is the smallest margin."""

    ok: bool
    worst: float


def mass_envelope_check(rows: Sequence[DiagnosticsRow], a: DampingProfile) -> EnvelopeCheck:
    """Check ‖u₀‖e^(-‖a‖∞ t) <= ‖u(t)‖ <= ‖u₀‖e^(+‖a‖∞ t) on every row.

    Margins carry an absolute slack of 1e-8·‖u₀‖ against round-off.
    """
    if not rows:
        raise ValueError("need at least one diagnostics row")
    u0 = math.sqrt(rows[0].mass_sq)
    eps = 1e-8 * u0
    worst = math.inf
    for r in rows:
        val = math.sqrt(r.mass_sq)
        upper = u0 * math.exp(a.sup_norm * r.time) + eps
        lower = u0 * math.exp(-a.sup_norm * r.time) - eps
        worst = min(worst, upper - val, val - lower)
    return EnvelopeCheck(ok=worst >= 0.0, worst=worst)


@dataclass(frozen=True)
class BalanceReport:
    """Balance residuals and envelope outcome for one recorded trajectory."""

    mass_residual: float
    energy_residual: float
    momentum_residual: float
    envelope_ok: bool
    max_envelope_violation: float


def balance_report(
    rows: Sequence[DiagnosticsRow],
    a: DampingProfile,
    fields=None,  # unused: kept only so the benchmark's stored-field probe still attaches
) -> BalanceReport:
    env = mass_envelope_check(rows, a)
    return BalanceReport(
        mass_residual=mass_balance_residual(rows),
        energy_residual=energy_balance_residual(rows),
        momentum_residual=momentum_balance_residual(rows),
        envelope_ok=env.ok,
        max_envelope_violation=max(0.0, -env.worst),
    )


@dataclass(frozen=True)
class ConcentrationResult:
    value: float
    center: Tuple[float, ...]


def concentration_mass(field_: ComplexField, w: float) -> ConcentrationResult:
    """Largest windowed mass sup_y ∫_{|x-y|<=w} |u|² over grid-centered balls.

    Evaluated for every center at once: the ball is the set of grid offsets
    whose coordinate r² is at most w² (periodic distance). In 1-D that set
    is one run of offsets, summed by a periodic prefix sum; for d ≥ 2 |u|² is
    convolved with the ball indicator by FFT. Ties resolve to the smallest
    lexicographic grid index.
    """
    g = field_.grid
    if not (0.0 < w < g.half_width):
        raise ValueError(f"window radius must lie in (0, {g.half_width}), got {w}")
    r2 = sum(c * c for c in g.coords)
    vals = field_.values
    abs2 = vals.real**2 + vals.imag**2
    if g.dim == 1:
        # Offsets lo..hi from the center index n/2; windowed[i] sums |u|² over
        # i - hi .. i - lo, read off the prefix sums of |u|² extended periodically.
        n = g.points_per_axis
        inside = np.flatnonzero(r2 <= w * w)
        lo, hi = int(inside[0]) - n // 2, int(inside[-1]) - n // 2
        width = hi - lo + 1
        extended = np.concatenate((abs2[n - hi:], abs2, abs2[: width - 1 - hi]))
        sums = np.concatenate(([0.0], np.cumsum(extended)))
        windowed = sums[width:] - sums[:n]
    else:
        ball = np.fft.ifftshift((r2 <= w * w).astype(np.float64))
        windowed = np.fft.ifftn(np.fft.fftn(abs2) * np.fft.fftn(ball)).real
    idx = np.unravel_index(int(np.argmax(windowed)), g.shape)
    center = tuple(float(g.axis[i]) for i in idx)
    return ConcentrationResult(float(windowed[idx]) * g.cell_volume, center)


def gn_ratio(field_: ComplexField) -> float:
    """Interpolation functional J(u) = ∫|u|^(4/d+2) / (∫|∇u|² · (∫|u|²)^(2/d))."""
    nm = norms(field_)
    if nm.mass_sq == 0.0:
        raise ValueError("ratio undefined for the zero field")
    d = field_.grid.dim
    return nm.lp_power / (nm.grad_sq * nm.mass_sq ** (2.0 / d))


def sharp_gn_constant(dim: int, q_mass_sq: float) -> float:
    """Sharp constant (d+2)/d · ‖Q‖₂^(-4/d), attained exactly by the ground state."""
    return (dim + 2.0) / dim * q_mass_sq ** (-2.0 / dim)


def random_smooth_field(grid, rng: np.random.Generator, cutoff_fraction: float = 0.25) -> ComplexField:
    """Gaussian random field whose spectrum decays beyond cutoff_fraction of Nyquist."""
    k_max = float(np.max(np.abs(grid.wavenumbers)))
    kc = cutoff_fraction * k_max
    envelope = np.exp(-grid.k2 / (2.0 * kc * kc))
    coeffs = envelope * (
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
    return ComplexField(grid, np.fft.ifftn(coeffs))
