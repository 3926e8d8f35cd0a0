"""Per-snapshot diagnostics rows, balance residuals, mass envelopes, windowed
concentration, and the sharp interpolation-inequality functional."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .evolution import EvolutionState
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
    """One recorded snapshot of the conserved-quantity ledger."""

    time: float
    mass_sq: float
    energy: float
    momentum: Tuple[float, ...]
    grad_sq: float
    lp_power: float
    h_value: float
    int_a_u2: float
    int_a_grad2: float
    int_a_lp: float
    re_grad_a_term: float
    dt_used: float
    tail_fraction: float
    concentration_mass: float
    window_radius: float


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
    The four damping-weighted integrals are stored so balance residuals can
    be formed from rows alone, without re-simulation.
    """
    g = state.field.grid
    d = g.dim
    vals = state.field.values
    abs2 = vals.real**2 + vals.imag**2
    mass_sq = g.integrate(abs2)
    u_hat = np.fft.fftn(vals)
    spec2 = u_hat.real**2 + u_hat.imag**2
    grad_sq = g.integrate(g.k2 * spec2) / g.size
    p = 4.0 / d + 2.0
    absp = abs2 ** (p / 2.0)
    lp_power = g.integrate(absp)
    energy = 0.5 * grad_sq - d / (4.0 + 2.0 * d) * lp_power
    grads = [np.fft.ifftn(1j * k * u_hat) for k in g.k_mesh]
    conj_v = vals.conj()
    momentum = tuple(g.integrate((gj * conj_v).imag) for gj in grads)
    grad_abs2 = sum(gj.real**2 + gj.imag**2 for gj in grads)
    int_a_u2 = g.integrate(a.values * abs2)
    int_a_grad2 = g.integrate(a.values * grad_abs2)
    int_a_lp = g.integrate(a.values * absp)
    re_grad_a_term = g.integrate(
        sum(((gj * conj_v).real * ga).sum() for gj, ga in zip(grads, a.gradient_values))
    )
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
        momentum=momentum,
        grad_sq=grad_sq,
        lp_power=lp_power,
        h_value=h_value,
        int_a_u2=int_a_u2,
        int_a_grad2=int_a_grad2,
        int_a_lp=int_a_lp,
        re_grad_a_term=re_grad_a_term,
        dt_used=dt_used,
        tail_fraction=tail_fraction,
        concentration_mass=conc,
        window_radius=window_radius,
    )


class TrajectoryRecorder:
    """Evolution sink that turns snapshots into diagnostics rows.

    With store_fields=True the snapshot fields themselves are kept, which
    the momentum balance needs (its damping integrand is not part of the
    row schema).
    """

    def __init__(self, a: DampingProfile, w_rule: WindowRule, store_fields: bool = False):
        self.a = a
        self.w_rule = w_rule
        self.store_fields = store_fields
        self.rows: List[DiagnosticsRow] = []
        self.fields: List[ComplexField] = []

    def __call__(self, state: EvolutionState, dt_used: float, tail_fraction: float) -> None:
        self.rows.append(compute_row(state, self.a, self.w_rule, dt_used, tail_fraction))
        if self.store_fields:
            self.fields.append(state.field)


def csv_header(dim: int) -> str:
    cols = ["t", "mass_sq", "energy"]
    cols += [f"p_{j + 1}" for j in range(dim)]
    cols += [
        "grad_sq",
        "lp_power",
        "h_value",
        "int_a_u2",
        "int_a_grad2",
        "int_a_lp",
        "re_grad_a_term",
        "dt_used",
        "tail_fraction",
        "conc_mass",
        "window_w",
    ]
    return ",".join(cols)


def csv_line(row: DiagnosticsRow, dim: int) -> str:
    vals = [row.time, row.mass_sq, row.energy]
    vals += [row.momentum[j] for j in range(dim)]
    vals += [
        row.grad_sq,
        row.lp_power,
        row.h_value,
        row.int_a_u2,
        row.int_a_grad2,
        row.int_a_lp,
        row.re_grad_a_term,
        row.dt_used,
        row.tail_fraction,
        row.concentration_mass,
        row.window_radius,
    ]
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


def _momentum_damping_integrand(field_: ComplexField, a: DampingProfile) -> Tuple[float, ...]:
    g = field_.grid
    vol = g.cell_volume
    u_hat = np.fft.fftn(field_.values)
    conj_v = field_.values.conj()
    out = []
    for k in g.k_mesh:
        gj = np.fft.ifftn(1j * k * u_hat)
        out.append(float((a.values * (gj * conj_v).imag).sum() * vol))
    return tuple(out)


def momentum_balance_residual(
    rows: Sequence[DiagnosticsRow],
    a: DampingProfile,
    fields: Sequence[ComplexField],
) -> float:
    """Worst per-interval, per-component defect of dP/dt = -2 ∫a Im(∇u ū).

    Needs the snapshot fields at row times; normalized by
    mass_sq(0)·‖∇u₀‖ (or 1 when that degenerates to zero).
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    if len(rows) != len(fields):
        raise ValueError("rows and snapshot fields must align")
    scale = rows[0].mass_sq * math.sqrt(rows[0].grad_sq)
    if scale == 0.0:
        scale = 1.0
    integrands = [_momentum_damping_integrand(f, a) for f in fields]
    dim = len(rows[0].momentum)
    worst = 0.0
    for i in range(len(rows) - 1):
        dt = rows[i + 1].time - rows[i].time
        for j in range(dim):
            integral = 0.5 * dt * (integrands[i][j] + integrands[i + 1][j])
            defect = rows[i + 1].momentum[j] - rows[i].momentum[j] + 2.0 * integral
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
    fields: Optional[Sequence[ComplexField]] = None,
) -> BalanceReport:
    env = mass_envelope_check(rows, a)
    momentum = (
        momentum_balance_residual(rows, a, fields) if fields is not None else math.nan
    )
    return BalanceReport(
        mass_residual=mass_balance_residual(rows),
        energy_residual=energy_balance_residual(rows),
        momentum_residual=momentum,
        envelope_ok=env.ok,
        max_envelope_violation=max(0.0, -env.worst),
    )


@dataclass(frozen=True)
class ConcentrationResult:
    value: float
    center: Tuple[float, ...]


def concentration_mass(field_: ComplexField, w: float) -> ConcentrationResult:
    """Largest windowed mass sup_y ∫_{|x-y|<=w} |u|² over grid-centered balls.

    Evaluated for every center at once by circular convolution of |u|² with
    the ball indicator (periodic distance). Ties resolve to the smallest
    lexicographic grid index.
    """
    g = field_.grid
    if not (0.0 < w < g.half_width):
        raise ValueError(f"window radius must lie in (0, {g.half_width}), got {w}")
    r2 = sum(c * c for c in g.coords)
    ball = np.fft.ifftshift((r2 <= w * w).astype(np.float64))
    vals = field_.values
    abs2 = vals.real**2 + vals.imag**2
    windowed = np.fft.ifftn(np.fft.fftn(abs2) * np.fft.fftn(ball)).real * g.cell_volume
    idx = np.unravel_index(int(np.argmax(windowed)), g.shape)
    center = tuple(float(g.axis[i]) for i in idx)
    return ConcentrationResult(float(windowed[idx]), center)


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
