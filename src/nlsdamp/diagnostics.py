"""Per-snapshot diagnostics rows, balance residuals, mass envelopes, windowed
concentration, and the sharp interpolation-inequality functional."""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Callable, Iterator, List, Sequence, Tuple, Union, get_origin, get_type_hints

import numpy as np

from .evolution import EvolutionState, _spectral_norms
from .reporting import format_float
from .spectral import ComplexField, DampingProfile, Grid, norms

__all__ = [
    "WindowRule",
    "gradient_window_rule",
    "DiagnosticsRow",
    "compute_row",
    "TrajectoryRecorder",
    "RowTable",
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
    """Σ x·y over the grid, as one dot product.

    A y that holds one value with stride 0 on every axis, as a vanishing
    damping gradient does, gives y·Σx instead, so no full copy of it is made.
    """
    if not any(y.strides):
        return float(y.flat[0]) * float(x.sum())
    return float(np.dot(x.ravel(), y.ravel()))


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|² = Re(v)² + Im(v)², built in one new array."""
    x = v.real**2
    x += v.imag**2
    return x


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
    abs2 = _abs2(vals)
    mass_sq = g.integrate(abs2)
    int_a_u2 = _dot(a.values, abs2) * vol
    u_hat = state.spectrum if state.spectrum is not None else np.fft.fftn(vals)
    _, grad_sq, _ = _spectral_norms(u_hat, g)
    p = 4.0 / d + 2.0
    absp = abs2 ** (p / 2.0)
    del abs2
    lp_power = g.integrate(absp)
    int_a_lp = _dot(a.values, absp) * vol
    del absp
    energy = 0.5 * grad_sq - d / (4.0 + 2.0 * d) * lp_power
    momentum, int_a_im_grad = [], []
    a_grad2 = re_grad_a = 0.0
    # One axis at a time, in one array: ∂_j u, transformed in place, then
    # overwritten by the flux conj(∂_j u)·u, whose real part is that of
    # (∂_j u)·ū and whose imaginary part is exactly its negative.
    for k, ga in zip(g.k_mesh, a.gradient_values):
        flux = k * u_hat
        flux *= 1j
        np.fft.ifftn(flux, out=flux)  # ∂_j u
        a_grad2 += _dot(a.values, _abs2(flux))
        np.conjugate(flux, out=flux)
        flux *= vals
        # 0.0 - x, not -x: a zero integral is +0.0, the sign (∂_j u)ū gives.
        momentum.append(0.0 - g.integrate(flux.imag))
        int_a_im_grad.append(0.0 - _dot(a.values, flux.imag) * vol)
        re_grad_a += _dot(flux.real, ga)
    # Released before the windowed mass, which makes transforms of its own.
    del flux
    int_a_grad2 = a_grad2 * vol
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

    Only the rows are kept, in `rows`, a RowTable: memory grows by one row
    of 8-byte values per snapshot.
    """

    def __init__(self, a: DampingProfile, w_rule: WindowRule):
        self.a = a
        self.w_rule = w_rule
        self.rows = RowTable(a.grid.dim)

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


def _flatten(row: DiagnosticsRow, dim: int) -> List[float]:
    """The row's values in rows.csv column order."""
    vals: List[float] = []
    for name, _, per_axis in _ROW_COLUMNS:
        value = getattr(row, name)
        vals += [value[j] for j in range(dim)] if per_axis else [value]
    return vals


def _csv_text(values) -> str:
    return ",".join(format_float(v) for v in values)


def csv_line(row: DiagnosticsRow, dim: int) -> str:
    return _csv_text(_flatten(row, dim))


class RowTable(Sequence[DiagnosticsRow]):
    """Recorded diagnostics rows as one float64 table, 8 bytes per value.

    The values sit row by row, as native doubles, in one bytearray that
    grows in place; there is one column per rows.csv column (`names`, from
    `csv_header(dim)`). Reading a row builds its DiagnosticsRow; indexing
    (negative too), slicing (a new table), iteration and len work as on a
    list of rows. `column(name)` is a read-only numpy view of one column.
    While such a view is alive the table cannot grow: `append` raises
    BufferError.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.names = tuple(csv_header(dim).split(","))
        self.width = len(self.names)
        self._row = struct.Struct(f"{self.width}d")
        self._data = bytearray()

    @classmethod
    def of(cls, rows: Sequence[DiagnosticsRow]) -> "RowTable":
        """rows itself when it is a table, else a new table of its (≥ 1) rows."""
        if isinstance(rows, cls):
            return rows
        if not rows:
            raise ValueError("need at least one diagnostics row")
        table = cls(len(rows[0].momentum))
        for row in rows:
            table.append(row)
        return table

    def append(self, row: DiagnosticsRow) -> None:
        self._data += self._row.pack(*_flatten(row, self.dim))

    def __len__(self) -> int:
        return len(self._data) // self._row.size

    def __getitem__(self, index: Union[int, slice]) -> Union[DiagnosticsRow, "RowTable"]:
        if isinstance(index, slice):
            part = RowTable(self.dim)
            part._data += self._matrix()[index].tobytes()
            return part
        # A range indexes as a list does: negative indices, IndexError.
        values = iter(self._values(range(len(self))[index]))
        return DiagnosticsRow(**{
            name: tuple(islice(values, self.dim)) if per_axis else next(values)
            for name, _, per_axis in _ROW_COLUMNS
        })

    def _values(self, i: int) -> Tuple[float, ...]:
        return self._row.unpack_from(self._data, i * self._row.size)

    def _matrix(self) -> np.ndarray:
        m = np.frombuffer(self._data, dtype=np.float64).reshape(-1, self.width)
        m.flags.writeable = False
        return m

    def column(self, name: str) -> np.ndarray:
        """The values of rows.csv column `name`, one per row, as a view."""
        return self._matrix()[:, self.names.index(name)]

    def csv_lines(self) -> Iterator[str]:
        """One rows.csv line per row, as `csv_line` writes it."""
        return (_csv_text(self._values(i)) for i in range(len(self)))


def _trapezoid_defects(table: RowTable, value: str, rate: str, factor: float) -> np.ndarray:
    """|Δvalue + factor·∫rate dt| on each interval between consecutive rows.

    The integral is the trapezoid rule in time. The operands are combined in
    the order of the per-row loop this replaced, so each defect is that
    loop's bit for bit (factor -1 subtracts exactly).
    """
    t, v, r = table.column("t"), table.column(value), table.column(rate)
    with np.errstate(over="ignore", invalid="ignore"):
        integral = 0.5 * (t[1:] - t[:-1]) * (r[:-1] + r[1:])
        return np.abs(v[1:] - v[:-1] + factor * integral)


def _worst_defect(defects: np.ndarray, scale: float) -> float:
    """max(0, defects…) / scale, or NaN when a defect or the scale is not finite.

    A non-finite row value makes its defect non-finite; max() alone would
    skip a NaN and report the balance as exact.
    """
    if not np.isfinite(defects).all():
        return math.nan
    worst = float(defects.max(initial=0.0))
    return worst / scale if math.isfinite(scale) else math.nan


def mass_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval defect of d/dt ∫|u|² = -2 ∫a|u|².

    Trapezoid rule in time over consecutive rows, normalized by the initial
    mass. NaN when a row value it uses is not finite. Reads the columns of
    a RowTable; any other sequence of rows is first turned into one.
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    table = RowTable.of(rows)
    m0 = float(table.column("mass_sq")[0])
    if m0 == 0.0:
        return 0.0
    return _worst_defect(_trapezoid_defects(table, "mass_sq", "int_a_u2", 2.0), m0)


def energy_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval defect of dE/dt = H, normalized by max(1, |E(0)|).

    The sign convention (energy drifts by +∫H dt) is pinned by the
    finite-difference oracle in the test suite. NaN when a row value it
    uses is not finite. Reads the columns of a RowTable; any other sequence
    of rows is first turned into one.
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    table = RowTable.of(rows)
    scale = max(1.0, abs(float(table.column("energy")[0])))
    return _worst_defect(_trapezoid_defects(table, "energy", "h_value", -1.0), scale)


def momentum_balance_residual(rows: Sequence[DiagnosticsRow]) -> float:
    """Worst per-interval, per-component defect of dP/dt = -2 ∫a Im(∇u ū).

    Trapezoid rule in time over consecutive rows, normalized by
    mass_sq(0)·‖∇u₀‖ (or 1 when that degenerates to zero). NaN when a row
    value it uses is not finite. Reads the columns of a RowTable; any other
    sequence of rows is first turned into one.
    """
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    table = RowTable.of(rows)
    scale = float(table.column("mass_sq")[0]) * math.sqrt(float(table.column("grad_sq")[0]))
    if scale == 0.0:
        scale = 1.0
    defects = [
        _trapezoid_defects(table, f"p_{j}", f"int_a_im_grad_{j}", 2.0)
        for j in range(1, table.dim + 1)
    ]
    return _worst_defect(np.concatenate(defects), scale)


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of the two-sided mass envelope test; worst is the smallest margin."""

    ok: bool
    worst: float


def mass_envelope_check(rows: Sequence[DiagnosticsRow], a: DampingProfile) -> EnvelopeCheck:
    """Check ‖u₀‖e^(-‖a‖∞ t) <= ‖u(t)‖ <= ‖u₀‖e^(+‖a‖∞ t) on every row.

    Margins carry an absolute slack of 1e-8·‖u₀‖ against round-off. A
    non-finite margin fails the check, with worst = NaN. Reads the t and
    mass_sq columns of a RowTable (any other sequence of rows is first
    turned into one), as Python floats: math.exp, not np.exp, whose last
    bit can differ.
    """
    if not rows:
        raise ValueError("need at least one diagnostics row")
    table = RowTable.of(rows)
    masses = table.column("mass_sq").tolist()
    u0 = math.sqrt(masses[0])
    eps = 1e-8 * u0
    worst = math.inf
    for t, m in zip(table.column("t").tolist(), masses):
        val = math.sqrt(m)
        upper = u0 * math.exp(a.sup_norm * t) + eps
        lower = u0 * math.exp(-a.sup_norm * t) - eps
        margins = (upper - val, val - lower)
        if not all(map(math.isfinite, margins)):
            return EnvelopeCheck(ok=False, worst=math.nan)
        worst = min(worst, *margins)
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
    """The three balance residuals and the mass envelope, from the rows alone.

    A sequence of rows that is not a RowTable is turned into one once, here.
    """
    table = RowTable.of(rows)
    env = mass_envelope_check(table, a)
    return BalanceReport(
        mass_residual=mass_balance_residual(table),
        energy_residual=energy_balance_residual(table),
        momentum_residual=momentum_balance_residual(table),
        envelope_ok=env.ok,
        # NaN when the envelope check met a non-finite margin.
        max_envelope_violation=0.0 if env.worst >= 0.0 else -env.worst,
    )


@dataclass(frozen=True)
class ConcentrationResult:
    value: float
    center: Tuple[float, ...]


def _grid_r2(dim: int, n: int, half_width: float) -> np.ndarray:
    """Squared distance of every grid point from the center index."""
    sq = Grid(1, n, half_width).axis ** 2
    # Summed in axis order, as Σ_j coords[j]² would be.
    return sum(np.ix_(*(sq,) * dim))


def _read_only(arr: np.ndarray) -> np.ndarray:
    # A cached array is handed to every caller, so none may write to it.
    arr.flags.writeable = False
    return arr


# The two caches below are keyed by the grid's layout, not by a Grid, so they
# keep no grid's full-grid arrays alive.
@functools.lru_cache(maxsize=1)
def _sorted_r2(dim: int, n: int, half_width: float) -> np.ndarray:
    """The grid's distinct r² values, ascending."""
    # Not np.unique: without return_inverse it imports numpy.ma (about 0.5 MiB).
    r2 = np.sort(_grid_r2(dim, n, half_width), axis=None)
    return _read_only(r2[np.concatenate(([True], r2[1:] != r2[:-1]))])


@functools.lru_cache(maxsize=1)
def _ball_spectrum(dim: int, n: int, half_width: float, r2_max: float) -> np.ndarray:
    """Real FFT of the indicator of r² <= r2_max, centered on the origin."""
    ball = np.fft.ifftshift((_grid_r2(dim, n, half_width) <= r2_max).astype(np.float64))
    return _read_only(np.fft.rfftn(ball))


def concentration_mass(field_: ComplexField, w: float) -> ConcentrationResult:
    """Largest windowed mass sup_y ∫_{|x-y|<=w} |u|² over grid-centered balls.

    Evaluated for every center at once: the ball is the set of grid offsets
    whose coordinate r² is at most w² (periodic distance). In 1-D that set
    is one run of offsets, summed by a periodic prefix sum; for d ≥ 2 |u|² is
    convolved with the ball indicator by real FFT. The spectrum of the last
    ball is kept, keyed by the grid's layout and the largest grid r² at most
    w², so windows whose balls hold the same grid points reuse it.
    Ties resolve to the smallest lexicographic grid index.
    """
    g = field_.grid
    if not (0.0 < w < g.half_width):
        raise ValueError(f"window radius must lie in (0, {g.half_width}), got {w}")
    abs2 = _abs2(field_.values)
    if g.dim == 1:
        # Offsets lo..hi from the center index n/2; windowed[i] sums |u|² over
        # i - hi .. i - lo, read off the prefix sums of |u|² extended periodically.
        n = g.points_per_axis
        inside = np.flatnonzero(g.coords[0] ** 2 <= w * w)
        lo, hi = int(inside[0]) - n // 2, int(inside[-1]) - n // 2
        width = hi - lo + 1
        extended = np.concatenate((abs2[n - hi:], abs2, abs2[: width - 1 - hi]))
        sums = np.concatenate(([0.0], np.cumsum(extended)))
        windowed = sums[width:] - sums[:n]
    else:
        # r² = 0 at the center, so the ball is never empty.
        layout = (g.dim, g.points_per_axis, g.half_width)
        radii = _sorted_r2(*layout)
        r2_max = float(radii[np.searchsorted(radii, w * w, side="right") - 1])
        spectrum = np.fft.rfftn(abs2) * _ball_spectrum(*layout, r2_max)
        windowed = np.fft.irfftn(spectrum, s=g.shape, axes=range(g.dim))
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
