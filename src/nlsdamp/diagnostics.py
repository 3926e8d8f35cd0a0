"""Per-snapshot diagnostics rows, balance residuals, mass envelopes, windowed
concentration, and the sharp interpolation-inequality functional."""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .evolution import EvolutionState
from .spectral import ComplexField, DampingProfile, Grid, _block_norms, _sum, _sum_sq, abs2, grid_dot, norms

__all__ = [
    "block_size",
    "compute_row",
    "TrajectoryRecorder",
    "RowTable",
    "csv_header",
    "mass_balance_residual",
    "energy_balance_residual",
    "momentum_balance_residual",
    "mass_envelope_check",
    "BalanceReport",
    "balance_report",
    "concentration_mass",
    "gn_ratio",
    "sharp_gn_constant",
    "random_smooth_field",
]

# The rows.csv columns of one snapshot, in order: (name, one value per axis).
# A per-axis column `p` gives the columns `p_1` … `p_d`.
_ROW_COLUMNS = (
    ("t", False),
    ("mass_sq", False),
    ("energy", False),
    ("p", True),
    ("grad_sq", False),
    ("lp_power", False),
    ("h_value", False),
    ("int_a_u2", False),
    ("int_a_grad2", False),
    ("int_a_lp", False),
    ("re_grad_a_term", False),
    ("int_a_im_grad", True),
    ("dt_used", False),
    ("tail_fraction", False),
    ("conc_mass", False),
    ("window_w", False),
)


# A block of rows holds at most this many snapshots and this many bytes of
# spectra: 16 on a 1-D 512 grid, 1 on 128² and 64³, where each row already
# works on arrays large enough to amortize numpy's per-call cost.
BLOCK_SNAPSHOTS = 16
BLOCK_BYTES = 256 * 1024


def block_size(grid: Grid) -> int:
    """Snapshots per block of rows on `grid`, from 1 to BLOCK_SNAPSHOTS."""
    return max(1, min(BLOCK_SNAPSHOTS, BLOCK_BYTES // (16 * grid.size)))


def _ifft_block(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse FFT over the grid axes of each snapshot of the block x, into out.

    Bit for bit one transform per snapshot.
    """
    return np.fft.ifftn(x, axes=tuple(range(1, x.ndim)), out=out)


def _check_reference(ref_grad_sq: float) -> None:
    if not ref_grad_sq > 0:
        raise ValueError("reference gradient integral must be positive")


def compute_row(
    meta: np.ndarray, values: np.ndarray, spectra: np.ndarray, a: DampingProfile, ref_grad_sq: float
) -> np.ndarray:
    """Evaluate every diagnostic at each snapshot of a block of k on `a.grid`.

    `meta` is (k, 3), holding t, dt_used and tail_fraction of each snapshot;
    `values` and `spectra` are (k, *grid.shape), each field and its FFT û.
    Returns the rows as a (k, width) float64 array in rows.csv column order
    (a transposed view of the column table). Every sum runs over the grid
    axes of the whole block at once. `ref_grad_sq` is the reference gradient
    integral ‖∇Q‖² that sets the window radius (see `_windows`).

    Energy is E = (1/2)∫|∇u|² - d/(4+2d) ∫|u|^(4/d+2); momentum components
    are P_j = Im ∫ (∂_j u) ū; the dissipation functional is
    H = -∫a|∇u|² + ∫a|u|^(4/d+2) - Re ∫ (∇u·∇a) ū, so that dE/dt = H.
    The damping-weighted integrals, ∫a Im((∂_j u) ū) among them, are stored
    so that the mass, energy and momentum balance residuals are formed from
    rows alone, without re-simulation.
    """
    _check_reference(ref_grad_sq)
    g = a.grid
    d = g.dim
    vol = g.cell_volume
    u2, absp, mass_sq, grad_sq, lp_power = _block_norms(g, values, spectra)
    int_a_u2 = grid_dot(u2, a.values) * vol
    int_a_lp = grid_dot(absp, a.values) * vol
    del absp
    energy = 0.5 * grad_sq - d / (4.0 + 2.0 * d) * lp_power
    # The windows read |u|², which is released before the per-axis arrays.
    conc, window_radius = _windows(g, u2, mass_sq, grad_sq, ref_grad_sq)
    del u2
    momentum, int_a_im_grad = [], []
    a_grad2 = re_grad_a = 0.0
    # One axis at a time, in one array for all axes: ∂_j u, transformed in
    # place, then overwritten by the flux conj(∂_j u)·u, whose real part is
    # that of (∂_j u)·ū and whose imaginary part is exactly its negative.
    # ∂_j a is read one component at a time, as the profile may form it.
    flux = np.empty_like(spectra)
    for j, k in enumerate(g.k_mesh):
        np.multiply(k, spectra, out=flux)
        flux *= 1j
        _ifft_block(flux, flux)  # ∂_j u
        a_grad2 += grid_dot(abs2(flux), a.values)
        np.conjugate(flux, out=flux)
        flux *= values
        # 0.0 - x, not -x: a zero integral is +0.0, the sign (∂_j u)ū gives.
        momentum.append(0.0 - _sum(flux.imag) * vol)
        int_a_im_grad.append(0.0 - grid_dot(flux.imag, a.values) * vol)
        re_grad_a += grid_dot(flux.real, a.gradient(j))
    del flux
    int_a_grad2 = a_grad2 * vol
    re_grad_a_term = re_grad_a * vol
    columns = {
        "t": meta[:, 0],
        "mass_sq": mass_sq,
        "energy": energy,
        "p": momentum,
        "grad_sq": grad_sq,
        "lp_power": lp_power,
        "h_value": -int_a_grad2 + int_a_lp - re_grad_a_term,
        "int_a_u2": int_a_u2,
        "int_a_grad2": int_a_grad2,
        "int_a_lp": int_a_lp,
        "re_grad_a_term": re_grad_a_term,
        "int_a_im_grad": int_a_im_grad,
        "dt_used": meta[:, 1],
        "tail_fraction": meta[:, 2],
        "conc_mass": conc,
        "window_w": window_radius,
    }
    return np.array(
        [col for name, per_axis in _ROW_COLUMNS
         for col in (columns[name] if per_axis else [columns[name]])]
    ).T


def _windows(
    g: Grid, abs2: np.ndarray, mass_sq: np.ndarray, grad_sq: np.ndarray, ref_grad_sq: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed mass and window radius of each snapshot of the block.

    The radius is w = (‖∇Q‖/‖∇u‖)^(1/2), for ‖∇Q‖² = `ref_grad_sq`: the
    window shrinks as the solution focuses while w·‖∇u‖ still diverges,
    which is the regime the concentration claim addresses. It is kept inside
    the fundamental cell (w is infinite when the field has no gradient
    content). A zero-mass snapshot gets radius 0; one whose radius is not
    positive gets no window, mass 0, and its radius raised to 0 (a NaN
    radius stays NaN). The masses are one concentration_mass call on the
    block, or on its rows that have a window.
    """
    radius = np.zeros_like(mass_sq)
    live = mass_sq != 0.0
    radius[live] = [
        math.inf if x <= 0.0 else (ref_grad_sq / x) ** 0.25 for x in grad_sq[live].tolist()
    ]
    np.minimum(radius, 0.99 * g.half_width, out=radius)
    conc = np.zeros_like(mass_sq)
    inside = radius > 0.0
    if inside.all():
        conc = concentration_mass(g, abs2, radius)
    elif inside.any():
        conc[inside] = concentration_mass(g, abs2[inside], radius[inside])
    np.maximum(radius, 0.0, out=radius)
    return conc, radius


class TrajectoryRecorder:
    """Evolution sink that turns snapshots into diagnostics rows.

    Rows are computed a block of `block_size(grid)` snapshots at a time. A
    copy of each spectrum `evolve` lends waits in a buffer made at
    construction until the block is full; the block's fields are then formed
    by one batched inverse FFT into a second buffer. Reading `rows` computes
    the partial block left. A block of one is computed at once from the lent
    spectrum, without a copy, and its field from one inverse FFT. Only the
    rows are kept, in `rows`, a RowTable of float64 columns: memory grows by
    one row of 8-byte values per snapshot. `ref_grad_sq` is ‖∇Q‖², which
    sets the window radius of every row.
    """

    def __init__(self, a: DampingProfile, ref_grad_sq: float):
        _check_reference(ref_grad_sq)
        self.a = a
        self.ref_grad_sq = ref_grad_sq
        g = a.grid
        self._rows = RowTable(g.dim)
        size = block_size(g)
        # t, dt_used and tail_fraction, the fields and their spectra of the
        # snapshots waiting; none for blocks of one.
        if size > 1:
            shape = (size, *g.shape)
            self._meta = np.empty((size, 3))
            self._values, self._spectra = np.empty(shape, complex), np.empty(shape, complex)
        self._size = size
        self._fill = 0

    def __call__(self, state: EvolutionState) -> None:
        meta = (state.time, state.dt_used, state.tail_fraction)
        if self._size == 1:
            u_hat = state.spectrum[None]
            # One new array: without out=, ifftn allocates one per axis.
            values = _ifft_block(u_hat, np.empty_like(u_hat))
            rows = compute_row(np.array([meta]), values, u_hat, self.a, self.ref_grad_sq)
            self._rows.append_block(rows)
            return
        i = self._fill
        self._meta[i] = meta
        self._spectra[i] = state.spectrum
        self._fill = i + 1
        if self._fill == self._size:
            self._flush()

    def _flush(self) -> None:
        k = self._fill
        if k == 0:
            return
        values, spectra = self._values[:k], self._spectra[:k]
        _ifft_block(spectra, values)
        rows = compute_row(self._meta[:k], values, spectra, self.a, self.ref_grad_sq)
        self._rows.append_block(rows)
        self._fill = 0

    @property
    def rows(self) -> "RowTable":
        """The rows of every snapshot so far; a partial block is computed first."""
        self._flush()
        return self._rows


def csv_header(dim: int) -> str:
    cols: List[str] = []
    for col, per_axis in _ROW_COLUMNS:
        cols += [f"{col}_{j + 1}" for j in range(dim)] if per_axis else [col]
    return ",".join(cols)


class RowTable:
    """Recorded diagnostics rows as one float64 table, 8 bytes per value.

    The values sit row by row, as native doubles, in one bytearray that
    grows in place, a block of rows at a time; there is one column per
    rows.csv column (`names`, from `csv_header(dim)`). `column(name)` is a
    read-only numpy view of one column. While such a view is alive the
    table cannot grow: `append_block` raises BufferError.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.names = tuple(csv_header(dim).split(","))
        self.width = len(self.names)
        self._row = struct.Struct(f"{self.width}d")
        # One %-operation formats a line; "%.17g" is reporting.format_float.
        self._line = ",".join(["%.17g"] * self.width)
        self._data = bytearray()

    def append_block(self, values: np.ndarray) -> None:
        """Append k rows given as a (k, width) float64 array, as compute_row returns them."""
        if values.ndim != 2 or values.shape[1] != self.width:
            raise ValueError(f"need a (k, {self.width}) block of rows, got shape {values.shape}")
        self._data += np.ascontiguousarray(values, dtype=np.float64).data

    def __len__(self) -> int:
        return len(self._data) // self._row.size

    def column(self, name: str) -> np.ndarray:
        """The values of rows.csv column `name`, one per row, as a read-only view."""
        m = np.frombuffer(self._data, dtype=np.float64).reshape(-1, self.width)
        m.flags.writeable = False
        return m[:, self.names.index(name)]

    def csv_lines(self) -> Iterator[str]:
        """One rows.csv line per row: each value as reporting.format_float writes it."""
        row = self._row
        return (self._line % row.unpack_from(self._data, i * row.size) for i in range(len(self)))


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


def mass_balance_residual(table: RowTable) -> float:
    """Worst per-interval defect of d/dt ∫|u|² = -2 ∫a|u|².

    Trapezoid rule in time over consecutive rows, normalized by the initial
    mass. NaN when a row value it uses is not finite.
    """
    if len(table) < 2:
        raise ValueError("need at least two diagnostics rows")
    m0 = float(table.column("mass_sq")[0])
    if m0 == 0.0:
        return 0.0
    return _worst_defect(_trapezoid_defects(table, "mass_sq", "int_a_u2", 2.0), m0)


def energy_balance_residual(table: RowTable) -> float:
    """Worst per-interval defect of dE/dt = H, normalized by max(1, |E(0)|).

    The sign convention (energy drifts by +∫H dt) is pinned by the
    finite-difference oracle in the test suite. NaN when a row value it
    uses is not finite.
    """
    if len(table) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = max(1.0, abs(float(table.column("energy")[0])))
    return _worst_defect(_trapezoid_defects(table, "energy", "h_value", -1.0), scale)


def momentum_balance_residual(table: RowTable) -> float:
    """Worst per-interval, per-component defect of dP/dt = -2 ∫a Im(∇u ū).

    Trapezoid rule in time over consecutive rows, normalized by
    mass_sq(0)·‖∇u₀‖ (or 1 when that degenerates to zero). NaN when a row
    value it uses is not finite.
    """
    if len(table) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = float(table.column("mass_sq")[0]) * math.sqrt(float(table.column("grad_sq")[0]))
    if scale == 0.0:
        scale = 1.0
    defects = [
        _trapezoid_defects(table, f"p_{j}", f"int_a_im_grad_{j}", 2.0)
        for j in range(1, table.dim + 1)
    ]
    return _worst_defect(np.concatenate(defects), scale)


def mass_envelope_check(table: RowTable, a: DampingProfile) -> float:
    """The worst margin of ‖u₀‖e^(-‖a‖∞ t) <= ‖u(t)‖ <= ‖u₀‖e^(+‖a‖∞ t) over
    every row: the envelope holds when it is >= 0.

    Margins carry an absolute slack of 1e-8·‖u₀‖ against round-off. An upper
    bound that overflows is +∞, and holds. A non-finite mass or a NaN margin
    gives NaN, which fails. Reads the t and mass_sq columns as Python
    floats: math.exp, not np.exp, whose last bit can differ.
    """
    if not len(table):
        raise ValueError("need at least one diagnostics row")
    masses = table.column("mass_sq").tolist()
    u0 = math.sqrt(masses[0])
    eps = 1e-8 * u0
    worst = math.inf
    for t, m in zip(table.column("t").tolist(), masses):
        val = math.sqrt(m)
        try:
            upper = u0 * math.exp(a.sup_norm * t) + eps
        except OverflowError:
            upper = math.inf
        lower = u0 * math.exp(-a.sup_norm * t) - eps
        margins = (upper - val, val - lower)
        if not math.isfinite(val) or any(map(math.isnan, margins)):
            return math.nan
        worst = min(worst, *margins)
    return worst


@dataclass(frozen=True)
class BalanceReport:
    """Balance residuals and envelope outcome for one recorded trajectory."""

    mass_residual: float
    energy_residual: float
    momentum_residual: float
    envelope_ok: bool
    max_envelope_violation: float


def balance_report(
    table: RowTable,
    a: DampingProfile,
    fields=None,  # unused: kept only so the benchmark's stored-field probe still attaches
) -> BalanceReport:
    """The three balance residuals and the mass envelope, from the rows alone."""
    worst = mass_envelope_check(table, a)
    return BalanceReport(
        mass_residual=mass_balance_residual(table),
        energy_residual=energy_balance_residual(table),
        momentum_residual=momentum_balance_residual(table),
        envelope_ok=worst >= 0.0,
        # NaN when the envelope check met a non-finite margin.
        max_envelope_violation=0.0 if worst >= 0.0 else -worst,
    )


def _grid_r2(dim: int, n: int, half_width: float) -> np.ndarray:
    """Squared distance of every grid point from the center index."""
    return _sum_sq(dim, Grid(1, n, half_width).axis)


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


def concentration_mass(g: Grid, abs2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Largest windowed mass sup_y ∫_{|x-y|<=w} |u|² over grid-centered balls.

    `abs2` is the (k, *g.shape) block of |u|² of k snapshots on `g`, and `w`
    holds one radius per snapshot; returns the k masses.
    Evaluated for every center at once: the ball is the set of grid offsets
    whose coordinate r² is at most w² (periodic distance), and |u|² is
    convolved with its indicator by real FFT, batched over the block. The
    spectrum of the last ball is kept, keyed by the grid's layout and the
    largest grid r² at most w², so windows whose balls hold the same grid
    points reuse it.
    """
    bad = ~((0.0 < w) & (w < g.half_width))
    if bad.any():
        raise ValueError(f"window radius must lie in (0, {g.half_width}), got {w[bad][0]}")
    # r² = 0 at the center, so the ball is never empty.
    layout = (g.dim, g.points_per_axis, g.half_width)
    radii = _sorted_r2(*layout)
    r2_max = radii[np.searchsorted(radii, w * w, side="right") - 1]
    axes = tuple(range(1, g.dim + 1))
    spectrum = np.fft.rfftn(abs2, axes=axes)
    for s, r2 in zip(spectrum, r2_max.tolist()):
        s *= _ball_spectrum(*layout, r2)
    windowed = np.fft.irfftn(spectrum, s=g.shape, axes=axes).reshape(len(abs2), -1)
    return windowed.max(axis=1) * g.cell_volume


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
