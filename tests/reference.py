"""Reference oracles for the tests: the closed-form 1-D ground state, one
unmerged Strang step built from the integrator's own kernel, one snapshot's
block and diagnostics row, one field's windowed mass, a row table from named
columns, one row's rows.csv line formatted value by value, and the tail and
edge masks built from the full-grid meshes."""

import numpy as np

from nlsdamp import (
    ComplexField,
    DampingProfile,
    EvolutionState,
    Grid,
    RowTable,
    compute_row,
    concentration_mass,
)
from nlsdamp.evolution import _StrangKernel
from nlsdamp.reporting import format_float


def closed_form_q_1d(x) -> np.ndarray:
    """Explicit one-dimensional profile (3 sech²(2x))^(1/4)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    # sech(2x) written via decaying exponentials so large |x| cannot overflow
    sech = 2.0 * np.exp(-2.0 * x) / (1.0 + np.exp(-4.0 * x))
    return (3.0 * sech * sech) ** 0.25


def state_of(field: ComplexField, time: float = 0.0) -> EvolutionState:
    """The state of `field` at `time`: its spectrum, in a new array."""
    return EvolutionState(time, np.fft.fftn(field.values))


def field_of(state: EvolutionState, grid) -> ComplexField:
    """The field a state's spectrum stands for on `grid`, in a new array."""
    return ComplexField(grid, np.fft.ifftn(state.spectrum))


def strang_step(state: EvolutionState, a: DampingProfile, dt: float) -> EvolutionState:
    """Second-order composition: half linear, full nonlinear/damping, half linear.

    The same kernel as `evolve`, with the closing half phase applied at once
    instead of merged into the next step. The state's spectrum is not written.
    """
    kernel = _StrangKernel(a.grid, a)
    u_hat, _ = kernel.advance(state.spectrum.copy(), 0.5 * dt, dt)
    kernel.phase(u_hat, 0.5 * dt)
    return EvolutionState(state.time + dt, u_hat, state.step_count + 1)


def snapshot_block(field: ComplexField, t=0.0, dt_used=0.0, tail_fraction=0.0):
    """compute_row's meta, values and spectra of the block of one holding
    `field` at time t: a view of its values and their FFT."""
    values = field.values
    meta = np.array([[t, dt_used, tail_fraction]])
    return meta, values[None], np.fft.fftn(values)[None]


def diagnostics_row(field: ComplexField, a: DampingProfile, ref_grad_sq, dt_used=0.0,
                    tail_fraction=0.0) -> dict:
    """The row of `field` at t = 0, keyed by rows.csv column: its block of one from compute_row."""
    values = compute_row(*snapshot_block(field, 0.0, dt_used, tail_fraction), a, ref_grad_sq)[0]
    return dict(zip(RowTable(field.grid.dim).names, values.tolist()))


def windowed_mass(field: ComplexField, w: float) -> float:
    """The largest mass of `field` in a ball of radius w: its block of one."""
    abs2 = field.values.real**2 + field.values.imag**2
    return concentration_mass(field.grid, abs2[None], np.array([w]))[0]


def row_table(dim: int = 1, **columns) -> RowTable:
    """A table of the rows.csv columns named, all of one length; any other column is 0."""
    table = RowTable(dim)
    lengths = {len(values) for values in columns.values()} or {0}
    block = np.zeros((lengths.pop(), table.width))
    assert not lengths, "named columns differ in length"
    for name, values in columns.items():
        block[:, table.names.index(name)] = values
    table.append_block(block)
    return table


def table_values(table: RowTable) -> np.ndarray:
    """A (len, width) copy of the table's values, read column by column."""
    return np.array([table.column(name) for name in table.names]).T


def csv_line(values) -> str:
    """The rows.csv line of one row's values, each through reporting.format_float."""
    return ",".join(format_float(v) for v in values)


def tail_mask(grid: Grid) -> np.ndarray:
    """max_j |k_j| beyond 2/3 of Nyquist, from the full-grid wavenumber meshes."""
    k_abs = [np.abs(k) for k in grid.k_mesh]
    k_max = float(np.max(np.abs(grid.wavenumbers)))
    cheb = k_abs[0]
    for k in k_abs[1:]:
        cheb = np.maximum(cheb, k)
    return cheb > (2.0 / 3.0) * k_max


def boundary_mask(grid: Grid) -> np.ndarray:
    """max_j |x_j| >= 0.9 L, from the full-grid coordinate meshes."""
    x_abs = [np.abs(c) for c in grid.coords]
    cheb = x_abs[0]
    for c in x_abs[1:]:
        cheb = np.maximum(cheb, c)
    return cheb >= 0.9 * grid.half_width
