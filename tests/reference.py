"""Reference oracles for the tests: the closed-form 1-D ground state, one
unmerged Strang step built from the integrator's own kernel, and one
snapshot's diagnostics row as a DiagnosticsRow."""

import numpy as np

from nlsdamp import ComplexField, DampingProfile, EvolutionState, RowTable, compute_row
from nlsdamp.diagnostics import DiagnosticsRow
from nlsdamp.evolution import _StrangKernel


def closed_form_q_1d(x) -> np.ndarray:
    """Explicit one-dimensional profile (3 sech²(2x))^(1/4)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    # sech(2x) written via decaying exponentials so large |x| cannot overflow
    sech = 2.0 * np.exp(-2.0 * x) / (1.0 + np.exp(-4.0 * x))
    return (3.0 * sech * sech) ** 0.25


def strang_step(state: EvolutionState, a: DampingProfile, dt: float) -> EvolutionState:
    """Second-order composition: half linear, full nonlinear/damping, half linear.

    The same kernel as `evolve`, with the closing half phase applied at once
    instead of merged into the next step.
    """
    kernel = _StrangKernel(state.field.grid, a)
    u_hat, _ = kernel.advance(kernel.fft(state.field.values), 0.5 * dt, dt)
    kernel.phase(u_hat, 0.5 * dt)
    out = ComplexField(state.field.grid, kernel.ifft(u_hat, out=u_hat))
    return EvolutionState(state.time + dt, out, state.step_count + 1)


def diagnostics_row(state: EvolutionState, a: DampingProfile, w_rule, dt_used=0.0,
                    tail_fraction=0.0) -> DiagnosticsRow:
    """One snapshot's DiagnosticsRow: the block of one that compute_row returns, read back."""
    table = RowTable(state.field.grid.dim)
    table.append_block(compute_row(state, a, w_rule, dt_used, tail_fraction))
    return table[0]
