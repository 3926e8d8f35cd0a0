"""Property checks: evolve's merged half phases against unmerged Strang steps,
the in-place stepping never writes into the caller's arrays, and the sink sees
each recorded step once, as the rows record it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import field_of, state_of, strang_step

from nlsdamp import (
    ComplexField,
    DampingProfile,
    Grid,
    SimConfig,
    StopReason,
    TrajectoryRecorder,
    evolve,
)
from nlsdamp.diagnostics import random_smooth_field

# Relative max-norm gap between k merged steps and k unmerged ones.
TOL = {"merged_phases": 1e-12}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2]),
    amplitude=st.floats(0.1, 2.0),
    damping=st.floats(-1.0, 1.0),
    steps=st.integers(1, 6),
)
def test_evolve_matches_unmerged_strang_steps(seed, dim, amplitude, damping, steps):
    g = Grid(dim, 64 if dim == 1 else 16, 8.0)
    f = random_smooth_field(g, np.random.default_rng(seed)).values
    u0 = ComplexField(g, amplitude * f / np.max(np.abs(f)))
    r2 = sum(c * c for c in g.coords)
    a = DampingProfile(g, damping * np.exp(-r2 / 8.0),
                       lambda j: -(g.coords[j] / 4.0) * damping * np.exp(-r2 / 8.0))
    dt = 1e-3
    cfg = SimConfig(dt0=dt, t_end=steps * dt, adapt_const=1e30, dt_min=1e-9,
                    tail_threshold=0.999, record_every=10**6)
    snapshots = []
    report = evolve(u0, a, cfg,
                    sink=lambda s: snapshots.append((s.step_count, field_of(s, g))))
    assert report.stop_reason is StopReason.HORIZON_REACHED
    assert snapshots[-1][0] == steps

    state = state_of(u0)
    for _ in range(steps):
        state = strang_step(state, a, dt)
    ref = field_of(state, g).values
    err = np.max(np.abs(snapshots[-1][1].values - ref))
    assert err <= TOL["merged_phases"] * np.max(np.abs(ref))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3]),
    damping=st.floats(-1.0, 1.0),
    steps=st.integers(1, 5),
)
def test_stepping_leaves_caller_data_untouched(seed, dim, damping, steps):
    g = Grid(dim, {1: 64, 2: 16, 3: 8}[dim], 8.0)
    u0 = ComplexField(g, random_smooth_field(g, np.random.default_rng(seed)).values)
    before = u0.values.copy()
    a = DampingProfile.constant(g, damping)
    dt = 1e-3
    cfg = SimConfig(dt0=dt, t_end=steps * dt, adapt_const=1e30, dt_min=1e-9,
                    tail_threshold=0.999, record_every=2)
    lent = []
    evolve(u0, a, cfg, sink=lambda s: lent.append(s.spectrum))
    assert np.array_equal(u0.values, before)
    assert len(lent) >= 2
    for spectrum in lent:
        assert not np.shares_memory(spectrum, u0.values)

    state = state_of(u0)
    spectrum = state.spectrum.copy()
    nxt = strang_step(state, a, dt)
    assert np.array_equal(state.spectrum, spectrum)
    assert not np.shares_memory(nxt.spectrum, state.spectrum)


@settings(max_examples=60, deadline=None)
@given(
    record_every=st.integers(1, 8),
    steps=st.integers(1, 40),
    poison=st.integers(0, 40),
)
def test_sink_sees_each_recorded_step_once(record_every, steps, poison):
    # Steps 0, every multiple of record_every, and the stop, each once, in
    # order, each state carrying the dt_used and tail_fraction its row records.
    # A NaN written into the lent spectrum at one call makes the next state
    # non-finite: that stop is not emitted, so nothing follows the call.
    g = Grid(1, 32, 8.0)
    u0 = ComplexField(g, random_smooth_field(g, np.random.default_rng(5)).values)
    a = DampingProfile.zero(g)
    dt = 1e-3
    cfg = SimConfig(dt0=dt, t_end=steps * dt, adapt_const=1e30, dt_min=1e-9,
                    tail_threshold=0.999, record_every=record_every)

    def run(poison_call=None):
        seen, rec = [], TrajectoryRecorder(a, 1.0)

        def sink(state):
            rec(state)
            if len(seen) == poison_call:
                state.spectrum[0] = np.nan
            seen.append((state.step_count, state.time, state.dt_used, state.tail_fraction))

        return evolve(u0, a, cfg, sink=sink), seen, rec.rows

    report, seen, rows = run()
    assert report.stop_reason is StopReason.HORIZON_REACHED
    assert seen[-1][:2] == (steps, report.t_detect)
    want = [s for s in range(steps + 1) if s % record_every == 0 or s == steps]
    assert [s for s, *_ in seen] == want
    recorded = zip(*(rows.column(name).tolist() for name in ("t", "dt_used", "tail_fraction")))
    assert [s[1:] for s in seen] == list(recorded)

    call = poison % len(want)
    if call < len(want) - 1:
        report, poisoned, _ = run(call)
        assert report.stop_reason is StopReason.NONFINITE
        assert poisoned == seen[: call + 1]
