"""The columnar row table: rows read back bit for bit, the ledgers over its
columns equal per-row loops, a row costs 8 B a value, its CSV lines are the
reference csv_line's, and rows computed in blocks equal one-snapshot rows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from reference import csv_line, table_values

from nlsdamp import (
    ComplexField,
    DampingProfile,
    DampingSpec,
    EvolutionState,
    Grid,
    RowTable,
    SimConfig,
    TrajectoryRecorder,
    build_damping,
    compute_row,
    energy_balance_residual,
    evolve,
    mass_balance_residual,
    mass_envelope_check,
    momentum_balance_residual,
)
from nlsdamp.diagnostics import (
    block_size,
    csv_header,
    random_smooth_field,
)


# --- reference: per-row loops over rows keyed by rows.csv column ---------------

def _loop_worst(defects, scale):
    worst = 0.0
    for defect in defects:
        if not math.isfinite(defect):
            return math.nan
        worst = max(worst, defect)
    return worst / scale if math.isfinite(scale) else math.nan


def loop_mass_residual(rows):
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    m0 = rows[0]["mass_sq"]
    if m0 == 0.0:
        return 0.0

    def defects():
        for r1, r2 in zip(rows, rows[1:]):
            dt = r2["t"] - r1["t"]
            integral = 0.5 * dt * (r1["int_a_u2"] + r2["int_a_u2"])
            yield abs(r2["mass_sq"] - r1["mass_sq"] + 2.0 * integral)

    return _loop_worst(defects(), m0)


def loop_energy_residual(rows):
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = max(1.0, abs(rows[0]["energy"]))

    def defects():
        for r1, r2 in zip(rows, rows[1:]):
            dt = r2["t"] - r1["t"]
            integral = 0.5 * dt * (r1["h_value"] + r2["h_value"])
            yield abs(r2["energy"] - r1["energy"] - integral)

    return _loop_worst(defects(), scale)


def loop_momentum_residual(rows):
    if len(rows) < 2:
        raise ValueError("need at least two diagnostics rows")
    scale = rows[0]["mass_sq"] * math.sqrt(rows[0]["grad_sq"])
    if scale == 0.0:
        scale = 1.0
    dim = sum(name.startswith("p_") for name in rows[0])

    def defects():
        for r1, r2 in zip(rows, rows[1:]):
            dt = r2["t"] - r1["t"]
            for j in range(1, dim + 1):
                p, ap = f"p_{j}", f"int_a_im_grad_{j}"
                integral = 0.5 * dt * (r1[ap] + r2[ap])
                yield abs(r2[p] - r1[p] + 2.0 * integral)

    return _loop_worst(defects(), scale)


def loop_envelope(rows, a):
    if not rows:
        raise ValueError("need at least one diagnostics row")
    u0 = math.sqrt(rows[0]["mass_sq"])
    eps = 1e-8 * u0
    worst = math.inf
    for r in rows:
        val = math.sqrt(r["mass_sq"])
        try:
            upper = u0 * math.exp(a.sup_norm * r["t"]) + eps
        except OverflowError:
            upper = math.inf  # an upper bound past the largest float holds
        lower = u0 * math.exp(-a.sup_norm * r["t"]) - eps
        margins = (upper - val, val - lower)
        if math.isinf(val) or math.isnan(val) or math.isnan(margins[0]) or math.isnan(margins[1]):
            return math.nan
        worst = min(worst, *margins)
    return worst


# --- helpers -------------------------------------------------------------------

def _bits(values):
    """Values as raw float64 bits, so NaN and -0.0 compare exactly."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _outcome(fn, *args):
    """fn's value, or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _same(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (math.isnan(x) and math.isnan(y))
    return x == y


# Finite values near the ledgers' scales, the non-finite ones, signed zeros,
# and any float at all.
VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(),
)
# Any float64 bit pattern: NaN payloads, subnormals and signed zeros included.
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))


@st.composite
def row_matrices(draw, values=VALUES):
    """A table of 1 to 6 rows at d = 1, 2 or 3, and its rows as lists of floats."""
    table = RowTable(draw(st.integers(1, 3)))
    matrix = [[draw(values) for _ in table.names] for _ in range(draw(st.integers(1, 6)))]
    table.append_block(np.array(matrix, dtype=np.float64))
    return table, matrix


# --- tests ----------------------------------------------------------------------

def _recorded_rows():
    g = Grid(1, 64, 10.0)
    a = DampingProfile.constant(g, 0.25)
    rec = TrajectoryRecorder(a, 1.0)
    u0 = ComplexField(g, random_smooth_field(g, np.random.default_rng(3)).values)
    evolve(u0, a, SimConfig(dt0=1e-3, t_end=0.01, record_every=1), rec)
    return rec


def test_table_reads_back_every_row_bitwise():
    rec = _recorded_rows()
    table = rec.rows
    assert isinstance(table, RowTable) and len(table) == 11
    assert table.names == tuple(csv_header(1).split(","))
    odd = table_values(table)[:1]
    for name, value in (("t", -0.0), ("energy", math.nan), ("p_1", math.inf)):
        odd[0, table.names.index(name)] = value
    rows = np.concatenate([table_values(table), odd])
    table.append_block(odd)
    assert len(table) == len(rows)
    for j, name in enumerate(table.names):
        assert _bits(table.column(name)) == _bits(rows[:, j]), name
    assert list(table.csv_lines()) == [csv_line(r) for r in rows.tolist()]
    mass = table.column("mass_sq")
    assert mass.tolist() == rows[:, 1].tolist()
    # A read-only view into the table, one value per row: no copy.
    assert not mass.flags.writeable and not mass.flags.owndata
    assert mass.strides == (8 * table.width,)


@settings(max_examples=300, deadline=None)
@given(drawn=row_matrices(), sup=st.floats(0.0, 3.0))
def test_column_ledgers_equal_the_row_loops(drawn, sup):
    table, matrix = drawn
    rows = [dict(zip(table.names, row)) for row in matrix]
    a = DampingProfile.constant(Grid(1, 16, 5.0), sup)
    pairs = [
        (mass_balance_residual, loop_mass_residual),
        (energy_balance_residual, loop_energy_residual),
        (momentum_balance_residual, loop_momentum_residual),
    ]
    for table_fn, loop_fn in pairs:
        got, want = _outcome(table_fn, table), _outcome(loop_fn, rows)
        assert _same(got, want), (table_fn.__name__, got, want)
    got, want = _outcome(mass_envelope_check, table, a), _outcome(loop_envelope, rows, a)
    assert _same(got, want), (got, want)


def test_recorded_row_retains_at_most_two_values_of_8_bytes_per_column():
    g = Grid(1, 64, 10.0)
    a = DampingProfile.constant(g, 0.25)
    u0 = ComplexField(g, random_smooth_field(g, np.random.default_rng(4)).values)
    dt = 1e-4

    def recorded_peak(steps):
        cfg = SimConfig(dt0=dt, t_end=steps * dt, record_every=1)
        rec = TrajectoryRecorder(a, 1.0)
        peak = traced_peak(lambda: evolve(u0, a, cfg, rec))
        return len(rec.rows), peak

    rows_short, peak_short = recorded_peak(10)
    rows_long, peak_long = recorded_peak(410)
    assert rows_long - rows_short >= 400
    per_row = (peak_long - peak_short) / (rows_long - rows_short)
    columns = len(csv_header(1).split(","))
    print(f"peak growth {per_row:.0f} B per row of {columns} columns")
    assert per_row <= 2 * 8 * columns


@settings(max_examples=200, deadline=None)
@given(drawn=row_matrices(st.one_of(VALUES, FLOAT_BITS)))
def test_csv_lines_equal_csv_line_bytewise(drawn):
    table, matrix = drawn
    assert list(table.csv_lines()) == [csv_line(row) for row in matrix]


def _snapshot(g, rng, kind):
    """The time and spectrum of a random smooth field, the zero field, or a
    constant one (no gradient)."""
    if kind == "zero":
        values = np.zeros(g.shape, dtype=np.complex128)
    elif kind == "flat":
        values = np.full(g.shape, 0.3 - 0.2j)
    else:
        values = rng.uniform(0.2, 3.0) * random_smooth_field(g, rng).values
    return float(rng.uniform(0.0, 5.0)), np.fft.fftn(values)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    kinds=st.lists(st.sampled_from(["field"] * 6 + ["zero", "flat"]), min_size=1, max_size=40),
    read_at=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_rows_equal_one_snapshot_rows(dim, kinds, read_at, seed):
    # Blocks fill to 1..16 snapshots, the last one partial; reading `rows`
    # part way computes a partial block, and recording goes on after it. A
    # zero field has no window; a flat one's window is clamped to 0.99 L.
    g = Grid(1, 64, 10.0) if dim == 1 else Grid(2, 16, 8.0)
    assert block_size(g) == 16
    a = build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0))
    ref_grad_sq = 2.0
    rng = np.random.default_rng(seed)
    rec = TrajectoryRecorder(a, ref_grad_sq)
    expected = []
    for i, kind in enumerate(kinds):
        if i == read_at:
            assert len(rec.rows) == i
        t, spectrum = _snapshot(g, rng, kind)
        dt_used, tail = float(rng.uniform(0.0, 1e-3)), float(rng.uniform(0.0, 1e-4))
        rec(EvolutionState(t, spectrum, 0, dt_used, tail))
        # The block of one the recorder would form: the field from the spectrum.
        meta = np.array([[t, dt_used, tail]])
        expected.append(compute_row(meta, np.fft.ifftn(spectrum)[None], spectrum[None], a,
                                    ref_grad_sq)[0])
    table = rec.rows
    assert len(table) == len(kinds) and len(rec.rows) == len(kinds)
    want = np.array(expected)
    got = table_values(table)
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got - want) <= 1e-13 * scale).all(), np.abs(got - want).max(axis=0) / scale
    radius = table.column("window_w")
    assert (radius[[k == "zero" for k in kinds]] == 0.0).all()
    assert (radius[[k == "flat" for k in kinds]] == 0.99 * g.half_width).all()


@pytest.mark.parametrize("dim, n, snapshots", [(1, 512, 40), (2, 128, 6)])
def test_recorded_rows_equal_rows_of_copied_spectra(dim, n, snapshots):
    # 1-D 512 records in blocks of 16, the last one partial here; 2-D 128² in
    # blocks of one. `evolve` lends each spectrum for the sink call only, so a
    # recorder that kept one without copying it would compute its row from a
    # later step's spectrum.
    g = Grid(dim, n, 10.0)
    assert block_size(g) == (16 if dim == 1 else 1)
    a = build_damping(g, DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0))
    ref_grad_sq = 1.0
    u0 = ComplexField(g, 2.0 * random_smooth_field(g, np.random.default_rng(8), 0.1).values)
    rec = TrajectoryRecorder(a, ref_grad_sq)
    copies = []

    def sink(s):
        copies.append(EvolutionState(s.time, s.spectrum.copy(), s.step_count, s.dt_used,
                                     s.tail_fraction))
        rec(s)

    record_every = 1 if dim == 1 else 2
    dt = 1e-4
    cfg = SimConfig(dt0=dt, t_end=(snapshots - 1) * record_every * dt, adapt_const=1e30,
                    record_every=record_every)
    evolve(u0, a, cfg, sink)
    assert len(copies) == snapshots
    after = TrajectoryRecorder(a, ref_grad_sq)
    for state in copies:
        after(state)
    during, later = rec.rows, after.rows
    assert len(during) == len(later) == snapshots
    assert len(set(during.column("t").tolist())) == snapshots
    for name in during.names:
        assert during.column(name).tobytes() == later.column(name).tobytes(), name
