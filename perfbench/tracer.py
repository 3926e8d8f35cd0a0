"""In-memory spans around the nlsdamp layer boundaries, and the per-layer
metrics reduced from them.

Every hook replaces a name where its caller looks it up (for example
`nlsdamp.scenarios.evolve`, which `run_scenario` calls), so the program
itself is not edited. A hook whose target does not exist is skipped, and the
metrics that need it are reported as absent.

The test-only helpers `strang_step`, `linear_substep`,
`nonlinear_damping_substep` and `choose_dt` are never hooked: `evolve` does
not call them, so timing them would measure a second code path rather than
the step the program takes. A step is measured instead as the time between
two calls of the recording sink, divided by the steps taken in between.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name). Several lookup sites of one function share
# a span name; each site wraps the original, so a call makes one span.
SPAN_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("nlsdamp.cli", "run_scenario", "scenarios.run_scenario"),
    ("nlsdamp.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("nlsdamp.scenarios", "solve_ground_state", "ground_state.solve"),
    ("nlsdamp.scenarios", "dump_json", "reporting.write"),
    ("nlsdamp.scenarios", "_write_rows_csv", "reporting.write"),
    ("nlsdamp.scenarios", "_write_suite_summary", "reporting.write"),
    ("nlsdamp.diagnostics", "compute_row", "diagnostics.row"),
    ("nlsdamp.diagnostics", "concentration_mass", "diagnostics.window"),
    ("nlsdamp.ground_state", "pde_residual", "ground_state.residual"),
)
FFT_NAMES = ("fftn", "ifftn", "fft", "ifft")

# Per-layer metric -> (unit, hooks it needs). A metric whose hooks could not
# all be attached is absent from the result.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "evolution.steps": ("count", ("evolution.sink",)),
    "evolution.self_s": ("s", ("evolution.sink",)),
    "evolution.step_us_p50": ("us", ("evolution.sink",)),
    "evolution.step_us_p90": ("us", ("evolution.sink",)),
    "evolution.fft_per_step": ("fft/step", ("evolution.sink", "spectral.fft")),
    "diagnostics.rows": ("count", ("diagnostics.row",)),
    "diagnostics.row_us_p50": ("us", ("diagnostics.row",)),
    "diagnostics.row_us_p90": ("us", ("diagnostics.row",)),
    "diagnostics.window_us_p50": ("us", ("diagnostics.window",)),
    "diagnostics.fft_per_row": ("fft/row", ("diagnostics.row", "spectral.fft")),
    "diagnostics.balance_s": ("s", ("diagnostics.balance",)),
    "diagnostics.stored_field_mib": ("MiB", ("diagnostics.balance.fields",)),
    "ground_state.solve_s": ("s", ("ground_state.solve",)),
    "ground_state.iterations": ("count", ("ground_state.residual",)),
    "ground_state.solves": ("count", ("ground_state.solve",)),
    "spectral.fft_calls": ("count", ("spectral.fft",)),
    "spectral.fft_s": ("s", ("spectral.fft",)),
    "reporting.write_s": ("s", ("reporting.write",)),
    "scenarios.self_s": ("s", ("scenarios.run_scenario",)),
}

clock = time.perf_counter


def monotonic() -> float:
    """A clock that two processes on one machine read alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _lookup(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, None
    return mod, getattr(mod, attr, None)


class Probe:
    """Hooks for one CLI run.

    Untraced, only the recording sink passed to `evolve` is wrapped, to stamp
    the end of set-up (the first sink call) and read the step count at the
    last sink call of every evolution. Traced, every hook records a span
    `[name, parent, start, end, fft_calls_at_start, fft_calls_at_end, extra]`.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.attached: set = set()
        self.missing: List[str] = []
        self.fft_calls = 0
        self.fft_s = 0.0
        self.first_sink: Optional[float] = None
        self.steps = 0

    # --- span recording ---------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, self.fft_calls, 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = clock()
        return span

    def _close(self, span: list) -> None:
        span[3] = clock()
        span[5] = self.fft_calls
        self.stack.pop()

    def _spanned(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            value = extra(args, kwargs) if extra is not None else None
            span = self._open(name)
            span[6] = value
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    # --- attaching ----------------------------------------------------------

    def attach(self) -> None:
        self._attach_evolve()
        if not self.trace:
            return
        for module, attr, name in SPAN_HOOKS:
            mod, fn = _lookup(module, attr)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._spanned(name, fn))
            self.attached.add(name)
        mod, fn = _lookup("nlsdamp.scenarios", "balance_report")
        if callable(fn):
            extra = self._fields_bytes(fn)
            if extra is not None:
                self.attached.add("diagnostics.balance.fields")
            mod.balance_report = self._spanned("diagnostics.balance", fn, extra)
            self.attached.add("diagnostics.balance")
        else:
            self.missing.append("nlsdamp.scenarios.balance_report")
        self._attach_fft()

    def _attach_evolve(self) -> None:
        mod, fn = _lookup("nlsdamp.scenarios", "evolve")
        try:
            sig = inspect.signature(fn) if callable(fn) else None
        except (TypeError, ValueError):
            sig = None
        if sig is None or "sink" not in sig.parameters:
            self.missing.append("nlsdamp.scenarios.evolve(sink=...)")
            return

        def evolve(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            sink = bound.arguments.get("sink")
            last = [0]
            if sink is not None:
                bound.arguments["sink"] = self._sink(sink, last)
            span = self._open("evolution.evolve") if self.trace else None
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                if span is not None:
                    self._close(span)
                self.steps += last[0]

        mod.evolve = evolve
        self.attached.add("evolution.sink")

    def _sink(self, sink: Callable, last: list) -> Callable:
        def recorded(*args, **kwargs):
            if self.first_sink is None:
                self.first_sink = monotonic()
            steps = getattr(args[0], "step_count", 0) if args else 0
            last[0] = steps
            if not self.trace:
                return sink(*args, **kwargs)
            span = self._open("evolution.sink")
            span[6] = steps
            try:
                return sink(*args, **kwargs)
            finally:
                self._close(span)

        return recorded

    @staticmethod
    def _fields_bytes(fn: Callable) -> Optional[Callable]:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None
        if "fields" not in sig.parameters:
            return None

        def extra(args, kwargs) -> int:
            fields = sig.bind(*args, **kwargs).arguments.get("fields")
            return sum(f.values.nbytes for f in fields) if fields else 0

        return extra

    def _attach_fft(self) -> None:
        import numpy.fft as npfft

        for name in FFT_NAMES:
            fn = getattr(npfft, name)

            def counted(*args, _fn=fn, **kwargs):
                t0 = clock()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.fft_s += clock() - t0
                    self.fft_calls += 1

            setattr(npfft, name, counted)
        self.attached.add("spectral.fft")

    # --- reduction ----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of this run; absent metrics are left out."""
        by_name: Dict[str, List[int]] = {}
        child_s = [0.0] * len(self.spans)
        for i, (name, parent, t0, t1, *_rest) in enumerate(self.spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child_s[parent] += t1 - t0

        def spans(name):
            return [self.spans[i] for i in by_name.get(name, [])]

        def total(name):
            return sum(s[3] - s[2] for s in spans(name))

        def durations_us(name):
            return [1e6 * (s[3] - s[2]) for s in spans(name)]

        def quantile(values, q):
            if not values:
                return None
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        # Gaps between consecutive sink calls of one evolution: the steps.
        step_us, gap_ffts, gap_steps = [], 0, 0
        sinks_by_evolve: Dict[int, List[list]] = {}
        for i in by_name.get("evolution.sink", []):
            sinks_by_evolve.setdefault(self.spans[i][1], []).append(self.spans[i])
        for sinks in sinks_by_evolve.values():
            for a, b in zip(sinks, sinks[1:]):
                n = b[6] - a[6]
                if n > 0:
                    step_us.append(1e6 * (b[2] - a[3]) / n)
                    gap_ffts += b[4] - a[5]
                    gap_steps += n

        rows = spans("diagnostics.row")
        balance = spans("diagnostics.balance")
        out: Dict[str, Optional[float]] = {
            "evolution.steps": self.steps,
            "evolution.self_s": total("evolution.evolve") - total("evolution.sink"),
            "evolution.step_us_p50": quantile(step_us, 50),
            "evolution.step_us_p90": quantile(step_us, 90),
            "evolution.fft_per_step": gap_ffts / gap_steps if gap_steps else None,
            "diagnostics.rows": len(rows),
            "diagnostics.row_us_p50": quantile(durations_us("diagnostics.row"), 50),
            "diagnostics.row_us_p90": quantile(durations_us("diagnostics.row"), 90),
            "diagnostics.window_us_p50": quantile(durations_us("diagnostics.window"), 50),
            "diagnostics.fft_per_row": (
                sum(s[5] - s[4] for s in rows) / len(rows) if rows else None
            ),
            "diagnostics.balance_s": total("diagnostics.balance"),
            "diagnostics.stored_field_mib": (
                max((s[6] or 0 for s in balance), default=0) / 2**20
            ),
            "ground_state.solve_s": total("ground_state.solve"),
            "ground_state.iterations": len(by_name.get("ground_state.residual", [])),
            "ground_state.solves": len(by_name.get("ground_state.solve", [])),
            "spectral.fft_calls": self.fft_calls,
            "spectral.fft_s": self.fft_s,
            "reporting.write_s": total("reporting.write"),
            "scenarios.self_s": sum(
                self.spans[i][3] - self.spans[i][2] - child_s[i]
                for i in by_name.get("scenarios.run_scenario", [])
            ),
        }
        return {
            name: value
            for name, value in out.items()
            if value is not None and set(LAYER_METRICS[name][1]) <= self.attached
        }
