"""Config-driven scenario runner, claim checks, and the bundled run catalog."""

from __future__ import annotations

import math
import os
import re
import tempfile
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union, get_type_hints

import numpy as np

from .diagnostics import BalanceReport, RowTable, TrajectoryRecorder, balance_report
from .evolution import BlowupReport, SimConfig, StopReason, evolve
from .ground_state import GroundState, pde_residual, solve_ground_state
from .reporting import dump_json, format_float
from .spectral import (ComplexField, ConfigurationError, DampingProfile, Grid, _require_finite,
                       _sum_sq, _zero_view, abs2)

__all__ = [
    "InitialSpec",
    "DampingSpec",
    "ScenarioConfig",
    "TheoremCheckReport",
    "ScenarioResult",
    "parse_config_text",
    "read_config_text",
    "load_scenario_config",
    "build_damping",
    "build_initial",
    "ensure_ground_state",
    "run_scenario",
    "CLAIMS",
    "check_claim",
    "catalog",
    "run_suite",
]

INITIAL_KINDS = ("scaled_ground_state", "gaussian", "boosted_ground_state")
DAMPING_KINDS = ("zero", "constant", "gaussian_bump", "negative_bump", "cosine")

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_NOT_APPLICABLE = "not_applicable"

# Tame-run bound on ‖∇u‖²/‖∇u₀‖² used by the global-existence verdict.
PEAK_GRAD_RATIO_BOUND = 100.0
# Detection-time mass must retain this fraction of the critical norm.
MASS_CONSISTENCY_FRACTION = 0.95

GS_CACHE_VERSION = 5

# A scenario id names its output directory under the outputs root, so it may
# hold no path separator and may not start with a dot.
SCENARIO_ID_PATTERN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


@dataclass(frozen=True)
class InitialSpec:
    """Initial datum: a scaled, Gaussian, or velocity-boosted profile."""

    kind: str = "scaled_ground_state"
    scale: float = 1.0
    amplitude: float = 1.0
    width: float = 1.0
    velocity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in INITIAL_KINDS:
            raise ConfigurationError(
                f"unknown initial_data kind {self.kind!r}; expected one of {INITIAL_KINDS}"
            )
        _require_finite(self, "initial_")
        if self.kind == "gaussian" and not self.width > 0:
            raise ConfigurationError(f"gaussian initial data needs width > 0, got {self.width}")


@dataclass(frozen=True)
class DampingSpec:
    """Damping coefficient family and its parameters."""

    kind: str = "zero"
    amplitude: float = 0.0
    sigma: float = 1.0
    wavelength: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in DAMPING_KINDS:
            raise ConfigurationError(
                f"unknown damping kind {self.kind!r}; expected one of {DAMPING_KINDS}"
            )
        if self.kind in ("gaussian_bump", "negative_bump") and not self.sigma > 0:
            raise ConfigurationError("bump damping needs sigma > 0")
        if self.kind == "cosine" and not self.wavelength > 0:
            raise ConfigurationError("cosine damping needs wavelength > 0")
        _require_finite(self, "damping_")

    @property
    def sup_norm(self) -> float:
        return 0.0 if self.kind == "zero" else abs(self.amplitude)

    @property
    def pointwise_positive(self) -> bool:
        return self.kind in ("constant", "gaussian_bump") and self.amplitude > 0


_SUITE = {"suite": True}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run.

    The fields declare the flat `key = value` config schema. A plain field
    is the key of its name, or of its metadata "key". The fields of a nested
    spec are the keys `<prefix><name>`, except its `kind`, whose key is the
    metadata "kind". Metadata "suite" marks the keys that a suite config may
    set for every catalog entry.
    """

    scenario_id: str = field(metadata={"key": "id"})
    dim: int = 1
    n: int = field(default=512, metadata=_SUITE)
    box: float = field(default=20.0, metadata=_SUITE)
    initial: InitialSpec = field(
        default_factory=InitialSpec, metadata={"prefix": "initial_", "kind": "initial_data"}
    )
    damping: DampingSpec = field(
        default_factory=DampingSpec, metadata={"prefix": "damping_", "kind": "damping"}
    )
    sim: SimConfig = field(default_factory=SimConfig, metadata={"prefix": "", **_SUITE})
    outputs: str = field(default="outputs", metadata=_SUITE)
    gs_tol: float = field(default=1e-10, metadata=_SUITE)
    conc_pass_threshold: float = field(default=0.9, metadata=_SUITE)
    conc_decade: float = field(default=10.0, metadata=_SUITE)

    def __post_init__(self) -> None:
        if not SCENARIO_ID_PATTERN.fullmatch(self.scenario_id):
            raise ConfigurationError(
                f"scenario id {self.scenario_id!r} must match {SCENARIO_ID_PATTERN.pattern}"
            )
        if not (math.isfinite(self.gs_tol) and self.gs_tol > 0):
            raise ConfigurationError(f"gs_tol must be finite and > 0, got {self.gs_tol}")
        if not (math.isfinite(self.conc_pass_threshold) and self.conc_pass_threshold > 0):
            raise ConfigurationError(
                f"conc_pass_threshold must be finite and > 0, got {self.conc_pass_threshold}"
            )
        if not (math.isfinite(self.conc_decade) and self.conc_decade > 1):
            raise ConfigurationError(
                f"conc_decade must be finite and > 1, got {self.conc_decade}"
            )
        # Before a ground state is solved and cached; a bad box is left to Grid.
        if self.damping.kind == "cosine" and math.isfinite(self.box) and self.box > 0:
            _check_cosine_period(self.damping.wavelength, self.box)


@dataclass(frozen=True)
class TheoremCheckReport:
    """Outcome of one claim check attached to a scenario."""

    scenario_id: str
    claim: str
    status: str
    bound_value: float
    observed: float
    margin: float
    notes: str


@dataclass
class ScenarioResult:
    """One run's outcome. `rows` is the recorder's RowTable: one float64
    column per rows.csv column."""

    config: ScenarioConfig
    report: BlowupReport
    rows: RowTable
    balance: Optional[BalanceReport]
    checks: List[TheoremCheckReport]
    out_dir: Path
    initial_outer_mass_fraction: float

    @property
    def unresolved_at_start(self) -> bool:
        """The tail guard stopped the run at t = 0, before any step."""
        return self.report.stop_reason is StopReason.TAIL_UNRESOLVED and len(self.rows) <= 1

    @property
    def any_check_failed(self) -> bool:
        """A claim check failed: `nlsdamp suite` and `nlsdamp evolve` then exit 1."""
        return any(c.status == STATUS_FAIL for c in self.checks)

    @property
    def check_summary(self) -> str:
        """`claim=status` for each check, joined by ";", or "none"."""
        return ";".join(f"{c.claim}={c.status}" for c in self.checks) or "none"


# --- configuration files ---------------------------------------------------

class _Key(NamedTuple):
    spec: Optional[str]  # the nested spec field it sets, or None for a plain field
    name: str
    cast: type
    suite: bool


def _schema() -> Tuple[Dict[str, _Key], Dict[str, type]]:
    """The flat config keys, and the type of each nested spec, from ScenarioConfig."""
    hints = get_type_hints(ScenarioConfig)
    keys: Dict[str, _Key] = {}
    specs: Dict[str, type] = {}
    for top in fields(ScenarioConfig):
        meta = top.metadata
        suite = meta.get("suite", False)
        if "prefix" not in meta:
            keys[meta.get("key", top.name)] = _Key(None, top.name, hints[top.name], suite)
            continue
        spec = specs[top.name] = hints[top.name]
        spec_hints = get_type_hints(spec)
        for f in fields(spec):
            key = meta["kind"] if f.name == "kind" else meta["prefix"] + f.name
            keys[key] = _Key(top.name, f.name, spec_hints[f.name], suite)
    return keys, specs


_SCENARIO_KEYS, _SPECS = _schema()
# Keys a suite config may set; they override every catalog entry.
_SUITE_KEYS = tuple(k for k, key in _SCENARIO_KEYS.items() if key.suite)


def _split(data: Dict[str, object]) -> Tuple[Dict[str, object], Dict[str, Dict[str, object]]]:
    """Cast flat key values and group them into plain fields and per-spec fields."""
    plain: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    for flat, value in data.items():
        key = _SCENARIO_KEYS[flat]
        target = plain if key.spec is None else nested.setdefault(key.spec, {})
        target[key.name] = key.cast(value)
    return plain, nested


def parse_config_text(text: str, allowed: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """Parse flat key=value lines; unknown or repeated keys are configuration errors."""
    keys = _SCENARIO_KEYS if allowed is None else {k: _SCENARIO_KEYS[k] for k in allowed}
    out: Dict[str, object] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigurationError(
                f"line {lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            out[key] = keys[key].cast(value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def scenario_config_from_dict(data: Dict[str, object], default_id: str = "run") -> ScenarioConfig:
    plain, nested = _split({k: v for k, v in data.items() if k in _SCENARIO_KEYS})
    specs = {name: spec(**nested.get(name, {})) for name, spec in _SPECS.items()}
    cfg = ScenarioConfig(**{"scenario_id": default_id, **plain}, **specs)
    unused = sorted(set(data) - set(_SCENARIO_KEYS))
    if unused:
        raise ConfigurationError(f"unused configuration keys: {unused}")
    return cfg


def read_config_text(path) -> str:
    """The text of a config file; a file that cannot be read is a configuration error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from exc


def load_scenario_config(path) -> ScenarioConfig:
    data = parse_config_text(read_config_text(path))
    return scenario_config_from_dict(data, default_id=Path(path).stem)


# --- field builders ----------------------------------------------------------

def _check_cosine_period(wavelength: float, half_width: float) -> None:
    """ConfigurationError unless the wavelength divides the box width 2L (no kink at the edge)."""
    periods = 2.0 * half_width / wavelength
    if not (math.isfinite(periods) and abs(periods - round(periods)) <= 1e-9 * periods):
        raise ConfigurationError(f"cosine wavelength {wavelength:g} does not divide "
                                 f"the box width {2.0 * half_width:g}")


def build_damping(grid: Grid, spec: DampingSpec) -> DampingProfile:
    """Sample the damping family in closed form, gradient included.

    The cosine's wavelength must divide the box width 2L. A bump's gradient
    -(x_j/σ²)·a is formed per read; the cosine stores its one nonzero component.
    """
    if spec.kind == "zero":
        return DampingProfile.zero(grid)
    if spec.kind == "constant":
        return DampingProfile.constant(grid, spec.amplitude)
    if spec.kind in ("gaussian_bump", "negative_bump"):
        sign = 1.0 if spec.kind == "gaussian_bump" else -1.0
        amp = sign * spec.amplitude
        s2 = spec.sigma * spec.sigma
        r2 = _sum_sq(grid.dim, grid.axis)
        vals = amp * np.exp(-r2 / (2.0 * s2))
        slope = grid._mesh(-(grid.axis / s2))
        return DampingProfile(grid, vals, lambda j: slope[j] * vals)
    # cosine along the first axis
    _check_cosine_period(spec.wavelength, grid.half_width)
    kwave = 2.0 * math.pi / spec.wavelength
    x1 = grid.coords[0]
    vals = spec.amplitude * np.cos(kwave * x1)
    g1 = -spec.amplitude * kwave * np.sin(kwave * x1)
    return DampingProfile(grid, vals, lambda j: g1 if j == 0 else _zero_view(grid))


def build_initial(grid: Grid, spec: InitialSpec, gs: Optional[GroundState]) -> ComplexField:
    if spec.kind == "gaussian":
        r2 = _sum_sq(grid.dim, grid.axis)
        vals = spec.amplitude * np.exp(-r2 / (2.0 * spec.width * spec.width))
        return ComplexField(grid, vals.astype(np.complex128))
    if gs is None:
        raise ConfigurationError(f"initial data {spec.kind!r} needs a ground state")
    if gs.grid != grid:
        raise ConfigurationError("ground state was solved on a different grid")
    vals = spec.scale * gs.profile.astype(np.complex128)
    if spec.kind == "boosted_ground_state":
        vals = vals * np.exp(1j * spec.velocity * grid.coords[0])
    return ComplexField(grid, vals)


# --- ground-state cache ------------------------------------------------------

def _cache_path(cache_dir: Path, dim: int, n: int, box: float, tol: float) -> Path:
    # repr keeps every digit, so two parameter sets never share one file.
    return cache_dir / f"gs-v{GS_CACHE_VERSION}-d{dim}-n{n}-L{box!r}-tol{tol!r}.npz"


def _load_ground_state(path: Path, grid: Grid, tol: float) -> GroundState:
    """Read a cached solve; ValueError names why the file does not fit."""
    # Opened here: when np.load raises on a damaged file, it drops the
    # handle it opened without closing it.
    with open(path, "rb") as fh, np.load(fh) as data:
        version = int(data["version"])
        if version != GS_CACHE_VERSION:
            raise ValueError(f"version {version}, expected {GS_CACHE_VERSION}")
        stored = (int(data["dim"]), int(data["n"]), float(data["box"]), float(data["tol"]))
        wanted = (grid.dim, grid.points_per_axis, grid.half_width, tol)
        if stored != wanted:
            raise ValueError(f"solved for (dim, n, box, tol) = {stored}, need {wanted}")
        profile = data["profile"]
        if profile.shape != grid.shape or profile.dtype != np.float64:
            raise ValueError(
                f"profile is {profile.dtype} {profile.shape}, need float64 {grid.shape}"
            )
        if not np.isfinite(profile).all():
            raise ValueError("non-finite values")
    residual = pde_residual(grid, profile)
    if not residual < tol:
        raise ValueError(f"residual {residual:.3e} is not below tol {tol!r}")
    return GroundState(grid, profile, residual)


def _make_dir(path: Path) -> None:
    """Create `path` and its parents; one that cannot be made is a ConfigurationError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigurationError(f"cannot create output directory {path}: {reason}") from exc


def _save_ground_state(path: Path, gs: GroundState, tol: float) -> None:
    """Write the cache through a temporary file, so no reader sees a partial one."""
    _make_dir(path.parent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".gs-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                version=GS_CACHE_VERSION,
                dim=gs.grid.dim,
                n=gs.grid.points_per_axis,
                box=gs.grid.half_width,
                tol=tol,
                profile=gs.profile,
            )
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def ensure_ground_state(
    dim: int,
    n: int,
    box: float,
    tol: float,
    cache_dir: Optional[Path] = None,
) -> GroundState:
    """Solve the ground state, reusing a cached profile keyed by (dim, n, box, tol).

    A cached file is used only if it is readable, has the current version,
    was solved for the same (dim, n, box, tol), and holds a finite float64
    profile of the grid's shape whose PDE residual is below `tol`. Otherwise
    a warning says why, and the profile is solved again and the file
    overwritten. A hit forms the integrals and the residual from the profile,
    bit for bit those of the solve that wrote it.
    """
    grid = Grid(dim, n, box)
    # Checked before the cache too, so that no file solved for it is read.
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be finite and > 0, got {tol}")
    path = None
    if cache_dir is not None:
        path = _cache_path(Path(cache_dir), dim, n, box, tol)
        if path.exists():
            try:
                return _load_ground_state(path, grid, tol)
            except ConfigurationError:
                raise  # a flat profile: its box is too small, and a new solve finds it again
            except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
                warnings.warn(f"ground-state cache {path} rejected ({exc}); solving again")
    gs = solve_ground_state(grid, tol=tol)
    if path is not None:
        _save_ground_state(path, gs, tol)
    return gs


# --- claims ------------------------------------------------------------------

# (status, bound_value, observed, margin, notes) of a claim that applies.
Verdict = Tuple[str, float, float, float, str]
# A claim's evaluation: the reason it does not apply to the run, or its verdict.
Evaluation = Callable[[BlowupReport, RowTable, ScenarioConfig, GroundState], Union[str, Verdict]]


def _global_existence(report, rows, cfg, gs) -> Union[str, Verdict]:
    """Pointwise-positive damping with at-most-critical mass must stay global.

    Pass needs: no blow-up, horizon reached, peak gradient growth below
    10², and recorded mass strictly decreasing while positive, then exactly
    zero. A resolution-guard stop is inconclusive; a detected blow-up or
    broken monotonicity is a failure.
    """
    if not cfg.damping.pointwise_positive:
        return "damping is not pointwise positive"
    masses = rows.column("mass_sq")
    if masses[0] == 0.0:
        return "initial mass is zero"
    if math.sqrt(masses[0]) > math.sqrt(gs.mass_sq) * (1.0 + 1e-10):
        return "initial mass above critical"
    bound = PEAK_GRAD_RATIO_BOUND
    grad0 = float(rows.column("grad_sq")[0])
    peak_ratio = report.peak_grad_sq / grad0 if grad0 > 0 else 0.0
    if report.blew_up:
        status, notes = STATUS_FAIL, "blow-up detected under global-existence hypotheses"
    elif report.stop_reason is not StopReason.HORIZON_REACHED:
        status, notes = STATUS_INCONCLUSIVE, f"run stopped early: {report.stop_reason.value}"
    else:
        before, after = masses[:-1], masses[1:]
        monotone = bool(np.all((after < before) | ((after == 0.0) & (before == 0.0))))
        if peak_ratio < bound and monotone:
            status, notes = STATUS_PASS, "horizon reached; mass strictly decreasing"
        else:
            problems = []
            if peak_ratio >= bound:
                problems.append(f"peak gradient ratio {peak_ratio:.3g} exceeds {bound:g}")
            if not monotone:
                problems.append("recorded mass is not strictly decreasing")
            status, notes = STATUS_FAIL, "; ".join(problems)
    return status, bound, peak_ratio, bound - peak_ratio, notes


def _blowup_time_bound(report, rows, cfg, gs) -> Union[str, Verdict]:
    """Detected blow-up from below-critical mass cannot beat the log bound.

    bound = (1/‖a‖∞) log(‖Q‖₂/‖u₀‖₂); pass iff t_detect exceeds it and the
    detection-time mass is consistent (at least 0.95·‖Q‖₂). Shortfalls are
    inconclusive, never failures.
    """
    if not report.blew_up:
        return "no blow-up detected"
    u0_norm = math.sqrt(rows.column("mass_sq")[0])
    q_norm = math.sqrt(gs.mass_sq)
    sup = cfg.damping.sup_norm
    if not u0_norm < q_norm:
        return "initial mass not below critical"
    if not sup > 0:
        return "bound undefined for vanishing damping"
    bound = math.log(q_norm / u0_norm) / sup
    observed = report.t_detect
    margin = observed - bound
    terminal_norm = math.sqrt(report.terminal_mass_sq)
    mass_ok = terminal_norm >= MASS_CONSISTENCY_FRACTION * q_norm
    if margin > 0 and mass_ok:
        notes = f"detection-time mass {terminal_norm:.6g} vs critical {q_norm:.6g}"
        return STATUS_PASS, bound, observed, margin, notes
    problems = []
    if margin <= 0:
        problems.append("detection earlier than the bound at this resolution")
    if not mass_ok:
        problems.append(
            f"detection-time mass {terminal_norm:.6g} below "
            f"{MASS_CONSISTENCY_FRACTION:g} of critical"
        )
    return STATUS_INCONCLUSIVE, bound, observed, margin, "; ".join(problems)


def _concentration(report, rows, cfg, gs) -> Union[str, Verdict]:
    """Windowed mass near detection must reach the critical mass fraction.

    Scans rows in the final decade of ‖∇u‖ growth (factor cfg.conc_decade,
    at least 5 rows) and compares max conc_mass against
    cfg.conc_pass_threshold·‖Q‖₂². Refuses to run when the recorded windows
    are below two grid spacings or w·‖∇u‖ shows no growth, since the claim
    is only meaningful for resolvable, diverging windows.
    """
    if not report.blew_up:
        return "no blow-up detected"
    # Python floats through math.sqrt and max: max compares past a NaN that
    # is not its first value, where np.max would return NaN.
    grad_norms = [math.sqrt(x) for x in rows.column("grad_sq").tolist()]
    windows = rows.column("window_w").tolist()
    conc = rows.column("conc_mass").tolist()
    g_max = max(grad_norms)
    final = [i for i, gn in enumerate(grad_norms) if gn >= g_max / cfg.conc_decade]
    if len(final) < 5:
        return f"only {len(final)} rows in the final decade of gradient growth"
    spacing = 2.0 * cfg.box / cfg.n
    if any(windows[i] < 2.0 * spacing for i in final):
        return "window-rule guard: window below two grid spacings near detection"
    products = [windows[i] * grad_norms[i] for i in final]
    if not products[-1] > 1.05 * products[0]:
        return "window-rule guard: w·‖∇u‖ shows no growth toward detection"
    threshold = cfg.conc_pass_threshold
    observed = max(conc[i] for i in final) / gs.mass_sq
    if observed >= threshold:
        status, notes = STATUS_PASS, f"last-row fraction {conc[final[-1]] / gs.mass_sq:.6g}"
    else:
        status, notes = STATUS_INCONCLUSIVE, "windowed mass below threshold at this resolution"
    return status, threshold, observed, observed - threshold, notes


# The paper's claims, in the order a run reports them. Adding a claim is one
# evaluation and one entry here.
CLAIMS: Dict[str, Evaluation] = {
    "global_existence": _global_existence,
    "blowup_time_bound": _blowup_time_bound,
    "concentration": _concentration,
}


def check_claim(
    claim: str,
    report: BlowupReport,
    rows: RowTable,
    cfg: ScenarioConfig,
    gs: GroundState,
) -> TheoremCheckReport:
    """Evaluate one claim of CLAIMS on a run; a claim that does not apply is
    not_applicable, with NaN numbers and the reason as its notes."""
    outcome = CLAIMS[claim](report, rows, cfg, gs)
    if isinstance(outcome, str):
        outcome = (STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan, outcome)
    return TheoremCheckReport(cfg.scenario_id, claim, *outcome)


# --- running -----------------------------------------------------------------

def _initial_outer_mass_fraction(u0: ComplexField) -> float:
    g = u0.grid
    u2 = abs2(u0.values)
    total = float(u2.sum())
    if total == 0.0:
        return 0.0
    outer = u2[_sum_sq(g.dim, g.axis) > (0.5 * g.half_width) ** 2]
    return float(outer.sum()) / total


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Load or solve the ground state; on its grid, the run's only one, build
    the damping and initial datum; evolve; attach checks.

    Caches the ground state in outputs/gs_cache and writes rows.csv,
    report.json, balance.json, and checks.json under outputs/<scenario_id>/.
    An unresolved run (tail guard before any steps) gets no claim checks.
    """
    gs = ensure_ground_state(cfg.dim, cfg.n, cfg.box, cfg.gs_tol, cache_dir=Path(cfg.outputs) / "gs_cache")
    grid = gs.grid
    a = build_damping(grid, cfg.damping)
    u0 = [build_initial(grid, cfg.initial, gs)]
    outer_fraction = _initial_outer_mass_fraction(u0[0])
    recorder = TrajectoryRecorder(a, gs.grad_sq)
    # Handed over, not kept: evolve frees the datum after its first transform.
    report = evolve(u0.pop(), a, cfg.sim, recorder, ref_grad_sq=gs.grad_sq)
    rows = recorder.rows
    balance = balance_report(rows, a) if len(rows) >= 2 else None
    out_dir = Path(cfg.outputs) / cfg.scenario_id
    result = ScenarioResult(cfg, report, rows, balance, [], out_dir, outer_fraction)
    if rows and not result.unresolved_at_start:
        checks = (check_claim(claim, report, rows, cfg, gs) for claim in CLAIMS)
        result.checks = [c for c in checks if c.status != STATUS_NOT_APPLICABLE]

    _make_dir(out_dir)
    _write_rows_csv(out_dir / "rows.csv", rows)
    dump_json(_report_payload(result), out_dir / "report.json")
    if balance is not None:
        dump_json(asdict(balance), out_dir / "balance.json")
    dump_json([asdict(c) for c in result.checks], out_dir / "checks.json")
    return result


def _write_rows_csv(path: Path, rows: RowTable) -> None:
    """Write the header and then the table one line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(rows.names) + "\n")
        for line in rows.csv_lines():
            fh.write(line + "\n")


def _report_payload(result: ScenarioResult) -> dict:
    """report.json: six config keys, the BlowupReport fields, the outer mass fraction."""
    cfg, report = result.config, result.report
    return {
        "scenario_id": cfg.scenario_id,
        "dim": cfg.dim,
        "n": cfg.n,
        "box": cfg.box,
        "initial_data": cfg.initial.kind,
        "damping": cfg.damping.kind,
        **asdict(report),
        "stop_reason": report.stop_reason.value,
        "initial_outer_mass_fraction": result.initial_outer_mass_fraction,
    }


# --- bundled catalog ---------------------------------------------------------

def catalog() -> List[ScenarioConfig]:
    """The bundled claim-check runs, all one-dimensional at N=512, L=20."""
    base_sim = SimConfig(dt0=1e-3, t_end=20.0, adapt_const=1e-2, dt_min=1e-7,
                         tail_threshold=1e-4, record_every=5)
    bump = DampingSpec(kind="gaussian_bump", amplitude=1.0, sigma=2.0)
    neg = DampingSpec(kind="negative_bump", amplitude=1.0, sigma=2.0)

    def cfg(sid: str, initial: InitialSpec, damping: DampingSpec, sim: SimConfig) -> ScenarioConfig:
        return ScenarioConfig(scenario_id=sid, dim=1, n=512, box=20.0,
                              initial=initial, damping=damping, sim=sim)

    def scaled(lam: float) -> InitialSpec:
        return InitialSpec(kind="scaled_ground_state", scale=lam)

    return [
        cfg("global_bump_0p5", scaled(0.5), bump, base_sim),
        cfg("global_bump_0p9", scaled(0.9), bump, base_sim),
        cfg("global_bump_1p0", scaled(1.0), bump, base_sim),
        cfg("soliton_free", scaled(1.0), DampingSpec(kind="zero"),
            replace(base_sim, t_end=5.0)),
        cfg("collapse_free_1p2", scaled(1.2), DampingSpec(kind="zero"),
            replace(base_sim, t_end=10.0)),
        cfg("bound_negative_0p9", scaled(0.9), neg, replace(base_sim, t_end=10.0)),
        cfg("bound_negative_0p99", scaled(0.99), neg, replace(base_sim, t_end=10.0)),
        cfg("decay_constant", scaled(0.9), DampingSpec(kind="constant", amplitude=0.5),
            replace(base_sim, t_end=2.0)),
    ]


def apply_suite_overrides(configs: Sequence[ScenarioConfig], overrides: Dict[str, object]) -> List[ScenarioConfig]:
    plain, nested = _split({k: v for k, v in overrides.items() if k in _SUITE_KEYS})
    return [
        replace(cfg, **plain, **{k: replace(getattr(cfg, k), **kw) for k, kw in nested.items()})
        for cfg in configs
    ]


def parse_suite_config_text(text: str) -> Dict[str, object]:
    return parse_config_text(text, allowed=_SUITE_KEYS)


def run_suite(overrides: Optional[Dict[str, object]] = None) -> Tuple[List[ScenarioResult], int]:
    """Run the bundled catalog and write a summary table.

    Returns the results and an exit status: 0 when every applicable check
    passed or was inconclusive, 1 when any check failed.
    """
    configs = apply_suite_overrides(catalog(), overrides or {})
    # The disk cache is the ground state's only memo: of the entries on one
    # grid, the first solves it and the others read it back.
    results = [run_scenario(cfg) for cfg in configs]
    _write_suite_summary(Path(configs[0].outputs) / "summary.csv", results)
    failed = any(r.any_check_failed for r in results)
    return results, (1 if failed else 0)


def _summary_cell(value) -> str:
    """A summary.csv cell: null for a missing value, true/false, or 17 digits."""
    if value is None:
        return "null"
    return str(value).lower() if isinstance(value, bool) else format_float(value)


def _write_suite_summary(path: Path, results: Sequence[ScenarioResult]) -> None:
    header = (
        "scenario_id,stop_reason,blew_up,t_detect,peak_grad_sq,"
        "mass_residual,energy_residual,momentum_residual,envelope_ok,checks"
    )
    lines = [header]
    for r in results:
        b = r.balance
        ledger = (None,) * 4 if b is None else (
            b.mass_residual, b.energy_residual, b.momentum_residual, b.envelope_ok)
        values = (r.report.blew_up, r.report.t_detect, r.report.peak_grad_sq, *ledger)
        lines.append(",".join([r.config.scenario_id, r.report.stop_reason.value,
                               *map(_summary_cell, values), r.check_summary]))
    _make_dir(path.parent)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def summary_table(results: Sequence[ScenarioResult]) -> str:
    """Aligned text table for terminal output."""
    rows = [("scenario", "stop", "blew_up", "t_detect", "checks")]
    for r in results:
        rows.append(
            (
                r.config.scenario_id,
                r.report.stop_reason.value,
                str(r.report.blew_up).lower(),
                f"{r.report.t_detect:.4f}",
                r.check_summary,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    )
