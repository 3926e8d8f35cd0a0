"""Config-driven scenario runner, claim checks, and the bundled run catalog."""

from __future__ import annotations

import math
import os
import re
import tempfile
import warnings
import zipfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .diagnostics import (
    BalanceReport,
    DiagnosticsRow,
    TrajectoryRecorder,
    balance_report,
    csv_header,
    csv_line,
    gradient_window_rule,
)
from .evolution import BlowupReport, SimConfig, StopReason, evolve
from .ground_state import GroundState, solve_ground_state
from .reporting import dump_json, format_float
from .spectral import ComplexField, ConfigurationError, DampingProfile, Grid

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
    "check_global_existence",
    "check_blowup_time_bound",
    "check_concentration",
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

GS_CACHE_VERSION = 2

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
    config: ScenarioConfig
    report: BlowupReport
    rows: List[DiagnosticsRow]
    balance: Optional[BalanceReport]
    checks: List[TheoremCheckReport]
    out_dir: Optional[Path]
    initial_outer_mass_fraction: float


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

def build_damping(grid: Grid, spec: DampingSpec) -> DampingProfile:
    """Sample the damping family in closed form, gradient included.

    The cosine profile is periodic on the box only when the wavelength
    divides the box width 2L; any other wavelength is a configuration error,
    since a(x) would have a kink at the box edge.
    """
    if spec.kind == "zero":
        return DampingProfile.zero(grid)
    if spec.kind == "constant":
        return DampingProfile.constant(grid, spec.amplitude)
    if spec.kind in ("gaussian_bump", "negative_bump"):
        sign = 1.0 if spec.kind == "gaussian_bump" else -1.0
        amp = sign * spec.amplitude
        s2 = spec.sigma * spec.sigma
        r2 = sum(c * c for c in grid.coords)
        vals = amp * np.exp(-r2 / (2.0 * s2))
        grads = tuple(-(c / s2) * vals for c in grid.coords)
        return DampingProfile(grid, vals, grads)
    # cosine along the first axis
    periods = 2.0 * grid.half_width / spec.wavelength
    if abs(periods - round(periods)) > 1e-9 * periods:
        raise ConfigurationError(
            f"cosine wavelength {spec.wavelength:g} does not divide the box width "
            f"{2.0 * grid.half_width:g}"
        )
    kwave = 2.0 * math.pi / spec.wavelength
    x1 = grid.coords[0]
    vals = spec.amplitude * np.cos(kwave * x1)
    g1 = -spec.amplitude * kwave * np.sin(kwave * x1)
    grads = (g1,) + tuple(np.zeros(grid.shape) for _ in range(grid.dim - 1))
    return DampingProfile(grid, vals, grads)


def build_initial(grid: Grid, spec: InitialSpec, gs: Optional[GroundState]) -> ComplexField:
    if spec.kind == "gaussian":
        r2 = sum(c * c for c in grid.coords)
        vals = spec.amplitude * np.exp(-r2 / (2.0 * spec.width * spec.width))
        return ComplexField(grid, vals.astype(np.complex128))
    if gs is None:
        raise ConfigurationError(f"initial data {spec.kind!r} needs a ground state")
    if not gs.grid.same_layout(grid):
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
    with np.load(path) as data:
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
        scalars = [float(data[k]) for k in ("mass_sq", "grad_sq", "lp_power", "residual")]
        if not (np.isfinite(profile).all() and np.isfinite(scalars).all()):
            raise ValueError("non-finite values")
    return GroundState(grid, profile, *scalars)


def _save_ground_state(path: Path, gs: GroundState, tol: float) -> None:
    """Write the cache through a temporary file, so no reader sees a partial one."""
    path.parent.mkdir(parents=True, exist_ok=True)
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
                mass_sq=gs.mass_sq,
                grad_sq=gs.grad_sq,
                lp_power=gs.lp_power,
                residual=gs.residual,
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
    profile of the grid's shape. Otherwise a warning says why, and the
    profile is solved again and the file overwritten.
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
            except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
                warnings.warn(f"ground-state cache {path} rejected ({exc}); solving again")
    gs = solve_ground_state(grid, tol=tol)
    if path is not None:
        _save_ground_state(path, gs, tol)
    return gs


# --- claim checks ------------------------------------------------------------

def check_global_existence(
    report: BlowupReport,
    rows: Sequence[DiagnosticsRow],
    cfg: ScenarioConfig,
    gs: GroundState,
) -> TheoremCheckReport:
    """Pointwise-positive damping with at-most-critical mass must stay global.

    Pass needs: no blow-up, horizon reached, peak gradient growth below
    10², and strictly decreasing recorded mass. A resolution-guard stop is
    inconclusive; a detected blow-up or broken monotonicity is a failure.
    """
    sid = cfg.scenario_id
    claim = "global_existence"
    if not cfg.damping.pointwise_positive:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "damping is not pointwise positive",
        )
    u0_norm = math.sqrt(rows[0].mass_sq)
    q_norm = math.sqrt(gs.mass_sq)
    if u0_norm > q_norm * (1.0 + 1e-10):
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "initial mass above critical",
        )
    peak_ratio = report.peak_grad_sq / rows[0].grad_sq if rows[0].grad_sq > 0 else 0.0
    if report.blew_up:
        return TheoremCheckReport(
            sid, claim, STATUS_FAIL, PEAK_GRAD_RATIO_BOUND, peak_ratio,
            PEAK_GRAD_RATIO_BOUND - peak_ratio,
            "blow-up detected under global-existence hypotheses",
        )
    if report.stop_reason is not StopReason.HORIZON_REACHED:
        return TheoremCheckReport(
            sid, claim, STATUS_INCONCLUSIVE, PEAK_GRAD_RATIO_BOUND, peak_ratio,
            PEAK_GRAD_RATIO_BOUND - peak_ratio,
            f"run stopped early: {report.stop_reason.value}",
        )
    masses = [r.mass_sq for r in rows]
    monotone = all(m2 < m1 for m1, m2 in zip(masses, masses[1:]))
    if peak_ratio < PEAK_GRAD_RATIO_BOUND and monotone:
        return TheoremCheckReport(
            sid, claim, STATUS_PASS, PEAK_GRAD_RATIO_BOUND, peak_ratio,
            PEAK_GRAD_RATIO_BOUND - peak_ratio,
            "horizon reached; mass strictly decreasing",
        )
    notes = []
    if peak_ratio >= PEAK_GRAD_RATIO_BOUND:
        notes.append(f"peak gradient ratio {peak_ratio:.3g} exceeds {PEAK_GRAD_RATIO_BOUND:g}")
    if not monotone:
        notes.append("recorded mass is not strictly decreasing")
    return TheoremCheckReport(
        sid, claim, STATUS_FAIL, PEAK_GRAD_RATIO_BOUND, peak_ratio,
        PEAK_GRAD_RATIO_BOUND - peak_ratio, "; ".join(notes),
    )


def check_blowup_time_bound(
    report: BlowupReport,
    rows: Sequence[DiagnosticsRow],
    cfg: ScenarioConfig,
    gs: GroundState,
) -> TheoremCheckReport:
    """Detected blow-up from below-critical mass cannot beat the log bound.

    bound = (1/‖a‖∞) log(‖Q‖₂/‖u₀‖₂); pass iff t_detect exceeds it and the
    detection-time mass is consistent (at least 0.95·‖Q‖₂). Shortfalls are
    inconclusive, never failures.
    """
    sid = cfg.scenario_id
    claim = "blowup_time_bound"
    if not report.blew_up:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "no blow-up detected",
        )
    u0_norm = math.sqrt(rows[0].mass_sq)
    q_norm = math.sqrt(gs.mass_sq)
    sup = cfg.damping.sup_norm
    if not u0_norm < q_norm:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, report.t_detect, math.nan,
            "initial mass not below critical",
        )
    if not sup > 0:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, report.t_detect, math.nan,
            "bound undefined for vanishing damping",
        )
    bound = math.log(q_norm / u0_norm) / sup
    observed = report.t_detect
    margin = observed - bound
    terminal_norm = math.sqrt(report.terminal_mass_sq)
    mass_ok = terminal_norm >= MASS_CONSISTENCY_FRACTION * q_norm
    if margin > 0 and mass_ok:
        return TheoremCheckReport(
            sid, claim, STATUS_PASS, bound, observed, margin,
            f"detection-time mass {terminal_norm:.6g} vs critical {q_norm:.6g}",
        )
    notes = []
    if margin <= 0:
        notes.append("detection earlier than the bound at this resolution")
    if not mass_ok:
        notes.append(
            f"detection-time mass {terminal_norm:.6g} below "
            f"{MASS_CONSISTENCY_FRACTION:g} of critical"
        )
    return TheoremCheckReport(
        sid, claim, STATUS_INCONCLUSIVE, bound, observed, margin, "; ".join(notes),
    )


def check_concentration(
    report: BlowupReport,
    rows: Sequence[DiagnosticsRow],
    cfg: ScenarioConfig,
    gs: GroundState,
) -> TheoremCheckReport:
    """Windowed mass near detection must reach the critical mass fraction.

    Scans rows in the final decade of ‖∇u‖ growth (factor cfg.conc_decade,
    at least 5 rows) and compares max conc_mass against
    cfg.conc_pass_threshold·‖Q‖₂². Refuses to run when the recorded windows
    are below two grid spacings or w·‖∇u‖ shows no growth, since the claim
    is only meaningful for resolvable, diverging windows.
    """
    sid = cfg.scenario_id
    claim = "concentration"
    threshold = cfg.conc_pass_threshold
    if not report.blew_up:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "no blow-up detected",
        )
    grad_norms = [math.sqrt(r.grad_sq) for r in rows]
    g_max = max(grad_norms)
    final = [r for r, gn in zip(rows, grad_norms) if gn >= g_max / cfg.conc_decade]
    if len(final) < 5:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            f"only {len(final)} rows in the final decade of gradient growth",
        )
    spacing = 2.0 * cfg.box / cfg.n
    if any(r.window_radius < 2.0 * spacing for r in final):
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "window-rule guard: window below two grid spacings near detection",
        )
    products = [r.window_radius * math.sqrt(r.grad_sq) for r in final]
    if not products[-1] > 1.05 * products[0]:
        return TheoremCheckReport(
            sid, claim, STATUS_NOT_APPLICABLE, math.nan, math.nan, math.nan,
            "window-rule guard: w·‖∇u‖ shows no growth toward detection",
        )
    observed = max(r.concentration_mass for r in final) / gs.mass_sq
    margin = observed - threshold
    if observed >= threshold:
        status, notes = STATUS_PASS, f"last-row fraction {final[-1].concentration_mass / gs.mass_sq:.6g}"
    else:
        status, notes = STATUS_INCONCLUSIVE, "windowed mass below threshold at this resolution"
    return TheoremCheckReport(sid, claim, status, threshold, observed, margin, notes)


# --- running -----------------------------------------------------------------

def _initial_outer_mass_fraction(u0: ComplexField) -> float:
    g = u0.grid
    abs2 = u0.values.real**2 + u0.values.imag**2
    total = float(abs2.sum())
    if total == 0.0:
        return 0.0
    outer = abs2[sum(c * c for c in g.coords) > (0.5 * g.half_width) ** 2]
    return float(outer.sum()) / total


def run_scenario(
    cfg: ScenarioConfig,
    gs: Optional[GroundState] = None,
    write_outputs: bool = True,
) -> ScenarioResult:
    """Build the grid, damping, and initial datum; evolve; attach checks.

    Writes rows.csv, report.json, balance.json, and checks.json under
    outputs/<scenario_id>/ unless write_outputs is False. An unresolved run
    (tail guard before any steps) gets a report but no claim checks.
    """
    grid = Grid(cfg.dim, cfg.n, cfg.box)
    a = build_damping(grid, cfg.damping)
    if gs is None:
        cache = Path(cfg.outputs) / "gs_cache" if write_outputs else None
        gs = ensure_ground_state(cfg.dim, cfg.n, cfg.box, cfg.gs_tol, cache_dir=cache)
    if not gs.grid.same_layout(grid):
        raise ConfigurationError("supplied ground state does not match the scenario grid")
    u0 = build_initial(grid, cfg.initial, gs)
    outer_fraction = _initial_outer_mass_fraction(u0)
    recorder = TrajectoryRecorder(a, gradient_window_rule(gs.grad_sq))
    report = evolve(u0, a, cfg.sim, recorder, ref_grad_sq=gs.grad_sq)
    rows = recorder.rows

    unresolved_at_start = (
        report.stop_reason is StopReason.TAIL_UNRESOLVED and len(rows) <= 1
    )
    balance = balance_report(rows, a) if len(rows) >= 2 else None
    checks: List[TheoremCheckReport] = []
    if not unresolved_at_start and rows:
        for check in (check_global_existence, check_blowup_time_bound, check_concentration):
            result = check(report, rows, cfg, gs)
            if result.status != STATUS_NOT_APPLICABLE:
                checks.append(result)

    out_dir: Optional[Path] = None
    if write_outputs:
        out_dir = Path(cfg.outputs) / cfg.scenario_id
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_rows_csv(out_dir / "rows.csv", rows, cfg.dim)
        dump_json(_report_payload(cfg, report, outer_fraction), out_dir / "report.json")
        if balance is not None:
            dump_json(_balance_payload(balance), out_dir / "balance.json")
        dump_json([_check_payload(c) for c in checks], out_dir / "checks.json")
    return ScenarioResult(cfg, report, rows, balance, checks, out_dir, outer_fraction)


def _write_rows_csv(path: Path, rows: Sequence[DiagnosticsRow], dim: int) -> None:
    lines = [csv_header(dim)]
    lines += [csv_line(r, dim) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _report_payload(cfg: ScenarioConfig, report: BlowupReport, outer_fraction: float) -> dict:
    return {
        "scenario_id": cfg.scenario_id,
        "dim": cfg.dim,
        "n": cfg.n,
        "box": cfg.box,
        "initial_data": cfg.initial.kind,
        "damping": cfg.damping.kind,
        "blew_up": report.blew_up,
        "t_detect": report.t_detect,
        "peak_grad_sq": report.peak_grad_sq,
        "scale_at_detect": report.scale_at_detect,
        "stop_reason": report.stop_reason.value,
        "terminal_mass_sq": report.terminal_mass_sq,
        "boundary_mass_flag": report.boundary_mass_flag,
        "initial_outer_mass_fraction": outer_fraction,
    }


def _balance_payload(balance: BalanceReport) -> dict:
    return {
        "mass_residual": balance.mass_residual,
        "energy_residual": balance.energy_residual,
        "momentum_residual": balance.momentum_residual,
        "envelope_ok": balance.envelope_ok,
        "max_envelope_violation": balance.max_envelope_violation,
    }


def _check_payload(check: TheoremCheckReport) -> dict:
    return {
        "scenario_id": check.scenario_id,
        "claim": check.claim,
        "status": check.status,
        "bound_value": check.bound_value,
        "observed": check.observed,
        "margin": check.margin,
        "notes": check.notes,
    }


# --- bundled catalog ---------------------------------------------------------

def catalog(outputs: str = "outputs") -> List[ScenarioConfig]:
    """The bundled claim-check runs, all one-dimensional at N=512, L=20."""
    base_sim = SimConfig(dt0=1e-3, t_end=20.0, adapt_const=1e-2, dt_min=1e-7,
                         tail_threshold=1e-4, record_every=5)
    bump = DampingSpec(kind="gaussian_bump", amplitude=1.0, sigma=2.0)
    neg = DampingSpec(kind="negative_bump", amplitude=1.0, sigma=2.0)

    def cfg(sid: str, initial: InitialSpec, damping: DampingSpec, sim: SimConfig) -> ScenarioConfig:
        return ScenarioConfig(
            scenario_id=sid, dim=1, n=512, box=20.0,
            initial=initial, damping=damping, sim=sim, outputs=outputs,
        )

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


def run_suite(
    overrides: Optional[Dict[str, object]] = None,
    outputs: Optional[str] = None,
) -> Tuple[List[ScenarioResult], int]:
    """Run the bundled catalog and write a summary table.

    Returns the results and an exit status: 0 when every applicable check
    passed or was inconclusive, 1 when any check failed.
    """
    overrides = dict(overrides or {})
    if outputs is not None:
        overrides["outputs"] = outputs
    out_root = str(overrides.get("outputs", "outputs"))
    configs = apply_suite_overrides(catalog(out_root), overrides)
    gs_cache: Dict[Tuple[int, int, float, float], GroundState] = {}
    results: List[ScenarioResult] = []
    for cfg in configs:
        key = (cfg.dim, cfg.n, cfg.box, cfg.gs_tol)
        if key not in gs_cache:
            gs_cache[key] = ensure_ground_state(
                cfg.dim, cfg.n, cfg.box, cfg.gs_tol,
                cache_dir=Path(out_root) / "gs_cache",
            )
        results.append(run_scenario(cfg, gs=gs_cache[key]))
    _write_suite_summary(Path(out_root) / "summary.csv", results)
    failed = any(c.status == STATUS_FAIL for r in results for c in r.checks)
    return results, (1 if failed else 0)


def _write_suite_summary(path: Path, results: Sequence[ScenarioResult]) -> None:
    header = (
        "scenario_id,stop_reason,blew_up,t_detect,peak_grad_sq,"
        "mass_residual,energy_residual,momentum_residual,envelope_ok,checks"
    )
    lines = [header]
    for r in results:
        checks = ";".join(f"{c.claim}={c.status}" for c in r.checks) or "none"
        if r.balance is not None:
            bal = [
                format_float(r.balance.mass_residual),
                format_float(r.balance.energy_residual),
                format_float(r.balance.momentum_residual),
                str(r.balance.envelope_ok).lower(),
            ]
        else:
            bal = ["null", "null", "null", "null"]
        lines.append(
            ",".join(
                [
                    r.config.scenario_id,
                    r.report.stop_reason.value,
                    str(r.report.blew_up).lower(),
                    format_float(r.report.t_detect),
                    format_float(r.report.peak_grad_sq),
                    *bal,
                    checks,
                ]
            )
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def summary_table(results: Sequence[ScenarioResult]) -> str:
    """Aligned text table for terminal output."""
    rows = [("scenario", "stop", "blew_up", "t_detect", "checks")]
    for r in results:
        checks = ";".join(f"{c.claim}={c.status}" for c in r.checks) or "none"
        rows.append(
            (
                r.config.scenario_id,
                r.report.stop_reason.value,
                str(r.report.blew_up).lower(),
                f"{r.report.t_detect:.4f}",
                checks,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    )
