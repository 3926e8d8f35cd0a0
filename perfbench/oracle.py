"""Correctness oracle: checks the files one CLI run wrote under outputs/."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from workloads import Run

# Gate 4 of the acceptance tests: the balance-law residual tolerance. Gate 4
# applies it to the smooth runs; near a detected blow-up the energy residual
# is set by the time grid of the singular growth (about 5e-4 on the catalog
# collapses), so for runs pinned to blow up only the mass and momentum
# residuals are held to it.
BALANCE_TOL = 1e-5


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _under_tol(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value < BALANCE_TOL


def check_scenario(out_dir: Path, expected) -> List[str]:
    """Reasons the scenario's outputs in out_dir break the oracle (empty if none)."""
    report = _load(out_dir / "report.json")
    balance = _load(out_dir / "balance.json")
    checks = _load(out_dir / "checks.json")
    if report is None or balance is None or checks is None:
        return ["missing or unreadable report.json, balance.json or checks.json"]
    problems = []
    if report.get("stop_reason") != expected.stop_reason:
        problems.append(f"stop_reason {report.get('stop_reason')} != {expected.stop_reason}")
    if report.get("blew_up") is not expected.blew_up:
        problems.append(f"blew_up {report.get('blew_up')} != {expected.blew_up}")
    verdicts = {c.get("claim"): c.get("status") for c in checks}
    if verdicts != expected.checks:
        problems.append(f"verdicts {verdicts} != {expected.checks}")
    gated = ["mass_residual", "momentum_residual"]
    if not expected.blew_up:
        gated.append("energy_residual")
    for key in gated:
        if not _under_tol(balance.get(key)):
            problems.append(f"{key} {balance.get(key)} not below {BALANCE_TOL:g}")
    if balance.get("envelope_ok") is not True:
        problems.append("envelope_ok is not true")
    return problems


def rows_digest(out_dir: Path) -> Optional[str]:
    try:
        return hashlib.sha256((out_dir / "rows.csv").read_bytes()).hexdigest()
    except OSError:
        return None


def check_run(
    outputs: Path, run: Run, exit_code: int, digests: Dict[str, str]
) -> Dict[str, List[str]]:
    """Oracle outcome of every scenario the run was to produce.

    `digests` maps `run.key/scenario` to the rows.csv digest of the first run
    of this session with the same inputs; later runs must match it.
    """
    outcome = {}
    for scenario, expected in run.expected.items():
        out_dir = outputs / scenario
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        problems += check_scenario(out_dir, expected)
        digest = rows_digest(out_dir)
        if digest is None:
            problems.append("rows.csv missing")
        elif digests.setdefault(f"{run.key}/{scenario}", digest) != digest:
            problems.append("rows.csv differs from an earlier run with the same inputs")
        outcome[scenario] = problems
    return outcome
