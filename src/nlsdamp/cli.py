"""Command-line entry points.

Exit codes: 0 on success (including inconclusive claim checks), 1 on a hard
failure (non-convergence, failed check, bad result), 2 on configuration
errors and on initial data the grid cannot resolve.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .diagnostics import gn_ratio, random_smooth_field, sharp_gn_constant
from .ground_state import ConvergenceError, pohozaev_residuals
from .reporting import dump_json, format_float
from .scenarios import (
    ensure_ground_state,
    load_scenario_config,
    parse_suite_config_text,
    read_config_text,
    run_scenario,
    run_suite,
    summary_table,
)
from .spectral import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsdamp",
        description="Pseudospectral runs for the damped critical focusing Schrodinger equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gs = sub.add_parser("ground-state", help="solve the periodic ground-state profile")
    gs.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    gs.add_argument("--n", type=int, required=True, help="grid points per axis (power of two)")
    gs.add_argument("--box", type=float, required=True, help="half-width of the periodic box")
    gs.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    gs.add_argument("--out", type=str, default="outputs", help="output directory")

    ev = sub.add_parser("evolve", help="run one scenario from a config file")
    ev.add_argument("--config", type=str, required=True, help="key=value config file")
    ev.add_argument("--out", type=str, default=None, help="override the output directory")

    su = sub.add_parser("suite", help="run the bundled scenario catalog")
    su.add_argument("--config", type=str, default=None, help="optional override config")

    gn = sub.add_parser("gn-check", help="sample the interpolation-ratio functional")
    gn.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    gn.add_argument("--n", type=int, default=256)
    gn.add_argument("--box", type=float, default=15.0)
    gn.add_argument("--samples", type=int, default=1000)
    gn.add_argument("--seed", type=int, default=7)

    return parser


def _write_profile_csv(path: Path, gs_obj) -> None:
    g = gs_obj.grid
    cols = [f"x_{j + 1}" for j in range(g.dim)] + ["q"]
    lines = [",".join(cols)]
    # Row-major order: the last axis varies fastest, as in the raveled profile.
    points = itertools.product(g.axis.tolist(), repeat=g.dim)
    for point, q in zip(points, gs_obj.profile.reshape(-1).tolist()):
        lines.append(",".join(map(format_float, (*point, q))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cmd_ground_state(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    gs_obj = ensure_ground_state(args.dim, args.n, args.box, args.tol,
                                 cache_dir=out_dir / "gs_cache")
    res = pohozaev_residuals(gs_obj)
    payload = {
        "dim": args.dim,
        "n": args.n,
        "box": args.box,
        "tol": args.tol,
        "mass_sq": gs_obj.mass_sq,
        "grad_sq": gs_obj.grad_sq,
        "lp_power": gs_obj.lp_power,
        "energy": gs_obj.energy,
        "residual": gs_obj.residual,
        "energy_identity_residual": res.energy_res,
        "gradient_identity_residual": res.gradient_res,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(payload, out_dir / f"ground_state_d{args.dim}.json")
    _write_profile_csv(out_dir / f"ground_state_d{args.dim}.csv", gs_obj)
    print(f"mass_sq           {gs_obj.mass_sq:.12g}")
    print(f"grad_sq           {gs_obj.grad_sq:.12g}")
    print(f"lp_power          {gs_obj.lp_power:.12g}")
    print(f"pde residual      {gs_obj.residual:.3e}")
    print(f"identity residual {max(res.energy_res, res.gradient_res):.3e}")
    ok = gs_obj.residual < args.tol and max(res.energy_res, res.gradient_res) < 1e-6
    return 0 if ok else 1


def _cmd_evolve(args: argparse.Namespace) -> int:
    cfg = load_scenario_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, outputs=args.out)
    result = run_scenario(cfg)
    r = result.report
    if result.unresolved_at_start:
        print(
            "initial data is under-resolved on this grid: tail fraction "
            f"{result.rows.column('tail_fraction')[0]:.6g} > tail_threshold "
            f"{cfg.sim.tail_threshold:.6g} at t = 0; raise n",
            file=sys.stderr,
        )
        return 2
    print(f"scenario     {cfg.scenario_id}")
    print(f"stop reason  {r.stop_reason.value}")
    print(f"blew up      {str(r.blew_up).lower()}")
    print(f"t_detect     {r.t_detect:.6g}")
    if result.balance is not None:
        b = result.balance
        print(f"mass residual    {b.mass_residual:.3e}")
        print(f"energy residual  {b.energy_residual:.3e}")
        print(f"envelope ok      {str(b.envelope_ok).lower()}")
    for check in result.checks:
        print(f"check {check.claim}: {check.status} ({check.notes})")
    print(f"outputs in   {result.out_dir}")
    hard_fail = result.any_check_failed or not math.isfinite(r.terminal_mass_sq)
    return 1 if hard_fail else 0


def _cmd_suite(args: argparse.Namespace) -> int:
    overrides = {}
    if args.config is not None:
        overrides = parse_suite_config_text(read_config_text(args.config))
    results, status = run_suite(overrides)
    print(summary_table(results))
    print(f"summary written to {Path(results[0].config.outputs) / 'summary.csv'}")
    return status


def _cmd_gn_check(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    gs_obj = ensure_ground_state(args.dim, args.n, args.box, 1e-10)
    optimal = sharp_gn_constant(args.dim, gs_obj.mass_sq)
    rng = np.random.default_rng(args.seed)
    worst = -math.inf
    for _ in range(args.samples):
        ratio = gn_ratio(random_smooth_field(gs_obj.grid, rng))
        worst = max(worst, ratio)
    ratio_at_gs = gn_ratio(gs_obj.field())
    print(f"samples           {args.samples}")
    print(f"max sampled ratio {worst:.12g}")
    print(f"ratio at optimum  {ratio_at_gs:.12g}")
    print(f"sharp constant    {optimal:.12g}")
    ok = worst <= optimal * (1.0 + 1e-9) and abs(ratio_at_gs - optimal) <= 1e-6 * optimal
    print("bound holds" if ok else "bound violated")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ground-state": _cmd_ground_state,
        "evolve": _cmd_evolve,
        "suite": _cmd_suite,
        "gn-check": _cmd_gn_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"ground-state iteration failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
