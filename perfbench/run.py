#!/usr/bin/env python3
"""Benchmark of the nlsdamp command-line program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_1d --seed 1 --seconds 40 --trace 0

Each workload is a list of CLI runs built from the seed (see workloads.py).
The benchmark cycles through the list, one run at a time, each in a fresh
interpreter and an empty directory under .perfbench_tmp/, until --seconds
have passed, and at least twice through, so every input runs twice. Each run's
outputs go through the oracle in oracle.py; a run that breaks it counts as a
failed operation.

--trace 0 reports the end-to-end metrics, with only the sink probe attached.
--trace 1 makes one untraced cycle, then traced runs, and reports the
per-layer metrics and the tracing overhead (traced minus untraced wall_s).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it print every metric by name with its unit, the
distribution of each end-to-end metric, the oracle's findings and the
machine context, the last of these as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from oracle import check_run
from tracer import LAYER_METRICS, monotonic
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Every run of the benchmark ends within this many seconds.
DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}
EXTRA_LAYER_UNITS = {"cli.import_s": "s", "reporting.bytes_written": "B", "trace.overhead_s": "s"}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()} | EXTRA_LAYER_UNITS


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def warm_up(env: Dict[str, str], cwd: Path) -> Dict[str, str]:
    """Import the program once, so bytecode caches are written before timing."""
    code = (
        "import json, numpy, nlsdamp.cli; "
        "print(json.dumps({'numpy': numpy.__version__, 'module': nlsdamp.cli.__file__}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"cannot import nlsdamp from {SRC}: {proc.stderr.strip().splitlines()[-1:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
        fail(f"nlsdamp was imported from {info['module']}, not from {SRC}")
    return info


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def execute(run, traced: bool, session: Path, env, timeout: float, digests) -> dict:
    """One CLI run in a fresh interpreter and directory; its samples and oracle outcome."""
    run_dir = Path(tempfile.mkdtemp(dir=session))
    try:
        for name, text in run.files.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        result_path = run_dir / "probe.json"
        cmd = [sys.executable, str(HERE / "probe.py"), str(result_path),
               "1" if traced else "0", *run.argv]
        t0 = monotonic()
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
            code: Optional[int] = proc.returncode
            if code != 0:
                print(f"perfbench: run {run.key} exited {code}:\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
        except subprocess.TimeoutExpired:
            code = None
        wall = monotonic() - t0
        outputs = run_dir / "outputs"
        outcome = check_run(outputs, run, -1 if code is None else code, digests)
        probe = json.loads(result_path.read_text()) if result_path.exists() else None
        sample = None
        # A run that exits 1 on a failed claim check still ran to the end, so it
        # is timed; the oracle has already counted it as failed.
        if code is not None and probe and probe["first_sink"] is not None and probe["steps"] > 0:
            setup = probe["first_sink"] - t0
            sample = {
                "wall_s": wall,
                "setup_s": setup,
                "steps_per_s": probe["steps"] / (wall - setup),
                "peak_rss_mib": probe["maxrss_kib"] / 1024.0,
            }
        layers = {}
        if traced and probe:
            layers = dict(probe["layers"], **{
                "cli.import_s": probe["import_s"],
                "reporting.bytes_written": dir_bytes(outputs) if outputs.exists() else 0,
            })
        return {
            "key": run.key,
            "traced": traced,
            "timed_out": code is None,
            "sample": sample,
            "layers": layers,
            "missing_hooks": probe["missing_hooks"] if probe else [],
            "outcome": outcome,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def distribution(values: List[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": statistics.median(s), "p_hi": None, "p_hi_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            pos = p / 100.0 * (n - 1)
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            out["p_hi"], out["p_hi_value"] = p, s[lo] + (s[hi] - s[lo]) * (pos - lo)
            break
    return out


def getconf(name: str) -> Optional[int]:
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(workload, info: Dict[str, str]) -> dict:
    l2 = getconf("LEVEL2_CACHE_SIZE")
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "nproc": os.cpu_count(),
        "l2_bytes": l2,
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "state_array_bytes_computed": workload.state_bytes,
        "state_array_over_l2_computed": workload.state_bytes / l2 if l2 else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "nlsdamp" / "cli.py").is_file():
        fail(f"no program to measure: {SRC / 'nlsdamp' / 'cli.py'} does not exist")
    workload = WORKLOADS[args.workload]
    runs = workload.runs(args.seed)
    env = child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    session = Path(tempfile.mkdtemp(dir=tmp_root))
    start = monotonic()
    results: List[dict] = []
    digests: Dict[str, str] = {}
    try:
        info = warm_up(env, session)
        measure_start = monotonic()
        while True:
            i = len(results)
            traced = bool(args.trace) and i >= len(runs)
            t0 = monotonic()
            remaining = DEADLINE_S - (t0 - start)
            results.append(execute(runs[i % len(runs)], traced, session, env, remaining, digests))
            now = monotonic()
            run_s = now - t0
            if results[-1]["timed_out"] or now - start + 1.5 * run_s > DEADLINE_S:
                break
            if len(results) >= 2 * len(runs) and now - measure_start + run_s > args.seconds:
                break
    finally:
        shutil.rmtree(session, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(r["outcome"]) for r in results)
    problems = {
        f"{r['key']}/{scenario}#{i}": found
        for i, r in enumerate(results)
        for scenario, found in r["outcome"].items()
        if found
    }
    failed = len(problems)
    untraced = [r["sample"] for r in results if r["sample"] and not r["traced"]]
    traced = [r for r in results if r["traced"]]
    e2e = {name: distribution([s[name] for s in untraced]) for name in E2E_UNITS} if untraced else {}

    if args.trace:
        layers: Dict[str, float] = {}
        for name in LAYER_UNITS:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                layers[name] = statistics.median(values)
        traced_wall = [r["sample"]["wall_s"] for r in traced if r["sample"]]
        if traced_wall and "wall_s" in e2e:
            layers["trace.overhead_s"] = statistics.median(traced_wall) - e2e["wall_s"]["median"]
        metrics = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in layers.items()}
        absent = [name for name in LAYER_UNITS if name not in layers]
    else:
        metrics = {name: {"value": d["median"], "unit": E2E_UNITS[name]} for name, d in e2e.items()}
        absent = [name for name in E2E_UNITS if name not in e2e]

    print(f"workload {workload.name}  seed {args.seed}  "
          f"runs {len(results)} ({len(traced)} traced)")
    for name, d in e2e.items():
        tail = (f"p{d['p_hi']:g} {d['p_hi_value']:.6g}" if d["p_hi"] is not None
                else "no percentile has 10 samples beyond it")
        print(f"  {name:<30} {d['median']:>14.6g} {E2E_UNITS[name]:<8} "
              f"median of {d['n']}; {tail}")
    print(f"  {'failed_fraction':<30} {failed / max(attempted, 1):>14.6g} {'1':<8} "
          f"{failed} of {attempted} scenario runs failed the oracle")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    for name in absent:
        print(f"  {name:<30} {'absent':>14}")
    for key, found in problems.items():
        print(f"  FAILED {key}: {'; '.join(found)}")
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": [{"key": run.key, "argv": list(run.argv), "files": run.files} for run in runs],
        "end_to_end": e2e,
        "runs": [{"key": r["key"], "traced": r["traced"], **(r["sample"] or {})} for r in results],
        "failed_fraction": failed / max(attempted, 1),
        "absent": absent,
        "missing_hooks": sorted({h for r in results for h in r["missing_hooks"]}),
        "context": context(workload, info),
    }
    print(json.dumps(details, sort_keys=True))
    if absent and not args.trace:
        fail(f"end-to-end metrics could not be measured: {absent}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
