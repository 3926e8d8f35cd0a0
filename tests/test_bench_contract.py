"""Smoke check of the benchmark harness: a traced run reports every per-layer metric.

The harness under perfbench/ wraps named functions of the package and reads
the per-layer metrics from the spans they make. A metric drops out of its
result when a hooked name disappears or a span is never opened, so this runs
its probe as the benchmark does, once on `evolve` and once on `suite`, and
checks that nothing is missing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Metrics that perfbench/run.py computes itself rather than reading from the probe.
COMPUTED_BY_RUNNER = {"cli.import_s", "reporting.bytes_written", "trace.overhead_s"}

RUN_CONFIG = """\
id = contract_1d
dim = 1
n = 256
box = 15.0
initial_data = scaled_ground_state
initial_scale = 0.9
damping = gaussian_bump
damping_amplitude = 1.0
damping_sigma = 2.0
dt0 = 1e-3
t_end = 0.05
record_every = 5
outputs = outputs
"""

# The same run in 2-D, so the d ≥ 2 windowed mass is traced too.
RUN_CONFIG_2D = RUN_CONFIG.replace("contract_1d", "contract_2d").replace(
    "dim = 1\nn = 256\nbox = 15.0", "dim = 2\nn = 64\nbox = 10.0"
)

# A short catalog: every entry at N = 256 over 50 steps.
SUITE_CONFIG = """\
n = 256
t_end = 0.05
record_every = 5
"""


def _check_traced_probe(tmp_path, argv, config):
    (tmp_path / argv[-1]).write_text(config)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result_path = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result_path), "1", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(result_path.read_text())
    assert probe["missing_hooks"] == []
    assert probe["steps"] >= 50
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared} - COMPUTED_BY_RUNNER
    layers = probe["layers"]
    assert sorted(wanted - set(layers)) == []
    assert {name: layers[name] for name in wanted if not math.isfinite(layers[name])} == {}


def test_traced_probe_reports_every_layer_metric(tmp_path):
    _check_traced_probe(tmp_path, ["evolve", "--config", "run.cfg"], RUN_CONFIG)


def test_traced_2d_probe_reports_every_layer_metric(tmp_path):
    _check_traced_probe(tmp_path, ["evolve", "--config", "run.cfg"], RUN_CONFIG_2D)


def test_traced_suite_probe_reports_every_layer_metric(tmp_path):
    _check_traced_probe(tmp_path, ["suite", "--config", "suite.cfg"], SUITE_CONFIG)
