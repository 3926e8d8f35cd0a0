"""Outputs do not depend on the BLAS thread count: the package calls no BLAS."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlsdamp

SOURCES = sorted(Path(nlsdamp.__file__).parent.glob("*.py"))
# numpy entry points that run on BLAS (or LAPACK), whose threads split sums.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot", "linalg"}

COLLAPSE_128 = """\
id = threads
dim = 2
n = 128
box = 10.0
initial_data = scaled_ground_state
initial_scale = 1.2
damping = negative_bump
damping_amplitude = 1.0
damping_sigma = 2.0
t_end = 0.02
record_every = 5
outputs = out
"""


def _blas_calls(path: Path):
    """(line, what) of each BLAS entry point or `@` product in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in BLAS_NAMES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"


def test_scan_finds_each_blas_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import vdot\n"
        "a = np.dot(x, y)\nb = x @ y\nx @= y\nc = np.linalg.solve(m, y)\nd = x.dot(y)\n"
    )
    found = sorted(_blas_calls(probe))
    assert found == [(3, "import vdot"), (4, ".dot"), (5, "@"), (6, "@"),
                     (7, ".linalg"), (8, ".dot")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_calls_no_blas(path):
    assert list(_blas_calls(path)) == []


def _run_evolve(root: Path, threads: str) -> None:
    root.mkdir()
    (root / "run.cfg").write_text(COLLAPSE_128)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(nlsdamp.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from nlsdamp.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "evolve", "--config", "run.cfg"],
                   cwd=root, env=env, check=True, capture_output=True)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product over its threads only above about 10⁴
    # elements, so the grid is 128².
    one, two = tmp_path / "one", tmp_path / "two"
    _run_evolve(one, "1")
    _run_evolve(two, "2")
    names = ["rows.csv", "report.json", "balance.json", "checks.json"]
    written = [f"threads/{name}" for name in names]
    written += [p.relative_to(one / "out").as_posix() for p in (one / "out").glob("gs_cache/*")]
    assert len(written) == 5
    for name in written:
        assert (one / "out" / name).read_bytes() == (two / "out" / name).read_bytes(), name
