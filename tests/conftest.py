"""Session fixtures: the two reference ground states and one full catalog run,
and `traced_peak` and `traced_held`, the allocation probes of the memory tests."""

import tracemalloc

import pytest

from nlsdamp import Grid, solve_ground_state
from nlsdamp.scenarios import run_suite


@pytest.fixture(scope="session")
def gs_1d():
    """Ground state on the standard one-dimensional test grid."""
    return solve_ground_state(Grid(1, 512, 20.0), tol=1e-10)


@pytest.fixture(scope="session")
def gs_2d():
    """Ground state on the standard two-dimensional test grid."""
    return solve_ground_state(Grid(2, 256, 15.0), tol=1e-10)


@pytest.fixture(scope="session")
def catalog_results(tmp_path_factory):
    """One full run of the bundled catalog, shared by every test that reads it."""
    out = tmp_path_factory.mktemp("catalog")
    results, status = run_suite({"outputs": str(out)})
    return {
        "results": results,
        "status": status,
        "by_id": {r.config.scenario_id: r for r in results},
        "root": out,
    }


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while fn() runs (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn):
    """Bytes that numpy and Python still hold for fn()'s result when fn() returns."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- kept alive while the memory is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
