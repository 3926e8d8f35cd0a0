"""Every name a module lists in `__all__` resolves, so a retired name cannot linger
there, and retired names and parameters stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import nlsdamp

MODULES = ["nlsdamp"] + [f"nlsdamp.{m.name}" for m in pkgutil.iter_modules(nlsdamp.__path__)]
# Test oracles that moved to tests/reference.py, the row object that rows
# as a RowTable of columns replaced, the window result and density block
# that block-only windows replaced, the grid comparison that `Grid`'s
# own `==` replaced, the row sums that `spectral.abs2` and
# `spectral.grid_dot` replaced, the window rule that a float ‖∇Q‖²
# replaced, the dt-floor growth gate that the floor stop replaced, the
# snapshot block that compute_row's plain arrays replaced, the formed
# gradient that `DampingProfile.gradient` replaced, and the envelope result
# that its worst margin replaced; the package no longer defines them.
RETIRED = [
    "strang_step", "closed_form_q_1d", "csv_line", "DiagnosticsRow",
    "ConcentrationResult", "DensityBlock", "_tail_mask", "_boundary_mask",
    "same_layout", "_dot", "_abs2", "gradient_window_rule", "WindowRule",
    "GRAD_RATIO_THRESHOLD", "SnapshotBlock", "_Formed", "EnvelopeCheck",
]


# Retired parameters: a supplied ground state and a no-write run, which only
# tests passed (tests write under tmp_path, and the disk cache is the only
# memo), an outputs root that the suite's `outputs` key already sets, and the
# damping gradient as a tuple or a function, which `gradient`, a function,
# replaced.
RETIRED_PARAMETERS = [
    ("nlsdamp.scenarios", "run_scenario", "gs"),
    ("nlsdamp.scenarios", "run_scenario", "write_outputs"),
    ("nlsdamp.scenarios", "run_suite", "outputs"),
    ("nlsdamp.scenarios", "catalog", "outputs"),
    ("nlsdamp.spectral", "DampingProfile", "gradient_values"),
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("module", MODULES)
def test_retired_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in RETIRED if hasattr(mod, name)] == []


@pytest.mark.parametrize("module, function, parameter", RETIRED_PARAMETERS)
def test_retired_parameters_are_gone(module, function, parameter):
    fn = getattr(importlib.import_module(module), function)
    assert parameter not in inspect.signature(fn).parameters
