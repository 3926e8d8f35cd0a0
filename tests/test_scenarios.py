"""Config parsing, field builders, claim-check gating, and the run catalog."""

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nlsdamp import (
    BlowupReport,
    ConfigurationError,
    DampingProfile,
    DampingSpec,
    Grid,
    InitialSpec,
    ScenarioConfig,
    SimConfig,
    StopReason,
    build_damping,
    build_initial,
    catalog,
    compute_row,
    ensure_ground_state,
    norms,
    run_scenario,
)
from nlsdamp.diagnostics import DiagnosticsRow, csv_header
from nlsdamp.evolution import EvolutionState
from nlsdamp.scenarios import (
    STATUS_FAIL,
    STATUS_INCONCLUSIVE,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    _SCENARIO_KEYS,
    _SUITE_KEYS,
    apply_suite_overrides,
    check_blowup_time_bound,
    check_concentration,
    check_global_existence,
    parse_config_text,
    parse_suite_config_text,
    scenario_config_from_dict,
)

TOL = {
    "damping_gradient": 1e-8,
    "initial_mass": 1e-10,
    "boosted_momentum": 1e-10,
    "outer_fraction": 1e-8,
}

# Every flat config key, the field it sets, and a value that differs from
# both the default and every catalog entry's value.
FLAT_KEYS = {
    "id": ("scenario_id", "roundtrip"),
    "dim": ("dim", 2),
    "n": ("n", 64),
    "box": ("box", 12.5),
    "initial_data": ("initial.kind", "gaussian"),
    "initial_scale": ("initial.scale", 0.75),
    "initial_amplitude": ("initial.amplitude", 1.5),
    "initial_width": ("initial.width", 2.5),
    "initial_velocity": ("initial.velocity", 0.25),
    "damping": ("damping.kind", "cosine"),
    "damping_amplitude": ("damping.amplitude", 0.5),
    "damping_sigma": ("damping.sigma", 3.0),
    "damping_wavelength": ("damping.wavelength", 5.0),
    "dt0": ("sim.dt0", 2e-3),
    "t_end": ("sim.t_end", 3.0),
    "adapt_const": ("sim.adapt_const", 2e-2),
    "dt_min": ("sim.dt_min", 1e-8),
    "tail_threshold": ("sim.tail_threshold", 1e-3),
    "record_every": ("sim.record_every", 7),
    "blowup_grad_ratio": ("sim.blowup_grad_ratio", 5.0),
    "outputs": ("outputs", "elsewhere"),
    "gs_tol": ("gs_tol", 1e-9),
    "conc_pass_threshold": ("conc_pass_threshold", 0.8),
    "conc_decade": ("conc_decade", 20.0),
}
SUITE_KEYS = {"n", "box", "dt0", "t_end", "adapt_const", "dt_min", "tail_threshold",
              "record_every", "blowup_grad_ratio", "outputs", "gs_tol",
              "conc_pass_threshold", "conc_decade"}


def _field(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


CATALOG_IDS = [
    "global_bump_0p5",
    "global_bump_0p9",
    "global_bump_1p0",
    "soliton_free",
    "collapse_free_1p2",
    "bound_negative_0p9",
    "bound_negative_0p99",
    "decay_constant",
]


def _report(blew_up=False, t_detect=1.0, peak_grad_sq=1.0,
            stop=StopReason.HORIZON_REACHED, terminal_mass_sq=1.0):
    return BlowupReport(
        blew_up=blew_up, t_detect=t_detect, peak_grad_sq=peak_grad_sq,
        scale_at_detect=1.0, stop_reason=stop, terminal_mass_sq=terminal_mass_sq,
    )


def _row(time, mass_sq, grad_sq=1.0, window_radius=1.0, concentration_mass=0.0):
    return DiagnosticsRow(
        time=time, mass_sq=mass_sq, energy=0.0, momentum=(0.0,),
        grad_sq=grad_sq, lp_power=0.0, h_value=0.0, int_a_u2=0.0,
        int_a_grad2=0.0, int_a_lp=0.0, re_grad_a_term=0.0, int_a_im_grad=(0.0,),
        dt_used=0.0, tail_fraction=0.0, concentration_mass=concentration_mass,
        window_radius=window_radius,
    )


def _cfg(damping, initial=None, **kwargs):
    return ScenarioConfig(
        scenario_id="synthetic",
        dim=1,
        n=512,
        box=20.0,
        initial=initial or InitialSpec("scaled_ground_state", scale=0.9),
        damping=damping,
        sim=SimConfig(),
        **kwargs,
    )


# --- configuration parsing ---------------------------------------------------

def test_parse_config_text_basics():
    text = """
    # a comment
    id = demo
    dim = 1
    n = 256

    t_end = 2.5
    damping = constant
    """
    data = parse_config_text(text)
    assert data == {"id": "demo", "dim": 1, "n": 256, "t_end": 2.5,
                    "damping": "constant"}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("dim = 1\nnot a pair\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text("bogus = 3\n")
    with pytest.raises(ConfigurationError, match="bad value"):
        parse_config_text("dim = large\n")
    with pytest.raises(ConfigurationError, match="line 3: key 'dim' repeats line 1"):
        parse_config_text("dim = 1\nn = 64\ndim = 2\n")


def test_suite_keys_exclude_identity():
    data = parse_suite_config_text("t_end = 1.0\n")
    assert data == {"t_end": 1.0}
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_suite_config_text("id = nope\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_suite_config_text("initial_scale = 2.0\n")


def test_scenario_config_from_dict_defaults_and_leftovers():
    cfg = scenario_config_from_dict({"dim": 1, "initial_scale": 1.2}, default_id="fallback")
    assert cfg.scenario_id == "fallback"
    assert cfg.initial.scale == 1.2
    assert cfg.sim.dt0 == 1e-3
    with pytest.raises(ConfigurationError, match="unused"):
        scenario_config_from_dict({"dim": 1, "mystery": 2})


def test_schema_round_trips_every_key():
    assert list(_SCENARIO_KEYS) == list(FLAT_KEYS)
    assert set(_SUITE_KEYS) == SUITE_KEYS
    text = "".join(f"{key} = {value}\n" for key, (_, value) in FLAT_KEYS.items())
    cfg = scenario_config_from_dict(parse_config_text(text))
    default = scenario_config_from_dict({}, default_id="default")
    for key, (path, value) in FLAT_KEYS.items():
        assert _field(cfg, path) == value, key
        assert type(_field(cfg, path)) is type(value), key
        assert _field(default, path) != value, key


def test_readme_key_table_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \| (yes)? *\|", readme, flags=re.M)
    assert [key for key, _, _ in rows] == list(_SCENARIO_KEYS)
    assert {key for key, _, suite in rows if suite} == set(_SUITE_KEYS)
    default = scenario_config_from_dict({}, default_id="default")
    for key, shown, _ in rows:
        if shown.startswith("`"):
            assert shown == f"`{_field(default, FLAT_KEYS[key][0])}`", key


def test_spec_kind_validation():
    with pytest.raises(ConfigurationError):
        InitialSpec("vortex")
    with pytest.raises(ConfigurationError):
        DampingSpec("random_noise")
    with pytest.raises(ConfigurationError):
        DampingSpec("gaussian_bump", amplitude=1.0, sigma=0.0)
    with pytest.raises(ConfigurationError):
        DampingSpec("cosine", amplitude=1.0, wavelength=0.0)


def test_damping_spec_properties():
    assert DampingSpec("zero").sup_norm == 0.0
    assert DampingSpec("negative_bump", amplitude=1.0).sup_norm == 1.0
    assert DampingSpec("gaussian_bump", amplitude=2.0).pointwise_positive
    assert DampingSpec("constant", amplitude=0.5).pointwise_positive
    assert not DampingSpec("constant", amplitude=-0.5).pointwise_positive
    assert not DampingSpec("negative_bump", amplitude=1.0).pointwise_positive
    assert not DampingSpec("cosine", amplitude=1.0).pointwise_positive
    assert not DampingSpec("zero").pointwise_positive


# --- field builders ----------------------------------------------------------

def test_build_damping_kinds_and_gradients():
    grid = Grid(1, 256, 20.0)
    for spec in (
        DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
        DampingSpec("negative_bump", amplitude=1.0, sigma=2.0),
        DampingSpec("cosine", amplitude=0.7, wavelength=10.0),
    ):
        prof = build_damping(grid, spec)
        assert prof.sup_norm == pytest.approx(spec.sup_norm, rel=1e-12)
        spectral = np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(prof.values))
        err = np.max(np.abs(spectral.real - prof.gradient_values[0]))
        assert err < TOL["damping_gradient"]
    neg = build_damping(grid, DampingSpec("negative_bump", amplitude=1.0, sigma=2.0))
    assert float(np.min(neg.values)) == pytest.approx(-1.0, abs=1e-14)
    zero = build_damping(grid, DampingSpec("zero"))
    assert zero.sup_norm == 0.0
    const = build_damping(grid, DampingSpec("constant", amplitude=0.3))
    assert np.all(const.values == 0.3)


def test_build_initial_gaussian_mass():
    grid = Grid(1, 256, 20.0)
    spec = InitialSpec("gaussian", amplitude=1.3, width=1.5)
    u0 = build_initial(grid, spec, None)
    expected = 1.3**2 * 1.5 * math.sqrt(math.pi)
    assert norms(u0).mass_sq == pytest.approx(expected, rel=TOL["initial_mass"])


def test_build_initial_scaled_and_boosted(gs_1d):
    grid = gs_1d.grid
    scaled = build_initial(grid, InitialSpec("scaled_ground_state", scale=0.7), gs_1d)
    assert norms(scaled).mass_sq == pytest.approx(0.49 * gs_1d.mass_sq, rel=1e-12)
    v = grid.wavenumbers[8]
    boosted = build_initial(
        grid, InitialSpec("boosted_ground_state", scale=1.0, velocity=v), gs_1d
    )
    assert norms(boosted).mass_sq == pytest.approx(gs_1d.mass_sq, rel=1e-12)
    row = compute_row(EvolutionState(0.0, boosted), DampingProfile.zero(grid),
                      lambda _: 1.0)
    assert row.momentum[0] == pytest.approx(v * gs_1d.mass_sq,
                                            rel=TOL["boosted_momentum"])


def test_build_initial_requires_matching_ground_state(gs_1d):
    grid = Grid(1, 256, 20.0)
    with pytest.raises(ConfigurationError):
        build_initial(grid, InitialSpec("scaled_ground_state"), None)
    with pytest.raises(ConfigurationError):
        build_initial(grid, InitialSpec("scaled_ground_state"), gs_1d)


# --- ground-state cache ------------------------------------------------------

def test_ensure_ground_state_cache_roundtrip(tmp_path):
    first = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    files = list(tmp_path.glob("gs-v*.npz"))
    assert len(files) == 1
    # Tamper with the cached profile; a cache hit must surface the change.
    data = dict(np.load(files[0]))
    data["profile"] = 2.0 * data["profile"]
    np.savez(files[0], **data)
    second = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.allclose(second.profile, 2.0 * first.profile)
    fresh = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=None)
    assert np.allclose(fresh.profile, first.profile)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _wrong_shape(path):
    data = dict(np.load(path))
    data["profile"] = data["profile"][:64]
    np.savez(path, **data)


def _other_box(path):
    data = dict(np.load(path))
    data["box"] = np.float64(12.5)
    np.savez(path, **data)


@pytest.mark.parametrize("damage", [_truncate, _wrong_shape, _other_box],
                         ids=["truncated", "wrong_shape", "other_box"])
def test_ensure_ground_state_rejects_bad_cache(tmp_path, damage):
    first = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gs-v*.npz")
    damage(path)
    with pytest.warns(UserWarning, match="rejected"):
        again = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.array_equal(again.profile, first.profile)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    # The re-solve overwrote the damaged file, so the next call is a clean hit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.array_equal(hit.profile, first.profile)



def test_ensure_ground_state_cache_keeps_close_parameters_apart(tmp_path):
    near = 12.0 * (1.0 + 1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            a = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
            b = ensure_ground_state(1, 128, near, 1e-9, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("gs-v*.npz"))) == 2
    assert a.grid.half_width == 12.0 and b.grid.half_width == near

# --- claim-check gating ------------------------------------------------------

def test_check_global_existence_gating(gs_1d):
    bump = DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0)
    cfg = _cfg(bump)
    m0 = 0.81 * gs_1d.mass_sq
    rows = [_row(0.0, m0), _row(1.0, 0.9 * m0), _row(2.0, 0.8 * m0)]

    skip = check_global_existence(_report(), rows, _cfg(DampingSpec("zero")), gs_1d)
    assert skip.status == STATUS_NOT_APPLICABLE

    heavy = [_row(0.0, 1.02 * gs_1d.mass_sq)]
    above = check_global_existence(_report(), heavy, cfg, gs_1d)
    assert above.status == STATUS_NOT_APPLICABLE

    blew = check_global_existence(
        _report(blew_up=True, stop=StopReason.TAIL_UNRESOLVED), rows, cfg, gs_1d)
    assert blew.status == STATUS_FAIL

    early = check_global_existence(
        _report(stop=StopReason.TAIL_UNRESOLVED), rows, cfg, gs_1d)
    assert early.status == STATUS_INCONCLUSIVE

    good = check_global_existence(_report(peak_grad_sq=2.0), rows, cfg, gs_1d)
    assert good.status == STATUS_PASS

    wobble = [_row(0.0, m0), _row(1.0, 0.9 * m0), _row(2.0, 0.95 * m0)]
    broken = check_global_existence(_report(peak_grad_sq=2.0), wobble, cfg, gs_1d)
    assert broken.status == STATUS_FAIL
    assert "not strictly decreasing" in broken.notes


def test_check_blowup_time_bound_gating(gs_1d):
    neg = DampingSpec("negative_bump", amplitude=1.0, sigma=2.0)
    cfg = _cfg(neg)
    m0 = 0.81 * gs_1d.mass_sq
    rows = [_row(0.0, m0)]
    bound = math.log(1.0 / 0.9)

    skip = check_blowup_time_bound(_report(), rows, cfg, gs_1d)
    assert skip.status == STATUS_NOT_APPLICABLE

    heavy = [_row(0.0, gs_1d.mass_sq)]
    above = check_blowup_time_bound(_report(blew_up=True), heavy, cfg, gs_1d)
    assert above.status == STATUS_NOT_APPLICABLE

    undamped = check_blowup_time_bound(_report(blew_up=True), rows,
                                       _cfg(DampingSpec("zero")), gs_1d)
    assert undamped.status == STATUS_NOT_APPLICABLE

    ok = check_blowup_time_bound(
        _report(blew_up=True, t_detect=0.3, stop=StopReason.TAIL_UNRESOLVED,
                terminal_mass_sq=gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert ok.status == STATUS_PASS
    assert ok.bound_value == pytest.approx(bound, rel=1e-12)
    assert ok.margin == pytest.approx(0.3 - bound, rel=1e-9)

    early = check_blowup_time_bound(
        _report(blew_up=True, t_detect=0.05, terminal_mass_sq=gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert early.status == STATUS_INCONCLUSIVE

    light = check_blowup_time_bound(
        _report(blew_up=True, t_detect=0.3,
                terminal_mass_sq=0.25 * gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert light.status == STATUS_INCONCLUSIVE
    assert "below" in light.notes


def test_check_concentration_gating(gs_1d):
    cfg = _cfg(DampingSpec("zero"),
               initial=InitialSpec("scaled_ground_state", scale=1.2))
    blew = _report(blew_up=True, stop=StopReason.TAIL_UNRESOLVED)

    calm = check_concentration(_report(), [], cfg, gs_1d)
    assert calm.status == STATUS_NOT_APPLICABLE

    sparse = [_row(0.0, 1.0, grad_sq=1.0), _row(1.0, 1.0, grad_sq=1e8)]
    few = check_concentration(blew, sparse, cfg, gs_1d)
    assert few.status == STATUS_NOT_APPLICABLE
    assert "rows" in few.notes

    tiny_w = [_row(0.1 * i, 1.0, grad_sq=4.0, window_radius=0.1) for i in range(6)]
    guard = check_concentration(blew, tiny_w, cfg, gs_1d)
    assert guard.status == STATUS_NOT_APPLICABLE
    assert "window-rule guard" in guard.notes

    flat = [_row(0.1 * i, 1.0, grad_sq=4.0, window_radius=0.5) for i in range(6)]
    stalled = check_concentration(blew, flat, cfg, gs_1d)
    assert stalled.status == STATUS_NOT_APPLICABLE
    assert "no growth" in stalled.notes

    growing = [
        _row(0.1 * i, 1.0, grad_sq=4.0 * 1.5**i, window_radius=0.5,
             concentration_mass=0.95 * gs_1d.mass_sq)
        for i in range(6)
    ]
    good = check_concentration(blew, growing, cfg, gs_1d)
    assert good.status == STATUS_PASS
    assert good.observed == pytest.approx(0.95, rel=1e-12)

    weak = [
        _row(0.1 * i, 1.0, grad_sq=4.0 * 1.5**i, window_radius=0.5,
             concentration_mass=0.5 * gs_1d.mass_sq)
        for i in range(6)
    ]
    low = check_concentration(blew, weak, cfg, gs_1d)
    assert low.status == STATUS_INCONCLUSIVE


# --- scenario runner ---------------------------------------------------------

def test_run_scenario_writes_outputs(tmp_path, gs_1d):
    cfg = replace(
        _cfg(DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
             outputs=str(tmp_path / "a")),
        sim=SimConfig(dt0=1e-3, t_end=0.05, record_every=5),
    )
    result = run_scenario(cfg, gs=gs_1d)
    out = result.out_dir
    assert out is not None
    rows_text = (out / "rows.csv").read_text().splitlines()
    assert rows_text[0] == csv_header(1)
    assert len(rows_text) == 1 + len(result.rows)
    assert (out / "report.json").exists()
    assert (out / "balance.json").exists()
    assert (out / "checks.json").exists()
    assert result.report.stop_reason is StopReason.HORIZON_REACHED
    assert [c.claim for c in result.checks] == ["global_existence"]
    assert result.checks[0].status == STATUS_PASS
    assert 0.0 < result.initial_outer_mass_fraction < TOL["outer_fraction"]


def test_run_scenario_deterministic_bytes(tmp_path, gs_1d):
    def run(tag):
        cfg = replace(
            _cfg(DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
                 outputs=str(tmp_path / tag)),
            sim=SimConfig(dt0=1e-3, t_end=0.05, record_every=5),
        )
        res = run_scenario(cfg, gs=gs_1d)
        return (res.out_dir / "rows.csv").read_bytes()

    assert run("x") == run("y")


def test_run_scenario_unresolved_at_start(gs_1d):
    cfg = _cfg(
        DampingSpec("zero"),
        initial=InitialSpec("gaussian", amplitude=1.0, width=0.05),
    )
    result = run_scenario(cfg, gs=gs_1d, write_outputs=False)
    assert result.report.stop_reason is StopReason.TAIL_UNRESOLVED
    assert not result.report.blew_up
    assert len(result.rows) == 1
    assert result.checks == []
    assert result.balance is None
    assert result.out_dir is None


def test_run_scenario_boundary_flag(gs_1d):
    cfg = replace(
        _cfg(DampingSpec("zero"),
             initial=InitialSpec("gaussian", amplitude=1.0, width=6.0)),
        sim=SimConfig(dt0=1e-3, t_end=3e-3, record_every=1),
    )
    result = run_scenario(cfg, gs=gs_1d, write_outputs=False)
    assert result.report.boundary_mass_flag
    assert result.report.stop_reason is StopReason.HORIZON_REACHED


def test_run_scenario_rejects_mismatched_ground_state(gs_1d):
    cfg = ScenarioConfig(
        scenario_id="mismatch", dim=1, n=256, box=20.0,
        initial=InitialSpec("scaled_ground_state"), damping=DampingSpec("zero"),
        sim=SimConfig(),
    )
    with pytest.raises(ConfigurationError):
        run_scenario(cfg, gs=gs_1d, write_outputs=False)


# --- catalog and suite -------------------------------------------------------

def test_catalog_composition():
    entries = catalog()
    assert [c.scenario_id for c in entries] == CATALOG_IDS
    for c in entries:
        assert c.dim == 1
        assert c.n == 512
        assert c.box == 20.0
        assert c.sim.record_every == 5
        assert c.sim.dt0 == 1e-3
    by_id = {c.scenario_id: c for c in entries}
    assert by_id["global_bump_1p0"].damping.kind == "gaussian_bump"
    assert by_id["global_bump_1p0"].sim.t_end == 20.0
    assert by_id["collapse_free_1p2"].damping.kind == "zero"
    assert by_id["collapse_free_1p2"].initial.scale == 1.2
    assert by_id["bound_negative_0p99"].damping.kind == "negative_bump"
    assert by_id["decay_constant"].damping.kind == "constant"


def test_apply_suite_overrides():
    entries = apply_suite_overrides(
        catalog(), {"t_end": 1.0, "n": 256, "outputs": "elsewhere",
                    "blowup_grad_ratio": 6.0}
    )
    for c in entries:
        assert c.sim.t_end == 1.0
        assert c.n == 256
        assert c.outputs == "elsewhere"
        assert c.sim.blowup_grad_ratio == 6.0
        assert c.sim.dt0 == 1e-3
    # Every suite key reaches every entry, and nothing else changes.
    overrides = {key: FLAT_KEYS[key][1] for key in SUITE_KEYS}
    for before, after in zip(catalog(), apply_suite_overrides(catalog(), overrides)):
        for key in SUITE_KEYS:
            path, value = FLAT_KEYS[key]
            assert _field(before, path) != value, (before.scenario_id, key)
            assert _field(after, path) == value, (before.scenario_id, key)
        for path in ("scenario_id", "dim", "initial", "damping"):
            assert _field(after, path) == _field(before, path), (before.scenario_id, path)


def test_suite_results_and_summary(catalog_results):
    assert catalog_results["status"] == 0
    results = catalog_results["results"]
    assert len(results) == len(CATALOG_IDS)
    summary = (catalog_results["root"] / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + len(CATALOG_IDS)
    assert summary[0].startswith("scenario_id,stop_reason,blew_up,")
    for r in results:
        assert r.balance is not None
        assert r.balance.envelope_ok
        for check in r.checks:
            assert check.status != STATUS_FAIL


def test_suite_check_composition(catalog_results):
    by_id = catalog_results["by_id"]

    def claims(sid):
        return sorted(c.claim for c in by_id[sid].checks)

    assert claims("global_bump_0p5") == ["global_existence"]
    assert claims("global_bump_0p9") == ["global_existence"]
    assert claims("global_bump_1p0") == ["global_existence"]
    assert claims("decay_constant") == ["global_existence"]
    assert claims("soliton_free") == []
    assert claims("collapse_free_1p2") == ["concentration"]
    assert claims("bound_negative_0p9") == ["blowup_time_bound", "concentration"]
    assert claims("bound_negative_0p99") == ["blowup_time_bound", "concentration"]
