"""Config parsing, field builders, claim-check gating, and the run catalog."""

import gc
import json
import math
import re
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from reference import diagnostics_row, row_table

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
    ensure_ground_state,
    norms,
    run_scenario,
    run_suite,
)
from nlsdamp import scenarios
from nlsdamp.diagnostics import TrajectoryRecorder, csv_header
from nlsdamp.scenarios import (
    CLAIMS,
    STATUS_FAIL,
    STATUS_INCONCLUSIVE,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    _SCENARIO_KEYS,
    _SUITE_KEYS,
    apply_suite_overrides,
    check_claim,
    load_scenario_config,
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


def test_cosine_period_is_checked_at_config_load(tmp_path):
    # A cosine that does not fit the box fails as the config is read, before
    # any ground state is solved or cached.
    path = tmp_path / "cosine.cfg"
    path.write_text("box = 10.0\ndamping = cosine\ndamping_wavelength = 7\n")
    with pytest.raises(ConfigurationError, match="cosine wavelength 7 does not divide"):
        load_scenario_config(path)
    path.write_text("box = 10.0\ndamping = cosine\ndamping_wavelength = 5\n")
    assert load_scenario_config(path).damping.wavelength == 5.0


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
        err = np.max(np.abs(spectral.real - prof.gradient(0)))
        assert err < TOL["damping_gradient"]
    neg = build_damping(grid, DampingSpec("negative_bump", amplitude=1.0, sigma=2.0))
    assert float(np.min(neg.values)) == pytest.approx(-1.0, abs=1e-14)
    zero = build_damping(grid, DampingSpec("zero"))
    assert zero.sup_norm == 0.0
    const = build_damping(grid, DampingSpec("constant", amplitude=0.3))
    assert np.all(const.values == 0.3)


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64), (3, 16)])
def test_gradients_formed_per_read_match_stored_ones(dim, n):
    # A bump's ∂_j a, formed when read, is bit for bit the array -(x_j/σ²)·a
    # formed with a(x); the cosine's stored -A k sin(k x_1) and zeros are
    # checked alike. The rows' flux terms, and so rows.csv, keep their bits.
    g = Grid(dim, n, 10.0)
    for spec in (
        DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
        DampingSpec("negative_bump", amplitude=0.7, sigma=1.5),
        DampingSpec("cosine", amplitude=0.7, wavelength=5.0),
    ):
        a = build_damping(g, spec)
        if spec.kind == "cosine":
            kwave = 2.0 * math.pi / spec.wavelength
            first = -spec.amplitude * kwave * np.sin(kwave * g.coords[0])
            stored = (first,) + (np.zeros(g.shape),) * (dim - 1)
        else:
            s2 = spec.sigma * spec.sigma
            stored = tuple(-(c / s2) * a.values for c in g.coords)
        for j in range(dim):
            assert np.array_equal(a.gradient(j), stored[j]), (spec.kind, j)


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
    row = diagnostics_row(boosted, DampingProfile.zero(grid), 1.0)
    assert row["p_1"] == pytest.approx(v * gs_1d.mass_sq, rel=TOL["boosted_momentum"])


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
    # Tamper with the cached profile by a shift, which still solves the PDE;
    # a cache hit must surface the change.
    data = dict(np.load(files[0]))
    data["profile"] = np.roll(data["profile"], 1)
    np.savez(files[0], **data)
    second = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.array_equal(second.profile, np.roll(first.profile, 1))
    fresh = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=None)
    assert np.allclose(fresh.profile, first.profile)


def test_cache_hit_forms_the_numbers_of_the_solve(tmp_path):
    solved = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert hit is not solved and np.array_equal(hit.profile, solved.profile)
    for name in ("mass_sq", "grad_sq", "lp_power", "residual"):
        assert float.hex(getattr(hit, name)) == float.hex(getattr(solved, name)), name


def test_warm_suite_writes_what_the_cold_one_wrote(tmp_path):
    def files():
        paths = sorted(p for p in tmp_path.rglob("*") if p.suffix in (".csv", ".json"))
        return {p.relative_to(tmp_path): p.read_bytes() for p in paths}

    run_suite({"t_end": 0.5, "outputs": str(tmp_path)})
    cold = files()
    # Every entry of the second run is a cache hit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_suite({"t_end": 0.5, "outputs": str(tmp_path)})
    assert len(cold) == 8 * 4 + 1
    assert files() == cold


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


def _doubled(path):
    data = dict(np.load(path))
    data["profile"] = 2.0 * data["profile"]
    np.savez(path, **data)


def _version(old):
    def damage(path):
        data = dict(np.load(path))
        data["version"] = np.int64(old)
        np.savez(path, **data)
    return damage


# Cache version 2 held profiles of the unaccelerated solver, and version 3
# profiles whose Anderson Gram entries were BLAS sums.
@pytest.mark.parametrize("damage, reason",
                         [(_truncate, ""), (_wrong_shape, "profile is"), (_other_box, "solved for"),
                          (_version(2), r"version 2, expected 4"),
                          (_version(3), r"version 3, expected 4"), (_doubled, "residual")],
                         ids=["truncated", "wrong_shape", "other_box", "version_2", "version_3",
                              "doubled"])
def test_ensure_ground_state_rejects_bad_cache(tmp_path, damage, reason):
    first = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gs-v*.npz")
    damage(path)
    with pytest.warns(UserWarning, match=f"rejected \\({reason}"):
        again = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.array_equal(again.profile, first.profile)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    # The re-solve overwrote the damaged file, so the next call is a clean hit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    assert np.array_equal(hit.profile, first.profile)


def test_truncated_cache_leaves_no_file_open(tmp_path):
    ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gs-v*.npz")
    _truncate(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ensure_ground_state(1, 128, 12.0, 1e-9, cache_dir=tmp_path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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
    rows = row_table(t=[0.0, 1.0, 2.0], mass_sq=[m0, 0.9 * m0, 0.8 * m0], grad_sq=[1.0] * 3)

    skip = check_claim("global_existence", _report(), rows, _cfg(DampingSpec("zero")), gs_1d)
    assert skip.status == STATUS_NOT_APPLICABLE

    empty = row_table(t=[0.0, 1.0, 2.0], mass_sq=[0.0] * 3, grad_sq=[0.0] * 3)
    for damping in (bump, DampingSpec("constant", amplitude=0.5)):
        zero = check_claim("global_existence", _report(peak_grad_sq=0.0), empty,
                           _cfg(damping), gs_1d)
        assert zero.status == STATUS_NOT_APPLICABLE
        assert zero.notes == "initial mass is zero"

    heavy = row_table(mass_sq=[1.02 * gs_1d.mass_sq], grad_sq=[1.0])
    above = check_claim("global_existence", _report(), heavy, cfg, gs_1d)
    assert above.status == STATUS_NOT_APPLICABLE

    blew = check_claim("global_existence",
        _report(blew_up=True, stop=StopReason.TAIL_UNRESOLVED), rows, cfg, gs_1d)
    assert blew.status == STATUS_FAIL

    early = check_claim("global_existence",
        _report(stop=StopReason.TAIL_UNRESOLVED), rows, cfg, gs_1d)
    assert early.status == STATUS_INCONCLUSIVE

    good = check_claim("global_existence", _report(peak_grad_sq=2.0), rows, cfg, gs_1d)
    assert good.status == STATUS_PASS

    wobble = row_table(t=[0.0, 1.0, 2.0], mass_sq=[m0, 0.9 * m0, 0.95 * m0], grad_sq=[1.0] * 3)
    broken = check_claim("global_existence", _report(peak_grad_sq=2.0), wobble, cfg, gs_1d)
    assert broken.status == STATUS_FAIL
    assert "not strictly decreasing" in broken.notes

    # A mass that underflows to zero may stay there; a flat or rising step fails.
    t4 = [0.0, 1.0, 2.0, 3.0]
    for masses, status in (([1.0, 0.5, 0.0, 0.0], STATUS_PASS),
                           ([1.0, 1.0, 0.5], STATUS_FAIL),
                           ([1.0, 0.0, 0.5], STATUS_FAIL)):
        table = row_table(t=t4[:len(masses)], mass_sq=masses, grad_sq=[1.0] * len(masses))
        check = check_claim("global_existence", _report(peak_grad_sq=2.0), table, cfg, gs_1d)
        assert check.status == status, masses


def test_check_blowup_time_bound_gating(gs_1d):
    neg = DampingSpec("negative_bump", amplitude=1.0, sigma=2.0)
    cfg = _cfg(neg)
    m0 = 0.81 * gs_1d.mass_sq
    rows = row_table(mass_sq=[m0], grad_sq=[1.0])
    bound = math.log(1.0 / 0.9)

    skip = check_claim("blowup_time_bound", _report(), rows, cfg, gs_1d)
    assert skip.status == STATUS_NOT_APPLICABLE

    heavy = row_table(mass_sq=[gs_1d.mass_sq], grad_sq=[1.0])
    above = check_claim("blowup_time_bound", _report(blew_up=True), heavy, cfg, gs_1d)
    assert above.status == STATUS_NOT_APPLICABLE

    undamped = check_claim("blowup_time_bound", _report(blew_up=True), rows,
                           _cfg(DampingSpec("zero")), gs_1d)
    assert undamped.status == STATUS_NOT_APPLICABLE

    ok = check_claim("blowup_time_bound",
        _report(blew_up=True, t_detect=0.3, stop=StopReason.TAIL_UNRESOLVED,
                terminal_mass_sq=gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert ok.status == STATUS_PASS
    assert ok.bound_value == pytest.approx(bound, rel=1e-12)
    assert ok.margin == pytest.approx(0.3 - bound, rel=1e-9)

    early = check_claim("blowup_time_bound",
        _report(blew_up=True, t_detect=0.05, terminal_mass_sq=gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert early.status == STATUS_INCONCLUSIVE

    light = check_claim("blowup_time_bound",
        _report(blew_up=True, t_detect=0.3,
                terminal_mass_sq=0.25 * gs_1d.mass_sq),
        rows, cfg, gs_1d)
    assert light.status == STATUS_INCONCLUSIVE
    assert "below" in light.notes


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_every_claim_skips_an_undamped_run_without_blowup(claim, catalog_results, gs_1d):
    result = catalog_results["by_id"]["soliton_free"]
    assert result.config.damping.kind == "zero"
    assert not result.report.blew_up
    check = check_claim(claim, result.report, result.rows, result.config, gs_1d)
    assert check.status == STATUS_NOT_APPLICABLE
    assert check.notes


def test_check_concentration_gating(gs_1d):
    cfg = _cfg(DampingSpec("zero"),
               initial=InitialSpec("scaled_ground_state", scale=1.2))
    blew = _report(blew_up=True, stop=StopReason.TAIL_UNRESOLVED)

    calm = check_claim("concentration", _report(), row_table(), cfg, gs_1d)
    assert calm.status == STATUS_NOT_APPLICABLE

    def rows(grad_sq, window_w, conc_mass=0.0):
        k = len(grad_sq)
        return row_table(t=[0.1 * i for i in range(k)], mass_sq=[1.0] * k, grad_sq=grad_sq,
                         window_w=[window_w] * k, conc_mass=[conc_mass] * k)

    sparse = rows([1.0, 1e8], 1.0)
    few = check_claim("concentration", blew, sparse, cfg, gs_1d)
    assert few.status == STATUS_NOT_APPLICABLE
    assert "rows" in few.notes

    tiny_w = rows([4.0] * 6, 0.1)
    guard = check_claim("concentration", blew, tiny_w, cfg, gs_1d)
    assert guard.status == STATUS_NOT_APPLICABLE
    assert "window-rule guard" in guard.notes

    flat = rows([4.0] * 6, 0.5)
    stalled = check_claim("concentration", blew, flat, cfg, gs_1d)
    assert stalled.status == STATUS_NOT_APPLICABLE
    assert "no growth" in stalled.notes

    growth = [4.0 * 1.5**i for i in range(6)]
    growing = rows(growth, 0.5, 0.95 * gs_1d.mass_sq)
    good = check_claim("concentration", blew, growing, cfg, gs_1d)
    assert good.status == STATUS_PASS
    assert good.observed == pytest.approx(0.95, rel=1e-12)

    weak = rows(growth, 0.5, 0.5 * gs_1d.mass_sq)
    low = check_claim("concentration", blew, weak, cfg, gs_1d)
    assert low.status == STATUS_INCONCLUSIVE

    # A NaN ‖∇u‖² falls out of the final decade (NaN >= x is false), and the
    # largest gradient is taken over the other rows; a NaN in the first row
    # makes that maximum NaN, so no row is in the final decade.
    gap = rows(growth[:3] + [math.nan] + growth[3:], 0.5, 0.95 * gs_1d.mass_sq)
    holed = check_claim("concentration", blew, gap, cfg, gs_1d)
    assert (holed.status, holed.observed) == (good.status, good.observed)
    lead = rows([math.nan] + growth, 0.5, 0.95 * gs_1d.mass_sq)
    headless = check_claim("concentration", blew, lead, cfg, gs_1d)
    assert headless.status == STATUS_NOT_APPLICABLE
    assert headless.notes == "only 0 rows in the final decade of gradient growth"


# --- scenario runner ---------------------------------------------------------

def test_run_scenario_writes_outputs(tmp_path):
    cfg = replace(
        _cfg(DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
             outputs=str(tmp_path / "a")),
        sim=SimConfig(dt0=1e-3, t_end=0.05, record_every=5),
    )
    result = run_scenario(cfg)
    out = result.out_dir
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


def test_run_scenario_deterministic_bytes(tmp_path):
    def run(tag):
        cfg = replace(
            _cfg(DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
                 outputs=str(tmp_path / tag)),
            sim=SimConfig(dt0=1e-3, t_end=0.05, record_every=5),
        )
        res = run_scenario(cfg)
        return (res.out_dir / "rows.csv").read_bytes()

    assert run("x") == run("y")


def test_run_scenario_unresolved_at_start(tmp_path):
    cfg = _cfg(
        DampingSpec("zero"),
        initial=InitialSpec("gaussian", amplitude=1.0, width=0.05),
        outputs=str(tmp_path),
    )
    result = run_scenario(cfg)
    assert result.report.stop_reason is StopReason.TAIL_UNRESOLVED
    assert not result.report.blew_up
    assert len(result.rows) == 1
    assert result.checks == []
    assert result.balance is None
    assert result.out_dir == tmp_path / "synthetic"


def test_run_scenario_boundary_flag(tmp_path):
    cfg = replace(
        _cfg(DampingSpec("zero"),
             initial=InitialSpec("gaussian", amplitude=1.0, width=6.0), outputs=str(tmp_path)),
        sim=SimConfig(dt0=1e-3, t_end=3e-3, record_every=1),
    )
    result = run_scenario(cfg)
    assert result.report.boundary_mass_flag
    assert result.report.stop_reason is StopReason.HORIZON_REACHED


def test_run_scenario_frees_the_initial_datum(tmp_path, monkeypatch):
    # evolve reads u0 once, into its own spectrum; no caller keeps it, so the
    # field and its array are both gone by the first row.
    refs, dead = [], []

    def build(*args):
        u0 = build_initial(*args)
        refs.extend([weakref.ref(u0), weakref.ref(u0.values)])
        return u0

    class Recorder(TrajectoryRecorder):
        def __call__(self, *args):
            if not dead:
                dead.append(tuple(ref() is None for ref in refs))
            super().__call__(*args)

    monkeypatch.setattr(scenarios, "build_initial", build)
    monkeypatch.setattr(scenarios, "TrajectoryRecorder", Recorder)
    cfg = replace(
        _cfg(DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0), outputs=str(tmp_path)),
        sim=SimConfig(dt0=1e-3, t_end=0.01, record_every=5),
    )
    assert len(run_scenario(cfg).rows) == 3
    assert dead == [(True, True)]


def test_cold_run_holds_each_grid_array_once(tmp_path):
    # A cold 32³ run makes one grid, the ground state's, builds the damping
    # after the solve and no gradient array, and sums |k|² from the grid's
    # norm weight, and frees the initial datum after its first transform: its
    # traced peak is 9.6 to 10.0 complex grid arrays, as numpy has more or
    # less of its own state cached. Holding the datum for the whole run made
    # it 10.1 to 10.9; two grids, the damping built first, a stacked copy of
    # |k|² and three stored gradients made it 12.6 to 13.4.
    cfg = ScenarioConfig(
        scenario_id="cold", dim=3, n=32, box=6.0,
        initial=InitialSpec("scaled_ground_state", scale=0.9),
        damping=DampingSpec("gaussian_bump", amplitude=1.0, sigma=2.0),
        sim=SimConfig(t_end=0.01, record_every=20), outputs=str(tmp_path),
    )
    results = []
    peak = traced_peak(lambda: results.append(run_scenario(cfg)))
    print(f"cold run peak {peak / (16 * 32**3):.2f} complex grid arrays")
    assert results[0].report.stop_reason is StopReason.HORIZON_REACHED
    assert len(results[0].rows) == 5
    assert peak <= 11.5 * 16 * 32**3


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


def test_output_schemas(catalog_results):
    # The JSON files follow the dataclass fields, so a reordered field would
    # reorder a file; these are the key lists the outputs have always had.
    out = catalog_results["root"] / "bound_negative_0p9"
    report = json.loads((out / "report.json").read_text())
    assert list(report) == [
        "scenario_id", "dim", "n", "box", "initial_data", "damping",
        "blew_up", "t_detect", "peak_grad_sq", "scale_at_detect", "stop_reason",
        "terminal_mass_sq", "boundary_mass_flag", "initial_outer_mass_fraction",
    ]
    balance = json.loads((out / "balance.json").read_text())
    assert list(balance) == [
        "mass_residual", "energy_residual", "momentum_residual",
        "envelope_ok", "max_envelope_violation",
    ]
    checks = json.loads((out / "checks.json").read_text())
    assert len(checks) == 2
    for entry in checks:
        assert list(entry) == [
            "scenario_id", "claim", "status", "bound_value", "observed", "margin", "notes",
        ]
    summary = (catalog_results["root"] / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "scenario_id,stop_reason,blew_up,t_detect,peak_grad_sq,"
        "mass_residual,energy_residual,momentum_residual,envelope_ok,checks"
    )
    for line, r in zip(summary[1:], catalog_results["results"]):
        assert line.rsplit(",", 1)[1] == r.check_summary
