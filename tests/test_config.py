"""Key-value parsing and campaign configuration loading."""

import re

import pytest

from lbandsm import config, kvconfig, pipeline, synth, validation
from lbandsm.config import load_campaign
from lbandsm.errors import ConfigError
from lbandsm.preprocess import Statistic


# ----------------------------------------------------------------------
# Key-value format
# ----------------------------------------------------------------------

def test_parse_kv_basics():
    kv = kvconfig.parse_kv_text(
        "# comment\n"
        "a = 1\n"
        "\n"
        "section.x = hello world\n"
        "section.y = 2.5\n"
        "list = a, b , c\n")
    assert kv.get_int("a") == 1
    assert kv.raw("section.x") == "hello world"
    assert kv.get_list("list") == ["a", "b", "c"]
    sub = kv.section("section")
    assert sub.get_float("y") == 2.5
    assert "x" in sub.keys()


def test_parse_kv_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        kvconfig.parse_kv_text("a = 1\na = 2\n")


def test_parse_kv_bad_line():
    with pytest.raises(ConfigError, match=":2:"):
        kvconfig.parse_kv_text("a = 1\nnot a pair\n")


def test_parse_kv_empty_key():
    with pytest.raises(ConfigError, match=re.escape("f.cfg:2: empty key")):
        kvconfig.parse_kv_text("a = 1\n = 2\n", source="f.cfg")


def test_parse_kv_typed_errors():
    kv = kvconfig.parse_kv_text("a = x\n")
    with pytest.raises(ConfigError, match="not a number"):
        kv.get_float("a")
    with pytest.raises(ConfigError, match="missing required"):
        kv.require("b")


def test_campaign_docstring_example_keeps_comments_on_their_own_lines():
    """A `#` after a value is part of the value."""
    example = "\n".join(line for line in config.__doc__.splitlines() if line.startswith("    "))
    kv = kvconfig.parse_kv_text(example)
    assert kv.get_enum("statistic", Statistic) == Statistic.MEDIAN
    assert not [key for key in kv.keys() if "#" in kv.raw(key)]


def test_group_names_in_file_order():
    kv = kvconfig.parse_kv_text(
        "site.beta.x = 1\nsite.alpha.x = 2\nsite.beta.y = 3\n")
    assert kv.group_names("site") == ["beta", "alpha"]


def test_get_floats_list():
    kv = kvconfig.parse_kv_text("p = 0.0, -0.3215, 1.9134\nq = 1 2 3\n")
    assert kv.get_floats("p") == [0.0, -0.3215, 1.9134]
    assert kv.get_floats("q") == [1.0, 2.0, 3.0]


def test_typed_lookups_name_source_key_and_value():
    kv = kvconfig.parse_kv_text("n = 1.5\np = 1, x\ns = Mode\n", source="f.cfg")
    for lookup, message in [
            (lambda: kv.get_int("n"), "f.cfg: key 'n' is not an integer: '1.5'"),
            (lambda: kv.get_floats("p"), "f.cfg: key 'p' is not a number list: '1, x'"),
            (lambda: kv.get_enum("s", Statistic),
             "f.cfg: s must be one of median, mean, p25, p75, got 'Mode'"),
            (lambda: kv.get_enum("t", Statistic), "f.cfg: missing required key 't'")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            lookup()
    assert kv.get_int("m", 7) == 7 and kv.get_floats("q") == []
    assert kv.get_enum("t", Statistic, Statistic.MEAN) == Statistic.MEAN


# ----------------------------------------------------------------------
# Campaign loading
# ----------------------------------------------------------------------

def test_load_synthetic_campaign(campaign_config):
    cfg = campaign_config
    assert {s.name for s in cfg.sites} == {"bare", "grass"}
    for site in cfg.sites:
        assert [p.name for p in site.presets] == \
            ["DCA0", "DCA1", "DCA2", "RDCA", "SCAH", "SCAV"]
    assert cfg.statistic == Statistic.MEDIAN
    assert cfg.calibration.gain_h == 100.0
    grass = next(s for s in cfg.sites if s.name == "grass")
    assert grass.surface.land_cover == "grassland"
    assert grass.reflectance_path is not None
    assert len(grass.session_paths) == 5
    bare = next(s for s in cfg.sites if s.name == "bare")
    assert bare.reflectance_path is None


def _write_config(tmp_path, text):
    path = tmp_path / "campaign.cfg"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL_SITE = (
    "site.a.land_cover = bare_soil\n"
    "site.a.clay_fraction = 0.2\n"
)


def test_missing_session_file_fails_fast(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE +
                         "site.a.sessions = nope.csv\n")
    with pytest.raises(ConfigError, match="nope.csv"):
        load_campaign(path)


def test_empty_session_pattern_fails(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE +
                         "site.a.sessions = sessions/*.csv\n")
    with pytest.raises(ConfigError, match="matched nothing"):
        load_campaign(path)


def test_vegetated_site_requires_reflectance_for_ndvi_presets(tmp_path):
    base = ("presets = SCAV\n"
            "site.g.land_cover = grassland\n"
            "site.g.clay_fraction = 0.13\n")
    path = _write_config(tmp_path, base)
    with pytest.raises(ConfigError, match="reflectance"):
        load_campaign(path)
    # dual-channel-only selection is fine without reflectance
    path = _write_config(tmp_path, base.replace("SCAV", "DCA0"))
    report = pipeline.run_pipeline(load_campaign(path), output_dir=tmp_path / "out")
    assert report.warnings == ["site g: no session files configured"]


def test_unknown_preset_in_campaign(tmp_path):
    path = _write_config(tmp_path, "presets = NOPE\n" + MINIMAL_SITE)
    with pytest.raises(ConfigError, match="unknown preset"):
        load_campaign(path)


@pytest.mark.parametrize("presets", ["SCAV, DCA0, SCAV", "SCAV, SCAV.cfg"])
def test_preset_selected_twice(tmp_path, presets):
    """Presets are named by their file stem: a second SCAV, shipped or a
    user file, would give every SCAV row twice."""
    _write_preset(tmp_path, "SCAV.cfg", "kind = SCAV\nh = 0.1\nomega = 0.0\n")
    path = _write_config(tmp_path, f"presets = {presets}\n" + MINIMAL_SITE)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: preset 'SCAV' selected twice")):
        load_campaign(path)


def _write_preset(tmp_path, name, text):
    path = tmp_path / name
    path.write_text("t_e_source = constant\ndielectric = topp\n" + text, encoding="utf-8")
    return path


def test_preset_without_value_for_site_cover_fails_at_load(tmp_path):
    preset = _write_preset(tmp_path, "MY.cfg", "kind = DCA1\nh.grassland = 0.1\nomega = 0.0\n")
    path = _write_config(tmp_path, "presets = DCA1, MY.cfg\n" + MINIMAL_SITE)
    message = f"{preset}: no h for land cover 'bare_soil'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)


def test_user_dca0_preset_with_roughness_fails_at_load(tmp_path):
    preset = _write_preset(tmp_path, "ZERO.cfg", "kind = DCA0\nh = 0.1\nomega = 0.0\n")
    path = _write_config(tmp_path, "presets = ZERO.cfg\n" + MINIMAL_SITE)
    with pytest.raises(ConfigError,
                       match=re.escape(f"{preset}: land cover 'bare_soil': DCA0 sets h")):
        load_campaign(path)


def test_presets_resolved_per_site_cover(tmp_path):
    _write_preset(tmp_path, "MY.cfg", "kind = DCA1\nh.bare_soil = 0.1\nh.grassland = 0.2\n"
                  "omega = 0.0\n")
    path = _write_config(tmp_path, "presets = MY.cfg, DCA0\n" + MINIMAL_SITE +
                         "site.g.land_cover = grassland\nsite.g.clay_fraction = 0.1\n")
    a, g = load_campaign(path).sites
    assert [(p.name, p.h) for p in a.presets] == [("DCA0", 0.0), ("MY", 0.1)]
    assert [(p.name, p.h) for p in g.presets] == [("DCA0", 0.0), ("MY", 0.2)]


@pytest.mark.parametrize("frequency", ["0.0", "30.0", "nan"])
def test_frequency_outside_dielectric_range_rejected(tmp_path, frequency):
    path = _write_config(tmp_path, f"presets = DCA0\nfrequency_ghz = {frequency}\n"
                         + MINIMAL_SITE)
    with pytest.raises(ConfigError, match="frequency_ghz"):
        load_campaign(path)


def test_unknown_statistic(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\nstatistic = mode\n" + MINIMAL_SITE)
    with pytest.raises(ConfigError, match="statistic"):
        load_campaign(path)


def test_no_sites_rejected(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n")
    with pytest.raises(ConfigError, match="no sites"):
        load_campaign(path)


def test_site_needs_clay(tmp_path):
    path = _write_config(tmp_path,
                         "presets = DCA0\nsite.a.land_cover = bare_soil\n")
    with pytest.raises(ConfigError, match="clay_fraction"):
        load_campaign(path)


BARE_SITE = "presets = DCA0\nsite.a.land_cover = bare_soil\n"
FOREST_SITE = "site.a.land_cover = forest\nsite.a.clay_fraction = 0.2\nsite.a.h = 0.1\n"


@pytest.mark.parametrize("values,message", [
    (BARE_SITE + "site.a.clay_fraction = 1.5\n", "clay_fraction must be in [0, 1], got 1.5"),
    (BARE_SITE + "site.a.clay_fraction = 0.2\nsite.a.incidence_deg = 95\n",
     "incidence_deg must be in [0, 90), got 95.0"),
    ("presets = DCA0\nsite.a.land_cover = forest\nsite.a.clay_fraction = 0.2\n",
     "land cover 'forest' has no default h; set it explicitly"),
    (BARE_SITE, "missing clay_fraction"),
    (BARE_SITE + "site.a.clay_fraction = 0.2\nsite.a.sessions = sessions/*.csv\n",
     "session pattern matched nothing: sessions/*.csv"),
    ("presets = SCAV\nsite.a.land_cover = grassland\nsite.a.clay_fraction = 0.2\n",
     "selected presets need ndvi-based opacity for 'grassland'"),
    ("presets = SCAV\n" + FOREST_SITE, "SCAV.cfg: no h for land cover 'forest'"),
    ("presets = MY.cfg\n" + FOREST_SITE, "no opacity coefficients for land cover 'forest'"),
], ids=["clay_fraction", "incidence_deg", "cover_without_h", "no_clay_fraction",
        "empty_session_pattern", "no_reflectance", "preset_without_cover",
        "no_opacity_coefficients"])
def test_site_value_out_of_range_names_file_and_site(tmp_path, values, message):
    _write_preset(tmp_path, "MY.cfg", "kind = SCAV\nh = 0.1\nomega = 0.05\n")
    path = _write_config(tmp_path, values)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: site a: {message}")):
        load_campaign(path)


@pytest.mark.parametrize("key,value,message", [
    ("h", "nan", "h must be >= 0, got nan"),
    ("h", "inf", "h must be finite and >= 0, got inf"),
    ("omega", "1.5", "omega must be in [0, 1), got 1.5"),
])
def test_preset_value_out_of_range_fails_at_load(tmp_path, key, value, message):
    values = {"h": "0.1", "omega": "0.0", key: value}
    preset = _write_preset(tmp_path, "MY.cfg", "kind = DCA1\n"
                           + "".join(f"{k} = {v}\n" for k, v in values.items()))
    path = _write_config(tmp_path, "presets = DCA0, MY.cfg\n" + MINIMAL_SITE)
    message = f"{path}: site a: {preset}: land cover 'bare_soil': {message}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)


def test_site_albedo_is_an_unknown_key(tmp_path):
    """A site's roughness sets its screening floor; the albedo there
    multiplies a zero canopy term, so a campaign does not read it."""
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE + "site.a.h = 0.2\n")
    assert load_campaign(path).sites[0].surface.h == 0.2
    path = _write_config(tmp_path, path.read_text() + "site.a.omega = 0.05\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key 'site.a.omega'")):
        load_campaign(path)


def test_reflectance_file_needs_opacity_coefficients_for_its_cover(tmp_path):
    """A site's reflectance file becomes opacity whatever the presets, so
    a cover without coefficients is a site error at load, not a fault in
    the middle of the run."""
    (tmp_path / "refl.csv").write_text("date,red,nir\n2023-11-11,0.08,0.22\n"
                                       "2023-11-20,0.07,0.27\n", encoding="utf-8")
    path = _write_config(tmp_path, "presets = DCA1, DCA2\n" + FOREST_SITE
                         + "site.a.reflectance = refl.csv\n")
    message = f"{path}: site a: no opacity coefficients for land cover 'forest'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)
    # without the reflectance file the dual-channel presets need no opacity
    path = _write_config(tmp_path, "presets = DCA1, DCA2\n" + FOREST_SITE)
    assert load_campaign(path).sites[0].reflectance_path is None


@pytest.mark.parametrize("values,message", [
    ("calibration.gain_h = 0\n", "calibration gains must be nonzero"),
    ("calibration.gain_h = nan\n", "calibration gain_h must be finite, got nan"),
    ("calibration.offset_v = inf\n", "calibration offset_v must be finite, got inf"),
    ("calibration.gain_v = -inf\n", "calibration gain_v must be finite, got -inf"),
], ids=["gain_h_zero", "gain_h_nan", "offset_v_inf", "gain_v_-inf"])
def test_calibration_value_out_of_range_names_file(tmp_path, values, message):
    path = _write_config(tmp_path, "presets = DCA0\n" + values + MINIMAL_SITE)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_campaign(path)


@pytest.mark.parametrize("text,message", [
    ("presets =\n", "no presets selected"),
    ("presets = DCA0\nskip_leading = -1\n", "skip_leading must be >= 0"),
], ids=["no_presets", "negative_skip_leading"])
def test_campaign_value_faults_name_file(tmp_path, text, message):
    path = _write_config(tmp_path, text + MINIMAL_SITE)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_campaign(path)


def test_opacity_table_fault_names_table_file(tmp_path):
    """A campaign's opacity table is checked whole at load: a NaN b would
    otherwise turn every grass retrieval into a warning row."""
    table = tmp_path / "tau.cfg"
    table.write_text("grassland.b = nan\ngrassland.vwc_poly = 0.0 1.0\n")
    path = _write_config(tmp_path, "presets = DCA0\ntau_coefficients = tau.cfg\n" + MINIMAL_SITE)
    message = f"{table}: land cover 'grassland': b parameter must be finite and >= 0, got nan"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)


@pytest.mark.parametrize("window", ["-5", "nan", "inf", "-inf"])
def test_align_window_must_be_finite_and_not_negative(tmp_path, window):
    path = _write_config(tmp_path, f"presets = DCA0\nalign_window_s = {window}\n"
                         + MINIMAL_SITE)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: align_window_s must be")):
        load_campaign(path)


def test_align_window_default_and_zero(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE)
    assert load_campaign(path).align_window_s == validation.ALIGN_WINDOW_S == 1800.0
    path = _write_config(tmp_path, "presets = DCA0\nalign_window_s = 0\n" + MINIMAL_SITE)
    assert load_campaign(path).align_window_s == 0.0


def test_calibration_only_when_configured(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE)
    assert load_campaign(path).calibration is None
    path = _write_config(tmp_path, "presets = DCA0\ncalibration.gain_h = 2.0\n" + MINIMAL_SITE)
    calibration = load_campaign(path).calibration
    assert (calibration.gain_h, calibration.gain_v, calibration.offset_h,
            calibration.offset_v) == (2.0, 1.0, 0.0, 0.0)


def _synth_campaign(tmp_path, n_days=2):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=n_days, n_samples=30)
    return root, root / "campaign.cfg"


@pytest.mark.parametrize("key,typo", [
    ("calibration.gain_h", "calibration.gain_hh"),
    ("site.grass.reference", "site.grass.refernce"),
])
def test_misspelled_campaign_key_is_unknown(tmp_path, key, typo):
    """A key that the campaign does not read would otherwise be ignored:
    gain_h would fall back to 1 and grass would lose its reference."""
    _, path = _synth_campaign(tmp_path)
    text = path.read_text()
    assert text.count(f"\n{key} = ") == 1
    path.write_text(text.replace(f"\n{key} = ", f"\n{typo} = "))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key {typo!r}")):
        load_campaign(path)


def test_statistic_matches_any_case_and_names_its_values(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\nstatistic = P75\n" + MINIMAL_SITE)
    assert load_campaign(path).statistic == Statistic.P75
    path = _write_config(tmp_path, "presets = DCA0\nstatistic = mode\n" + MINIMAL_SITE)
    message = f"{path}: statistic must be one of median, mean, p25, p75, got 'mode'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)


def test_session_file_listed_twice(tmp_path):
    root, path = _synth_campaign(tmp_path, n_days=3)
    text = path.read_text()
    path.write_text(text.replace(
        "site.grass.sessions = sessions/grass_*.csv",
        "site.grass.sessions = sessions/grass_*.csv, sessions/grass_2023-11-11.csv"))
    twice = root / "sessions" / "grass_2023-11-11.csv"
    message = f"{path}: site grass: session file listed twice: {twice}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign(path)
    # the same file spelt another way is still the same file
    path.write_text(text.replace(
        "site.grass.sessions = sessions/grass_*.csv",
        "site.grass.sessions = sessions/../sessions/grass_2023-11-12.csv, sessions/grass_*.csv"))
    with pytest.raises(ConfigError, match="session file listed twice: .*grass_2023-11-12.csv"):
        load_campaign(path)


def test_preset_file_still_ignores_retired_keys(tmp_path):
    """Only campaign files reject keys they do not read."""
    _write_preset(tmp_path, "OLD.cfg", "kind = DCA0\nh = 0.0\nomega = 0.0\n"
                  "tau_source = retrieved\npolarization = dual\n")
    path = _write_config(tmp_path, "presets = OLD.cfg\n" + MINIMAL_SITE)
    assert [algo.name for algo in load_campaign(path).sites[0].presets] == ["OLD"]
