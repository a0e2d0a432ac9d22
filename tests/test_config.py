"""Key-value parsing and campaign configuration loading."""

import pytest

from lbandsm import kvconfig
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
    assert kv.get_str("section.x") == "hello world"
    assert kv.get_list("list") == ["a", "b", "c"]
    sub = kv.section("section")
    assert sub.get_float("y") == 2.5
    assert "x" in sub


def test_parse_kv_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        kvconfig.parse_kv_text("a = 1\na = 2\n")


def test_parse_kv_bad_line():
    with pytest.raises(ConfigError, match=":2:"):
        kvconfig.parse_kv_text("a = 1\nnot a pair\n")


def test_parse_kv_typed_errors():
    kv = kvconfig.parse_kv_text("a = x\n")
    with pytest.raises(ConfigError, match="not a number"):
        kv.get_float("a")
    with pytest.raises(ConfigError, match="missing required"):
        kv.require("b")


def test_group_names_in_file_order():
    kv = kvconfig.parse_kv_text(
        "site.beta.x = 1\nsite.alpha.x = 2\nsite.beta.y = 3\n")
    assert kv.group_names("site") == ["beta", "alpha"]


def test_get_floats_list():
    kv = kvconfig.parse_kv_text("p = 0.0, -0.3215, 1.9134\nq = 1 2 3\n")
    assert kv.get_floats("p") == [0.0, -0.3215, 1.9134]
    assert kv.get_floats("q") == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# Campaign loading
# ----------------------------------------------------------------------

def test_load_synthetic_campaign(campaign_config):
    cfg = campaign_config
    assert {s.name for s in cfg.sites} == {"bare", "grass"}
    assert [p.name for p in cfg.presets] == \
        ["SCAV", "SCAH", "RDCA", "DCA0", "DCA1", "DCA2"]
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
    cfg = load_campaign(path)
    assert cfg.warnings  # no sessions configured


def test_unknown_preset_in_campaign(tmp_path):
    path = _write_config(tmp_path, "presets = NOPE\n" + MINIMAL_SITE)
    with pytest.raises(ConfigError, match="unknown preset"):
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


def test_calibration_only_when_configured(tmp_path):
    path = _write_config(tmp_path, "presets = DCA0\n" + MINIMAL_SITE)
    assert load_campaign(path).calibration is None
    path = _write_config(tmp_path, "presets = DCA0\ncalibration.gain_h = 2.0\n" + MINIMAL_SITE)
    calibration = load_campaign(path).calibration
    assert (calibration.gain_h, calibration.gain_v, calibration.offset_h,
            calibration.offset_v) == (2.0, 1.0, 0.0, 0.0)
