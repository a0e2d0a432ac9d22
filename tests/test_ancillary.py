"""Vegetation-index chain: NDVI, daily interpolation, opacity."""

import datetime as dt
import re

import numpy as np
import pytest

from lbandsm import ancillary as anc
from lbandsm.errors import ConfigError, DataError, DomainError


def d(day):
    return dt.date(2023, 11, 1) + dt.timedelta(days=day)


# ----------------------------------------------------------------------
# NDVI
# ----------------------------------------------------------------------

def test_ndvi_formula():
    assert anc.ndvi(0.1, 0.3) == pytest.approx(0.5)
    assert anc.ndvi(0.2, 0.2) == 0.0
    assert anc.ndvi(0.3, 0.1) == pytest.approx(-0.5)


def test_ndvi_zero_denominator():
    with pytest.raises(DomainError):
        anc.ndvi(0.0, 0.0)


def test_ndvi_bounded_for_valid_reflectances():
    rng = np.random.default_rng(2)
    for _ in range(500):
        red, nir = rng.uniform(0.0, 1.0, 2)
        if red + nir == 0.0:
            continue
        assert -1.0 <= anc.ndvi(red, nir) <= 1.0


def test_reflectance_sample_needs_signal():
    with pytest.raises(DomainError):
        anc.ReflectanceSample(d(0), 0.0, 0.0)


# ----------------------------------------------------------------------
# Daily interpolation
# ----------------------------------------------------------------------

def test_interpolate_midpoint():
    series = anc.NdviSeries([(d(0), 0.2), (d(10), 0.4)])
    assert series.value_on(d(5)) == pytest.approx(0.3)
    assert len(series) == 11


def test_interpolation_passes_through_knots():
    knots = [(d(0), 0.21), (d(4), 0.53), (d(9), 0.37), (d(23), 0.61)]
    series = anc.NdviSeries(knots)
    for day, value in knots:
        assert series.value_on(day) == pytest.approx(value, abs=1e-15)


def test_interpolation_matches_two_point_oracle():
    knots = [(d(0), 0.10), (d(7), 0.44), (d(19), 0.28)]
    series = anc.NdviSeries(knots)
    for day, got in series.items():
        # brute-force bracketing interpolation
        for (da, va), (db, vb) in zip(knots, knots[1:]):
            if da <= day <= db:
                frac = (day - da).days / (db - da).days
                want = va + (vb - va) * frac
                break
        assert got == pytest.approx(want, abs=1e-15)


def test_interpolation_flat_outside_range():
    series = anc.NdviSeries([(d(5), 0.2), (d(8), 0.5)])
    assert series.value_on(d(0)) == 0.2
    assert series.value_on(d(30)) == 0.5


def test_interpolation_input_validation():
    with pytest.raises(DomainError):
        anc.NdviSeries([(d(0), 0.2)])
    with pytest.raises(DomainError):
        anc.NdviSeries([(d(0), 0.2), (d(0), 0.3)])


# ----------------------------------------------------------------------
# Opacity conversion
# ----------------------------------------------------------------------

@pytest.fixture
def table():
    return anc.load_tau_coefficients()


def test_tau_below_floor_is_zero(table):
    tau, clamped = anc.ndvi_to_tau(0.05, table, "grassland")
    assert tau == 0.0 and not clamped


def test_tau_grassland_fixture(table):
    tau, clamped = anc.ndvi_to_tau(0.5, table, "grassland")
    # direct polynomial evaluation: b * (1.9134 ndvi^2 - 0.3215 ndvi)
    want = 0.13 * (1.9134 * 0.25 - 0.3215 * 0.5)
    assert tau == pytest.approx(want, abs=1e-15)
    assert tau == pytest.approx(0.041288, abs=1e-9)
    assert not clamped


def test_tau_negative_water_content_clamped(table):
    # just above the floor the polynomial is still negative
    tau, clamped = anc.ndvi_to_tau(0.12, table, "grassland")
    assert tau == 0.0 and clamped


def test_tau_monotone_over_unit_interval(table):
    values = [anc.ndvi_to_tau(x, table, "grassland")[0]
              for x in np.linspace(0.0, 1.0, 101)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_tau_bare_soil_always_zero(table):
    for x in (-0.5, 0.0, 0.3, 0.9):
        assert anc.ndvi_to_tau(x, table, "bare_soil")[0] == 0.0


def test_tau_missing_cover_is_config_error(table):
    with pytest.raises(ConfigError, match="forest"):
        anc.ndvi_to_tau(0.5, table, "forest")


def test_tau_ndvi_range_checked(table):
    with pytest.raises(DomainError):
        anc.ndvi_to_tau(1.5, table, "grassland")


def test_default_table_covers():
    table = anc.load_tau_coefficients()
    assert all(table.for_cover(cover) for cover in ("grassland", "bare_soil", "cropland"))
    assert table.for_cover("bare_soil").b == 0.0


def test_user_table_file(tmp_path):
    path = tmp_path / "tau.cfg"
    path.write_text("shrub.b = 0.11\nshrub.vwc_poly = 0.0 0.5\nshrub.ndvi_floor = 0.2\n")
    table = anc.load_tau_coefficients(path)
    tau, _ = anc.ndvi_to_tau(0.6, table, "shrub")
    assert tau == pytest.approx(0.11 * 0.3)
    with pytest.raises(ConfigError):
        anc.ndvi_to_tau(0.6, table, "grassland")


def test_table_file_validation(tmp_path):
    path = tmp_path / "tau.cfg"
    path.write_text("shrub.b = 0.11\n")
    with pytest.raises(ConfigError, match="vwc_poly"):
        anc.load_tau_coefficients(path)


@pytest.mark.parametrize("text,message", [
    ("shrub.vwc_poly = 0.0 0.5\n", "land cover 'shrub' missing b"),
    ("shrub.b = -1\nshrub.vwc_poly = 0.0 0.5\n",
     "land cover 'shrub': b parameter must be finite and >= 0, got -1.0"),
    ("shrub.b = nan\nshrub.vwc_poly = 0.0 0.5\n",
     "land cover 'shrub': b parameter must be finite and >= 0, got nan"),
    ("shrub.b = inf\nshrub.vwc_poly = 0.0 0.5\n",
     "land cover 'shrub': b parameter must be finite and >= 0, got inf"),
    ("shrub.b = 0.1\nshrub.vwc_poly = 0.0 nan\n",
     "land cover 'shrub': vwc_poly coefficients must be finite, got (0.0, nan)"),
    ("shrub.b = 0.1\nshrub.vwc_poly = 0.0 0.5\nshrub.ndvi_floor = -inf\n",
     "land cover 'shrub': ndvi_floor must be finite, got -inf"),
])
def test_table_file_value_faults_name_file_and_cover(tmp_path, text, message):
    path = tmp_path / "tau.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        anc.load_tau_coefficients(path)


# ----------------------------------------------------------------------
# Reflectance ingestion
# ----------------------------------------------------------------------

def test_load_reflectance_csv(tmp_path):
    path = tmp_path / "refl.csv"
    path.write_text("date,red,nir\n2023-11-04,0.08,0.22\n2023-11-11,0.07,0.25\n")
    samples = anc.load_reflectance_csv(path)
    assert len(samples) == 2
    assert samples[0].date == dt.date(2023, 11, 4)
    series = anc.daily_ndvi_series(samples)
    assert len(series) == 8
    assert series.value_on(dt.date(2023, 11, 4)) == pytest.approx(anc.ndvi(0.08, 0.22))


def test_load_reflectance_empty_file(tmp_path):
    path = tmp_path / "refl.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty reflectance file"):
        anc.load_reflectance_csv(path)


def test_load_reflectance_bad_header(tmp_path):
    path = tmp_path / "refl.csv"
    path.write_text("day,red,nir\n2023-11-04,0.08,0.22\n")
    with pytest.raises(DataError, match="header"):
        anc.load_reflectance_csv(path)


def test_load_reflectance_bad_value(tmp_path):
    path = tmp_path / "refl.csv"
    path.write_text("date,red,nir\n2023-11-04,x,0.22\n")
    with pytest.raises(DataError, match="refl.csv:2"):
        anc.load_reflectance_csv(path)


@pytest.mark.parametrize("red,nir", [("-0.3", "0.5"), ("0.08", "1.5"), ("nan", "0.22")])
def test_load_reflectance_out_of_range_names_line(tmp_path, red, nir):
    path = tmp_path / "refl.csv"
    path.write_text(f"date,red,nir\n2023-11-04,0.08,0.22\n2023-11-11,{red},{nir}\n")
    with pytest.raises(DataError, match=r"refl.csv:3: reflectances must be in \[0, 1\]"):
        anc.load_reflectance_csv(path)
