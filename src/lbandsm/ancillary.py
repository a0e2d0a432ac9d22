"""Vegetation opacity from optical reflectance.

Sparse red/NIR surface-reflectance samples become NDVI, NDVI is linearly
interpolated to a daily series, and each daily NDVI maps to a nadir
vegetation optical depth through a land-cover specific water-content
polynomial scaled by the b parameter:

    tau_nadir = b * max(vwc_poly(ndvi), 0)

The polynomial coefficients, b and the bare-soil NDVI floor are plain
config data; defaults for the supported land covers ship with the
package and can be replaced wholesale by a user table.
"""

import bisect
import datetime as dt
import math
from dataclasses import dataclass

from .errors import ConfigError, DataError, DomainError, csv_records, read_text, split_header
from .kvconfig import parse_kv_text, read_kv_file, read_package_text


@dataclass(frozen=True)
class ReflectanceSample:
    date: dt.date
    red: float
    nir: float

    def __post_init__(self):
        if not (0.0 <= self.red <= 1.0 and 0.0 <= self.nir <= 1.0):
            raise DomainError(
                f"reflectances must be in [0, 1], got red {self.red}, nir {self.nir}")
        if self.red + self.nir <= 0.0:
            raise DomainError(
                f"red + nir must be positive for a defined index, got {self.red}, {self.nir}")


@dataclass(frozen=True)
class LandCoverTau:
    """Opacity-conversion constants for one land-cover class."""

    b: float                  # kg/m2 water content to nadir opacity
    vwc_poly: tuple           # polynomial in ndvi, ascending powers
    ndvi_floor: float = 0.0   # at or below this the canopy is treated as absent

    def __post_init__(self):
        if not 0.0 <= self.b < math.inf:
            raise DomainError(f"b parameter must be finite and >= 0, got {self.b}")
        if not math.isfinite(self.ndvi_floor):
            raise DomainError(f"ndvi_floor must be finite, got {self.ndvi_floor}")
        if not all(map(math.isfinite, self.vwc_poly)):
            raise DomainError(f"vwc_poly coefficients must be finite, got {self.vwc_poly}")


class TauCoefficients:
    """Land-cover keyed table of LandCoverTau entries."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def for_cover(self, land_cover):
        try:
            return self.entries[land_cover]
        except KeyError:
            raise ConfigError(
                f"no opacity coefficients for land cover {land_cover!r}; "
                f"known covers: {sorted(self.entries)}") from None


def ndvi(red, nir):
    """Normalized difference vegetation index (nir - red)/(nir + red)."""
    denom = nir + red
    if denom == 0.0:
        raise DomainError("nir + red must be nonzero")
    return (nir - red) / denom


class NdviSeries:
    """Daily NDVI, linear between (date, ndvi) knots, over the closed
    range from the first knot date to the last; flat outside it. The
    knots may come in any order; they need at least two, and no date
    twice. The series passes through every knot exactly."""

    def __init__(self, knots):
        knots = sorted(knots, key=lambda k: k[0])
        if len(knots) < 2:
            raise DomainError("need at least 2 samples to interpolate")
        for (d0, _), (d1, _) in zip(knots, knots[1:]):
            if d1 == d0:
                raise DomainError(f"duplicate sample date {d0}")
        self.dates = [day for day, _ in knots]
        self.values = [float(value) for _, value in knots]

    def value_on(self, day):
        if day <= self.dates[0]:
            return self.values[0]
        if day >= self.dates[-1]:
            return self.values[-1]
        k = bisect.bisect_right(self.dates, day)    # dates[k - 1] <= day < dates[k]
        da, db = self.dates[k - 1], self.dates[k]
        va, vb = self.values[k - 1], self.values[k]
        if day == da:
            return va
        return va + (vb - va) * ((day - da).days / (db - da).days)

    def items(self):
        days = (self.dates[0] + dt.timedelta(days=k) for k in range(len(self)))
        return [(day, self.value_on(day)) for day in days]

    def __len__(self):
        return (self.dates[-1] - self.dates[0]).days + 1


def ndvi_to_tau(value, coeffs, land_cover):
    """Nadir vegetation optical depth for one NDVI value.

    Returns (tau, clamped); clamped is True when the water-content
    polynomial went negative and was floored at zero. NDVI at or below
    the configured floor short-circuits to tau = 0.
    """
    if not -1.0 <= value <= 1.0:
        raise DomainError(f"ndvi must be in [-1, 1], got {value}")
    entry = coeffs.for_cover(land_cover)
    if value <= entry.ndvi_floor:
        return 0.0, False
    vwc = 0.0
    for coef in reversed(entry.vwc_poly):
        vwc = vwc * value + coef
    if vwc < 0.0:
        return 0.0, True
    return entry.b * vwc, False


# ----------------------------------------------------------------------
# File ingestion
# ----------------------------------------------------------------------

REFLECTANCE_HEADER = ("date", "red", "nir")


def _reflectance_sample(fields):
    return ReflectanceSample(dt.date.fromisoformat(fields[0].strip()), *map(float, fields[1:]))


def load_reflectance_csv(path):
    """Read `date,red,nir` rows into ReflectanceSamples."""
    header, body = split_header(read_text(path), path)
    if header is None:
        raise DataError("empty reflectance file", path=path)
    if header != REFLECTANCE_HEADER:
        raise DataError(f"expected header {','.join(REFLECTANCE_HEADER)!r}",
                        path=path, line=1)
    return [sample for _, sample in csv_records(body, 3, _reflectance_sample, path)]


def daily_ndvi_series(samples):
    """Reflectance samples -> daily NDVI series."""
    return NdviSeries([(s.date, ndvi(s.red, s.nir)) for s in samples])


def _table_from_kv(kv):
    entries = {}
    for cover in kv.group_names():
        sub = kv.section(cover)
        poly = sub.get_floats("vwc_poly")
        if not poly:
            raise ConfigError(f"{kv.source}: land cover {cover!r} missing vwc_poly")
        b = sub.get_float("b")
        if b is None:
            raise ConfigError(f"{kv.source}: land cover {cover!r} missing b")
        try:
            entries[cover] = LandCoverTau(
                b=b, vwc_poly=tuple(poly), ndvi_floor=sub.get_float("ndvi_floor", 0.0))
        except DomainError as exc:
            raise ConfigError(f"{kv.source}: land cover {cover!r}: {exc}") from None
    return TauCoefficients(entries)


def load_tau_coefficients(path=None):
    """Load an opacity-coefficient table; with no path, the packaged
    defaults (bare_soil, grassland, cropland)."""
    if path is None:
        text = read_package_text("data/tau_defaults.cfg")
        return _table_from_kv(parse_kv_text(text, source="tau_defaults.cfg"))
    return _table_from_kv(read_kv_file(path))
