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

import csv
import datetime as dt
import io
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError, DataError, DomainError, read_text
from .kvconfig import parse_kv_text, read_kv_file


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
        if self.b < 0.0:
            raise DomainError(f"b parameter must be >= 0, got {self.b}")


class TauCoefficients:
    """Land-cover keyed table of LandCoverTau entries."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def __contains__(self, land_cover):
        return land_cover in self.entries

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
    """Daily NDVI series over a closed date range; flat outside it."""

    def __init__(self, dates, values):
        self.dates = list(dates)
        self.values = [float(v) for v in values]

    def value_on(self, day):
        if day <= self.dates[0]:
            return self.values[0]
        if day >= self.dates[-1]:
            return self.values[-1]
        offset = (day - self.dates[0]).days
        return self.values[offset]

    def items(self):
        return list(zip(self.dates, self.values))

    def __len__(self):
        return len(self.dates)


def interpolate_daily(samples):
    """Daily linear interpolation between (date, ndvi) knots.

    Needs at least two samples with strictly increasing dates; the series
    runs from the first to the last sample date inclusive and passes
    through every knot exactly.
    """
    knots = sorted(samples, key=lambda s: s[0])
    if len(knots) < 2:
        raise DomainError("need at least 2 samples to interpolate")
    for (d0, _), (d1, _) in zip(knots, knots[1:]):
        if d1 == d0:
            raise DomainError(f"duplicate sample date {d0}")

    dates, values = [], []
    seg = 0
    day = knots[0][0]
    while day <= knots[-1][0]:
        while day > knots[seg + 1][0]:
            seg += 1
        (da, va), (db, vb) = knots[seg], knots[seg + 1]
        if day == da:
            value = va
        elif day == db:
            value = vb
        else:
            frac = (day - da).days / (db - da).days
            value = va + (vb - va) * frac
        dates.append(day)
        values.append(value)
        day += dt.timedelta(days=1)
    return NdviSeries(dates, values)


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


def load_reflectance_csv(path):
    """Read `date,red,nir` rows into ReflectanceSamples."""
    samples = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = tuple(col.strip() for col in next(reader))
    except StopIteration:
        raise DataError("empty reflectance file", path=path) from None
    if header != REFLECTANCE_HEADER:
        raise DataError(f"expected header {','.join(REFLECTANCE_HEADER)!r}",
                        path=path, line=1)
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise DataError(f"expected 3 fields, got {len(row)}", path=path, line=line_no)
        try:
            samples.append(ReflectanceSample(
                dt.date.fromisoformat(row[0].strip()), float(row[1]), float(row[2])))
        except (ValueError, DomainError) as exc:
            raise DataError(str(exc), path=path, line=line_no) from None
    return samples


def daily_ndvi_series(samples):
    """Reflectance samples -> daily NDVI series."""
    return interpolate_daily([(s.date, ndvi(s.red, s.nir)) for s in samples])


def _table_from_kv(kv):
    entries = {}
    covers = []
    for key in kv.keys():
        cover = key.split(".", 1)[0]
        if cover not in covers:
            covers.append(cover)
    for cover in covers:
        sub = kv.section(cover)
        poly = sub.get_floats("vwc_poly")
        if not poly:
            raise ConfigError(f"{kv.source}: land cover {cover!r} missing vwc_poly")
        b = sub.get_float("b")
        if b is None:
            raise ConfigError(f"{kv.source}: land cover {cover!r} missing b")
        entries[cover] = LandCoverTau(
            b=b, vwc_poly=tuple(poly), ndvi_floor=sub.get_float("ndvi_floor", 0.0))
    return TauCoefficients(entries)


def load_tau_coefficients(path=None):
    """Load an opacity-coefficient table; with no path, the packaged
    defaults (bare_soil, grassland, cropland)."""
    if path is None:
        text = resources.files("lbandsm").joinpath("data/tau_defaults.cfg").read_text()
        return _table_from_kv(parse_kv_text(text, source="tau_defaults.cfg"))
    return _table_from_kv(read_kv_file(path))
