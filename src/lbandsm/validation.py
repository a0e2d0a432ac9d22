"""Comparison of retrieved soil moisture against point reference probes.

Reference records hold a handful of point measurements (typically the
five benchmark locations inside the footprint); their arithmetic mean is
the areal reference value. Series comparison uses four statistics, all
built from population (1/n) moments:

    bias   = mean(obs) - mean(ref)
    rmse   = sqrt(mean((obs - ref)^2))
    ubrmse = sqrt(rmse^2 - bias^2)
    r      = cov(obs, ref) / (std(obs) * std(ref))

so rmse^2 = bias^2 + ubrmse^2 holds by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, csv_records, read_text, split_header
from .preprocess import mean_std, parse_utc_timestamp

R_MIN_SERIES = 3          # shorter series get their correlation flagged
ALIGN_WINDOW_S = 1800.0   # default observation/reference pairing window
_STD_EPS = 1e-13          # below this (scaled) a series counts as constant
# Plausible probe soil temperature, K: below the lowest air temperature on
# record (-89.2 C, Vostok, 21 July 1983; WMO World Weather and Climate
# Extremes Archive) and above the highest land skin temperature seen from
# orbit (70.7 C, Lut desert 2005; Mildrexler et al. 2011, Bull. Amer.
# Meteor. Soc. 92(7), 855-860).
SOIL_TEMP_RANGE_K = (180.0, 350.0)


@dataclass(frozen=True)
class ReferenceRecord:
    timestamp: float          # UTC epoch seconds
    point_sm: tuple           # individual probe readings, m3/m3
    point_temperature_k: float

    def __post_init__(self):
        if not self.point_sm:
            raise DomainError("reference record needs at least one point measurement")
        if any(not 0.0 <= v <= 1.0 for v in self.point_sm):
            raise DomainError(f"point_sm values must be in [0, 1], got {self.point_sm}")
        lo, hi = SOIL_TEMP_RANGE_K
        if not lo <= self.point_temperature_k <= hi:
            raise DomainError(
                f"soil temperature must be in [{lo}, {hi}] K, got {self.point_temperature_k}")


@dataclass(frozen=True)
class MetricsReport:
    bias: float
    rmse: float
    ubrmse: float
    r: float        # nan when flagged undefined
    n: int
    r_flag: str = "ok"   # ok | zero_variance | short_series


def metrics(obs, ref):
    """MetricsReport for two aligned equal-length series (n >= 2).

    Zero variance in either series leaves the correlation undefined; the
    other statistics are still reported.
    """
    obs, ref = np.asarray(obs, dtype=float), np.asarray(ref, dtype=float)
    if obs.shape != ref.shape or obs.ndim != 1:
        raise DomainError(f"series must be 1-d and equal length, got {obs.shape} vs {ref.shape}")
    n = obs.size
    if n < 2:
        raise DomainError(f"need at least 2 pairs, got {n}")

    # each sum once, by the ufuncs of np.mean and np.std
    (mean_o, std_o), (mean_r, std_r) = mean_std(obs), mean_std(ref)
    bias = mean_o - mean_r
    rmse = math.sqrt(np.add.reduce((obs - ref) ** 2) / n)
    # rmse^2 - bias^2 >= 0 analytically; clamp rounding noise before sqrt
    ubrmse = math.sqrt(max(rmse * rmse - bias * bias, 0.0))

    # a numerically constant series (rounding-level spread included) has no
    # defined correlation
    eps_o = _STD_EPS * max(1.0, abs(mean_o))
    eps_r = _STD_EPS * max(1.0, abs(mean_r))
    if std_o <= eps_o or std_r <= eps_r:
        r, r_flag = float("nan"), "zero_variance"
    else:
        cov = float(np.add.reduce((obs - mean_o) * (ref - mean_r)) / n)
        r = cov / (std_o * std_r)
        r = max(-1.0, min(1.0, r))
        r_flag = "short_series" if n < R_MIN_SERIES else "ok"
    return MetricsReport(bias=bias, rmse=rmse, ubrmse=ubrmse, r=r, n=n, r_flag=r_flag)


def nearest_reference(records, timestamp, window_s=ALIGN_WINDOW_S):
    """Reference record closest in time to `timestamp`, or None when the
    closest one is outside the window."""
    best, best_dt = None, window_s
    for rec in records:
        delta = abs(rec.timestamp - timestamp)
        if delta <= best_dt:
            best, best_dt = rec, delta
    return best


# ----------------------------------------------------------------------
# Reference CSV ingestion
# ----------------------------------------------------------------------

def _reference_record(fields):
    return ReferenceRecord(timestamp=parse_utc_timestamp(fields[0]),
                           point_sm=tuple(float(v) for v in fields[1:-1]),
                           point_temperature_k=float(fields[-1]))


def load_reference_csv(path):
    """Read `timestamp,sm_1..sm_k,soil_temp_k` rows into ReferenceRecords."""
    header, body = split_header(read_text(path), path)
    if header is None:
        raise DataError("empty reference file", path=path)
    if (len(header) < 3 or header[0] != "timestamp" or header[-1] != "soil_temp_k"
            or any(not col.startswith("sm_") for col in header[1:-1])):
        raise DataError(
            "expected header 'timestamp,sm_1..sm_k,soil_temp_k'", path=path, line=1)
    return [record for _, record in csv_records(body, len(header), _reference_record, path)]
