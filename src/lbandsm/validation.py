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

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, read_text
from .preprocess import parse_utc_timestamp

R_MIN_SERIES = 3          # shorter series get their correlation flagged
ALIGN_WINDOW_S = 1800.0   # default observation/reference pairing window
_STD_EPS = 1e-13          # below this (scaled) a series counts as constant


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
        if not (math.isfinite(self.point_temperature_k) and self.point_temperature_k > 0.0):
            raise DomainError(
                f"soil temperature must be finite and positive, got {self.point_temperature_k}")


@dataclass(frozen=True)
class MetricsReport:
    bias: float
    rmse: float
    ubrmse: float
    r: float        # nan when flagged undefined
    n: int
    r_flag: str = "ok"   # ok | zero_variance | short_series


def spatial_average(record):
    """Arithmetic mean of the point measurements."""
    return float(np.mean(record.point_sm))


def reference_spread(record):
    """Population standard deviation of the point measurements."""
    return float(np.std(record.point_sm))


def metrics(obs, ref):
    """MetricsReport for two aligned equal-length series (n >= 2).

    Zero variance in either series leaves the correlation undefined; the
    other statistics are still reported.
    """
    obs = np.asarray(obs, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if obs.shape != ref.shape or obs.ndim != 1:
        raise DomainError(f"series must be 1-d and equal length, got {obs.shape} vs {ref.shape}")
    n = obs.size
    if n < 2:
        raise DomainError(f"need at least 2 pairs, got {n}")

    bias = float(np.mean(obs) - np.mean(ref))
    rmse = float(np.sqrt(np.mean((obs - ref) ** 2)))
    # rmse^2 - bias^2 >= 0 analytically; clamp rounding noise before sqrt
    ubrmse = math.sqrt(max(rmse * rmse - bias * bias, 0.0))

    std_o = float(np.std(obs))
    std_r = float(np.std(ref))
    # a numerically constant series (rounding-level spread included) has no
    # defined correlation
    eps_o = _STD_EPS * max(1.0, abs(float(np.mean(obs))))
    eps_r = _STD_EPS * max(1.0, abs(float(np.mean(ref))))
    if std_o <= eps_o or std_r <= eps_r:
        r, r_flag = float("nan"), "zero_variance"
    else:
        cov = float(np.mean((obs - np.mean(obs)) * (ref - np.mean(ref))))
        r = cov / (std_o * std_r)
        r = max(-1.0, min(1.0, r))
        r_flag = "short_series" if n < R_MIN_SERIES else "ok"
    return MetricsReport(bias=bias, rmse=rmse, ubrmse=ubrmse, r=r, n=n, r_flag=r_flag)


def align_pairs(obs_series, ref_series, window_s=ALIGN_WINDOW_S):
    """Pair (timestamp, value) observations with their nearest reference
    within `window_s` seconds.

    Each reference entry is used at most once. Returns (pairs, n_dropped)
    where pairs is a list of (obs_value, ref_value) sorted by observation
    time and n_dropped counts unmatched observations.
    """
    refs = sorted(ref_series, key=lambda item: item[0])
    used = [False] * len(refs)
    pairs = []
    dropped = 0
    for ts, value in sorted(obs_series, key=lambda item: item[0]):
        best, best_dt = None, window_s
        for idx, (rts, _) in enumerate(refs):
            if used[idx]:
                continue
            delta = abs(rts - ts)
            if delta <= best_dt:
                best, best_dt = idx, delta
        if best is None:
            dropped += 1
            continue
        used[best] = True
        pairs.append((value, refs[best][1]))
    return pairs, dropped


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

def load_reference_csv(path):
    """Read `timestamp,sm_1..sm_k,soil_temp_k` rows into ReferenceRecords."""
    records = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = [col.strip() for col in next(reader)]
    except StopIteration:
        raise DataError("empty reference file", path=path) from None
    if (len(header) < 3 or header[0] != "timestamp" or header[-1] != "soil_temp_k"
            or any(not col.startswith("sm_") for col in header[1:-1])):
        raise DataError(
            "expected header 'timestamp,sm_1..sm_k,soil_temp_k'", path=path, line=1)
    n_points = len(header) - 2
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_points + 2:
            raise DataError(f"expected {n_points + 2} fields, got {len(row)}",
                            path=path, line=line_no)
        try:
            records.append(ReferenceRecord(
                timestamp=parse_utc_timestamp(row[0]),
                point_sm=tuple(float(v) for v in row[1:-1]),
                point_temperature_k=float(row[-1]),
            ))
        except (ValueError, DomainError) as exc:
            raise DataError(str(exc), path=path, line=line_no) from None
    return records
