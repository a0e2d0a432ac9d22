"""Screening of raw radiometer streams down to one representative
brightness-temperature pair per measurement session.

A session file holds a few thousand dual-polarization samples (either
brightness temperatures or raw detector voltages plus a linear
calibration), loaded as a `Session` of numpy columns. A body of
canonical UTC stamps and plain numbers, the form this package writes,
is tokenized in C by np.loadtxt and its stamps decoded as bytes; any
other body is read by csv.reader and parsed field by field, which gives
the same columns or names the first bad line. Records are kept only
when all three quality predicates hold:

  * tb_h and tb_v at or below the 320 K ceiling,
  * tb_h and tb_v at or above the physical floor given by the forward
    model evaluated at saturation moisture (sm = 1),
  * tb_v strictly above tb_h.

Each record's flag bitmask names exactly the violated predicates.
"""

import csv
import datetime as dt
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DataError, DomainError, read_text
from .radiative import (DielectricModel, SoilState, SurfaceRoughness, TbPair,
                        VegetationState, forward_tb)

TB_MAX_DEFAULT = 320.0  # K, ceiling applied to both polarizations


class QualityFlag(str, Enum):
    MAX_EXCEEDED = "max_exceeded"
    MIN_VIOLATED = "min_violated"
    POL_ORDER_VIOLATED = "pol_order_violated"


# bit of each flag in the masks that filter_tb returns
FLAG_BITS = {flag: 1 << k for k, flag in enumerate(QualityFlag)}


class Statistic(str, Enum):
    MEDIAN = "median"
    MEAN = "mean"
    P25 = "p25"
    P75 = "p75"


@dataclass(frozen=True)
class CalibrationParams:
    """Linear voltage-to-kelvin calibration, one gain/offset per channel."""

    gain_h: float = 1.0
    gain_v: float = 1.0
    offset_h: float = 0.0
    offset_v: float = 0.0

    def __post_init__(self):
        if self.gain_h == 0.0 or self.gain_v == 0.0:
            raise DomainError("calibration gains must be nonzero")


@dataclass(frozen=True, eq=False)
class Session:
    """A session's records as aligned columns: UTC epoch seconds and the
    brightness temperatures in kelvin, one element per record."""

    timestamp: np.ndarray
    tb_h: np.ndarray
    tb_v: np.ndarray

    def __len__(self):
        return len(self.timestamp)

    def select(self, index):
        """The records at `index`: a boolean mask, index array or slice."""
        return Session(self.timestamp[index], self.tb_h[index], self.tb_v[index])

    @cached_property
    def sorted_channels(self):
        """(tb_h, tb_v), each sorted ascending once for every reduction of
        this Session, so that each statistic (the mean included) is
        bit-identical under permutation of the records."""
        return np.sort(self.tb_h), np.sort(self.tb_v)


@dataclass(frozen=True)
class FilterThresholds:
    tb_max: float
    tb_min_h: float
    tb_min_v: float

    def __post_init__(self):
        if not (self.tb_min_h < self.tb_max and self.tb_min_v < self.tb_max):
            raise DomainError("minimum thresholds must lie below tb_max")


@dataclass(frozen=True)
class ChannelStats:
    mean: float
    std: float
    p25: float
    p50: float
    p75: float


@dataclass(frozen=True)
class SessionSummary:
    representative: TbPair
    stats_h: ChannelStats
    stats_v: ChannelStats
    n_total: int
    n_accepted: int


def min_threshold(surface, geometry, t_e, tau_nadir=0.0,
                  dielectric=DielectricModel.MIRONOV):
    """Physical floor (tb_min_h, tb_min_v): the forward model at
    saturation moisture sm = 1 with the site's roughness and albedo.

    tau_nadir defaults to 0, the most permissive (lowest) floor; pass the
    site's current canopy opacity to tighten it.
    """
    pair = forward_tb(
        SoilState(sm=1.0, clay_fraction=surface.clay_fraction, temperature_k=t_e),
        VegetationState(tau_nadir=tau_nadir, omega=surface.omega),
        SurfaceRoughness(surface.h),
        geometry,
        t_e,
        dielectric,
    )
    return pair.tb_h, pair.tb_v


def filter_tb(session, thresholds):
    """Quality-flag bitmask per record (see FLAG_BITS): each violated
    predicate sets its flag's bit, and 0 means accepted. Non-finite
    values fail the ceiling comparison and are flagged there."""
    tb_h, tb_v = session.tb_h, session.tb_v
    flags = np.zeros(len(session), dtype=np.uint8)
    flags[~((tb_h <= thresholds.tb_max) & (tb_v <= thresholds.tb_max))] |= \
        FLAG_BITS[QualityFlag.MAX_EXCEEDED]
    flags[~((tb_h >= thresholds.tb_min_h) & (tb_v >= thresholds.tb_min_v))] |= \
        FLAG_BITS[QualityFlag.MIN_VIOLATED]
    flags[~(tb_v > tb_h)] |= FLAG_BITS[QualityFlag.POL_ORDER_VIOLATED]
    return flags


def flags_of(bits):
    """The QualityFlags set in one record's bitmask."""
    return frozenset(flag for flag, bit in FLAG_BITS.items() if bits & bit)


def rejection_counts(flags):
    """Number of records carrying each flag, for the flags that occur."""
    return +Counter({flag: int(np.count_nonzero(flags & bit))   # + drops zeros
                     for flag, bit in FLAG_BITS.items()})


def _sorted_channels(accepted):
    if not len(accepted):
        raise DomainError("no valid observations in session")
    return accepted.sorted_channels


_STAT_FUNCS = {
    Statistic.MEDIAN: np.median,
    Statistic.MEAN: np.mean,
    Statistic.P25: lambda x: np.percentile(x, 25),
    Statistic.P75: lambda x: np.percentile(x, 75),
}


def representative(accepted, statistic=Statistic.MEDIAN):
    """Per-channel representative value of an accepted Session; channels
    are reduced independently. Median is the operational default."""
    tb_h, tb_v = _sorted_channels(accepted)
    func = _STAT_FUNCS[Statistic(statistic)]
    return TbPair(float(func(tb_h)), float(func(tb_v)))


def session_stats(accepted, n_total=None):
    """Population statistics per channel plus the median representative.

    Quartiles interpolate linearly between closest order statistics; std
    is the population form (divide by n).
    """
    tb_h, tb_v = _sorted_channels(accepted)

    def stats(x):
        p25, p50, p75 = np.percentile(x, [25, 50, 75])
        return ChannelStats(float(np.mean(x)), float(np.std(x)),
                            float(p25), float(p50), float(p75))

    return SessionSummary(
        representative=TbPair(float(np.median(tb_h)), float(np.median(tb_v))),
        stats_h=stats(tb_h),
        stats_v=stats(tb_v),
        n_total=len(accepted) if n_total is None else n_total,
        n_accepted=len(accepted),
    )


# ----------------------------------------------------------------------
# Session CSV ingestion
# ----------------------------------------------------------------------

TB_HEADER = ("timestamp", "tb_h", "tb_v")
VOLTAGE_HEADER = ("timestamp", "v_h", "v_v")

# A session body as np.loadtxt tokenizes it: the stamp bytes and the two
# values of each line. A canonical stamp, the form format_utc_timestamp
# writes, is YYYY-MM-DDTHH:MM:SSZ (20 bytes) or YYYY-MM-DDTHH:MM:SS.ffffffZ
# (27); the column holds one byte more, so that a longer stamp shows
# instead of being cut to fit.
_BODY_DTYPE = np.dtype([("stamp", "S28"), ("a", "f8"), ("b", "f8")])
_SEPARATORS = ([4, 7, 10, 13, 16], np.frombuffer(b"--T::", np.uint8))
# first byte of each two-digit group of a stamp: YY YY MM DD hh mm ss ff ff ff
_PAIRS = np.array([0, 2, 5, 8, 11, 14, 17, 20, 22, 24])
_UNEVEN = "\0\x1c\x1d\x1e\x1f"    # characters loadtxt and float() read differently


def parse_utc_timestamp(text):
    """ISO-8601 -> UTC epoch seconds; naive stamps are taken as UTC."""
    raw = text.strip()
    try:
        stamp = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}: {exc}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=dt.timezone.utc)
    return stamp.timestamp()


def format_utc_timestamp(epoch_s):
    stamp = dt.datetime.fromtimestamp(epoch_s, tz=dt.timezone.utc)
    return stamp.isoformat().replace("+00:00", "Z")


def _canonical_micros(stamps):
    """int64 microseconds since the epoch of a column of canonical stamps
    (bytes, as in _BODY_DTYPE, holding no NUL) from the years 1700-2199,
    or None when any stamp is not one or names no calendar day. Those
    years keep the microseconds below 2**53, where micros / 1e6 rounds
    exactly as parse_utc_timestamp does."""
    raw = stamps.view(np.uint8).reshape(len(stamps), -1)
    digit = raw - np.uint8(ord("0"))    # wraps, so a non-digit reads above 9
    # a stamp ends at its first NUL, so these fix its width
    whole = (raw[:, 19] == ord("Z")) & (raw[:, 20] == 0)
    fraction = (raw[:, 19] == ord(".")) & (raw[:, 26] == ord("Z")) & (raw[:, 27] == 0)
    at, separators = _SEPARATORS
    # with every other byte fixed, the digit count leaves no room for a
    # non-digit where a digit belongs
    if not ((whole | fraction).all() and (raw[:, at] == separators).all()
            and np.count_nonzero(digit <= 9) == 14 * len(raw) + 6 * np.count_nonzero(fraction)):
        return None
    # 00-99 where both bytes are digits; only the fraction of a whole
    # stamp, never used, can wrap
    pair = (digit[:, _PAIRS] * np.uint8(10) + digit[:, _PAIRS + 1]).astype(np.int64)
    date = ((pair[:, 0] * 100 + pair[:, 1]) * 100 + pair[:, 2]) * 100 + pair[:, 3]  # YYYYMMDD
    hour, minute, second = pair[:, 4], pair[:, 5], pair[:, 6]
    if ((date < 1700_00_00) | (date >= 2200_00_00) | (hour > 23) | (minute > 59)
            | (second > 59)).any():
        return None
    # the calendar check and day number of each run of one date: each
    # distinct date once when time increases
    first = np.flatnonzero(np.concatenate(([True], date[1:] != date[:-1])))
    try:
        days = stamps[first].astype("S10").astype("datetime64[D]").view(np.int64)
    except ValueError:      # no such day, as 2023-02-29
        return None
    day = np.repeat(days, np.diff(np.append(first, len(date))))
    seconds = day * 86400 + hour * 3600 + minute * 60 + second
    micro = (pair[:, 7] * 100 + pair[:, 8]) * 100 + pair[:, 9]
    return seconds * 1_000_000 + np.where(fraction, micro, 0)


def _bulk_columns(body, increasing):
    """(timestamp, a, b) of a session body whose lines are all canonical
    stamp,value,value, parsed in bulk; None when any line is not, or,
    with `increasing`, when time does not strictly increase."""
    # loadtxt warns on an empty body, reads only ASCII digits where float()
    # reads any, drops the NULs that end a bytes field and, unlike float(),
    # strips the separators \x1c-\x1f around a value
    if not body.strip() or not body.isascii() or any(c in body for c in _UNEVEN):
        return None
    try:
        records = np.loadtxt(io.StringIO(body), dtype=_BODY_DTYPE, delimiter=",",
                             comments=None, ndmin=1)
    except ValueError:
        return None
    micros = _canonical_micros(np.ascontiguousarray(records["stamp"]))
    if micros is None:
        return None
    timestamp = micros / 1e6
    if increasing and (timestamp[1:] <= timestamp[:-1]).any():
        return None
    return timestamp, np.ascontiguousarray(records["a"]), np.ascontiguousarray(records["b"])


def _is_blank(row):
    return not row or (len(row) == 1 and not row[0].strip())


def _raise_first_bad_line(rows, increasing, path):
    """Raise the DataError of the first row, in file order, that the
    columnar parse in session_from_rows rejects."""
    last_ts = None
    for line_no, row in enumerate(rows, start=2):
        if _is_blank(row):
            continue
        if len(row) != 3:
            raise DataError(f"expected 3 fields, got {len(row)}", path=path, line=line_no)
        try:
            ts = parse_utc_timestamp(row[0])
            float(row[1]), float(row[2])
        except ValueError as exc:
            raise DataError(str(exc), path=path, line=line_no) from None
        if increasing and last_ts is not None and ts <= last_ts:
            raise DataError("timestamps must be strictly increasing",
                            path=path, line=line_no)
        last_ts = ts


def _session(timestamp, a, b, calibration):
    if calibration is None:
        return Session(timestamp, a, b)
    # tb_p = gain_p * v_p + offset_p per channel
    return Session(timestamp, calibration.gain_h * a + calibration.offset_h,
                   calibration.gain_v * b + calibration.offset_v)


def session_from_rows(rows, calibration=None, increasing=False, path=None):
    """Session of the CSV rows of (timestamp, a, b) text that follow a
    header line, so rows[k] is line k + 2 of `path`; blank rows are
    skipped. a and b are voltages when `calibration` is given, else
    brightness temperatures.

    Each field is parsed by parse_utc_timestamp or float(). When one
    fails, a pass over the rows in order raises the DataError of the
    first bad line: a wrong field count, a value or timestamp that does
    not parse, or, with `increasing`, a timestamp not after the one
    before it.
    """
    data = rows
    if set(map(len, rows)) != {3}:  # blank rows, or a wrong field count
        data = [row for row in rows if not _is_blank(row)]
    try:
        if data and set(map(len, data)) != {3}:
            raise ValueError("wrong field count")
        stamps, a, b = zip(*data) if data else ((), (), ())
        timestamp = np.array([parse_utc_timestamp(s) for s in stamps], dtype=float)
        if increasing and np.any(timestamp[1:] <= timestamp[:-1]):
            raise ValueError("timestamps not strictly increasing")
        a = np.fromiter(map(float, a), dtype=float, count=len(a))
        b = np.fromiter(map(float, b), dtype=float, count=len(b))
    except ValueError:
        _raise_first_bad_line(rows, increasing, path)
        raise
    return _session(timestamp, a, b, calibration)


def session_from_text(body, calibration=None, increasing=False, path=None):
    """Session of the CSV text that follows a header line, whose first
    line is line 2 of `path`; the values are voltages when `calibration`
    is given, else brightness temperatures.

    A body of canonical stamps and plain numbers is parsed in bulk.
    Anything else (other stamp forms, quoted fields, blank lines of
    spaces, Unicode digits, a bad or missing field, or, with `increasing`,
    time that does not strictly increase) goes to session_from_rows over
    csv.reader rows, which returns the same columns or raises the
    DataError of the first bad line.
    """
    columns = _bulk_columns(body, increasing)
    if columns is None:
        rows = list(csv.reader(io.StringIO(body, newline="")))
        return session_from_rows(rows, calibration, increasing, path)
    return _session(*columns, calibration)


def split_header(text):
    """(header, body) of CSV text: the stripped fields of its first record
    and the text after that record; header is None when there is no
    record."""
    size = 1024
    while True:     # read from a prefix that holds the record, not a copy of all
        buf = io.StringIO(text[:size], newline="")
        header = next(csv.reader(buf), None)
        if buf.tell() < size or size >= len(text):
            break
        size *= 16
    if header is None:
        return None, ""
    return tuple(col.strip() for col in header), text[buf.tell():]


def load_session(path, calibration=None, skip_leading=0):
    """Read one session CSV into a Session.

    Accepts either brightness-temperature files (timestamp,tb_h,tb_v) or
    raw-voltage files (timestamp,v_h,v_v); the latter require calibration
    parameters. `skip_leading` drops warm-up samples from the front.
    Timestamps must be strictly increasing.
    """
    header, body = split_header(read_text(path))
    if header is None:
        raise DataError("empty session file", path=path)
    if header == TB_HEADER:
        calibration = None
    elif header != VOLTAGE_HEADER:
        raise DataError(f"unrecognized session header {','.join(header)!r}",
                        path=path, line=1)
    elif calibration is None:
        raise DataError("voltage session requires calibration parameters",
                        path=path, line=1)
    session = session_from_text(body, calibration, increasing=True, path=path)
    if skip_leading:
        session = session.select(slice(skip_leading, None))
    return session


def write_session(path_or_fh, session, flags=None):
    """Write a Session out in the TB session schema, with a flags column
    when `flags` (filter_tb's bitmasks of these records) has any set."""
    own = isinstance(path_or_fh, (str, bytes)) or hasattr(path_or_fh, "__fspath__")
    fh = open(path_or_fh, "w", newline="", encoding="utf-8") if own else path_or_fh
    try:
        writer = csv.writer(fh)
        flagged = flags is not None and bool(np.any(flags))
        header = list(TB_HEADER) + (["flags"] if flagged else [])
        writer.writerow(header)
        for k, (ts, tb_h, tb_v) in enumerate(zip(session.timestamp.tolist(),
                                                  session.tb_h.tolist(),
                                                  session.tb_v.tolist())):
            row = [format_utc_timestamp(ts), f"{tb_h:.6f}", f"{tb_v:.6f}"]
            if flagged:
                row.append("|".join(sorted(f.value for f in flags_of(flags[k]))))
            writer.writerow(row)
    finally:
        if own:
            fh.close()
