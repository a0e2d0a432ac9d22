"""Screening of raw radiometer streams down to one representative
brightness-temperature pair per measurement session.

A session file holds a few thousand dual-polarization samples (either
brightness temperatures or raw detector voltages plus a linear
calibration), loaded as a `Session` of numpy columns. A body of
canonical UTC stamps and plain numbers, the form this package writes,
has its newline-split lines tokenized in C by np.loadtxt and its
stamps parsed a minute at a time, the bodies of several short files
together (load_session); any other body is read record by record
(errors.csv_records) and parsed field by field, which gives the same
columns or names the first bad line. Records are kept only when
all three quality predicates hold:

  * tb_h and tb_v at or below the 320 K ceiling,
  * tb_h and tb_v at or above the physical floor given by the forward
    model evaluated at saturation moisture (sm = 1),
  * tb_v strictly above tb_h.

Each record's flag bitmask names exactly the violated predicates.

The accepted records reduce once per channel, by index on the channel
sorted once (session_stats): the median, numpy's 'linear' quartiles and
the mean and population std from one sum, each equal to numpy's bit for
bit. representative reads the chosen statistic from that summary.
"""

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DataError, DomainError, csv_records, read_text, split_header
from .radiative import DielectricModel, TbPair, soil_emissivity_pair, tau_omega_tb

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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"calibration {name} must be finite, got {value}")
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
    median: float   # np.median; p50 (the 'linear' rule) may differ in the last bit


@dataclass(frozen=True)
class SessionSummary:
    stats_h: ChannelStats
    stats_v: ChannelStats


@lru_cache(maxsize=64)
def _saturated_emissivities(clay_fraction, incidence_deg, h, frequency_ghz):
    """Rough-soil (e_h, e_v) at sm = 1 under the Mironov dielectric."""
    e_h, e_v = soil_emissivity_pair(1.0, clay_fraction, incidence_deg, h,
                                    DielectricModel.MIRONOV, frequency_ghz)
    return float(e_h), float(e_v)


def min_threshold(surface, t_e, frequency_ghz):
    """Physical floor (tb_min_h, tb_min_v): the forward model at
    saturation moisture sm = 1 with the site's roughness, the Mironov
    dielectric and no canopy, the most permissive (lowest) floor. With
    tau = 0 the transmissivity is exactly 1.0 and the albedo scales a zero
    canopy term, so these are the operations of simulate_tb(1.0, 0.0, omega, ...).
    """
    if not t_e > 0.0:
        raise DomainError(f"t_e must be positive, got {t_e}")
    e_h, e_v = _saturated_emissivities(surface.clay_fraction, surface.incidence_deg,
                                       surface.h, frequency_ghz)
    return (float(tau_omega_tb(e_h, 1.0, 0.0, t_e)),
            float(tau_omega_tb(e_v, 1.0, 0.0, t_e)))


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


def mean_std(x):
    """(np.mean(x), np.std(x)) bit for bit from one sum, by the ufuncs that
    numpy's mean and var apply (pairwise add.reduce, / n, squares, sqrt)."""
    x = np.asarray(x, dtype=float)
    mean = np.add.reduce(x) / len(x)
    dev = x - mean
    return float(mean), math.sqrt(np.add.reduce(dev * dev) / len(x))


def sorted_median(x):
    """np.median of an ascending float array, bit for bit: NaN when NaN is
    present (sorted last), else the middle one or two summed from +0.0."""
    mid, odd = divmod(len(x), 2)
    if math.isnan(x[-1]):
        return float(x[-1])
    return 0.0 + float(x[mid]) if odd else (0.0 + float(x[mid - 1]) + float(x[mid])) / 2


def _quartiles(x):
    """np.percentile(x, [25, 50, 75]) of an ascending float array, bit for
    bit, by numpy's 'linear' rule; numpy itself takes a NaN channel and a
    zero result, whose sign follows where np.partition leaves -0.0/+0.0."""
    n, out = len(x), []
    for q in (0.25, 0.5, 0.75):
        v = (n - 1) * q
        i = -1 if v >= n - 1 else int(v)       # as numpy's _get_indexes
        a, b, g = float(x[i]), float(x[-1 if i < 0 else i + 1]), v - i
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    if math.isnan(x[-1]) or 0.0 in out:
        return np.percentile(x, [25, 50, 75]).tolist()
    return out


def representative(summary, statistic=Statistic.MEDIAN):
    """Per-channel representative pair of a session_stats summary: its
    `statistic` of each channel. Median is the operational default."""
    name = Statistic(statistic).value       # the ChannelStats field
    return TbPair(getattr(summary.stats_h, name), getattr(summary.stats_v, name))


def session_stats(accepted):
    """Population statistics per channel, the one reduction of a session.

    Quartiles interpolate linearly between closest order statistics; std
    is the population form (divide by n). Each value is numpy's (median,
    percentile, mean, std) bit for bit, NaN where numpy's is, computed once
    from each channel sorted once, so bit-identical under permutation of
    the records, and without warnings for non-finite records.
    """
    if not len(accepted):
        raise DomainError("no valid observations in session")
    with np.errstate(invalid="ignore", over="ignore"):
        stats_h, stats_v = (ChannelStats(*mean_std(x), *_quartiles(x), sorted_median(x))
                            for x in (np.sort(accepted.tb_h), np.sort(accepted.tb_v)))
    return SessionSummary(stats_h, stats_v)


# ----------------------------------------------------------------------
# Session CSV ingestion
# ----------------------------------------------------------------------

TB_HEADER = ("timestamp", "tb_h", "tb_v")
VOLTAGE_HEADER = ("timestamp", "v_h", "v_v")

# A session body as np.loadtxt tokenizes its \n-split lines: the stamp
# bytes and the two values of each line. A canonical stamp, the form
# format_utc_timestamps writes, is YYYY-MM-DDTHH:MM:SSZ (20 bytes) or
# YYYY-MM-DDTHH:MM:SS.ffffffZ (27), its minute the first 16 bytes; the
# column holds one byte more, so that a longer stamp shows instead of
# being cut to fit.
_BODY_DTYPE = np.dtype([("stamp", "S28"), ("a", "f8"), ("b", "f8")])
_SEPARATORS = ([4, 7, 10, 13, 16], np.frombuffer(b"--T::", np.uint8))
# first byte of each two-digit group read in bulk: YY ss ff ff ff
_TWO_DIGITS = np.array([0, 17, 20, 22, 24])
_UNEVEN = "\0\x1c\x1d\x1e\x1f"    # characters loadtxt and float() read differently
# epoch seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59
_FIRST_SECOND = dt.datetime(1, 1, 1, tzinfo=dt.timezone.utc).timestamp()
_LAST_SECOND = dt.datetime(9999, 12, 31, 23, 59, 59, tzinfo=dt.timezone.utc).timestamp()


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


def format_utc_timestamps(epoch_s):
    """Canonical UTC stamps of a 1-D array of epoch seconds, as a list of
    str: datetime.fromtimestamp(t, timezone.utc).isoformat() with Z for
    +00:00, YYYY-MM-DDTHH:MM:SSZ on a whole second, else with .ffffff.
    One numpy pass: microseconds rounded half to even with the carry into
    the seconds, as fromtimestamp rounds, then datetime64[us] to text. A
    non-finite epoch or a year outside 1-9999 is a ValueError."""
    epoch = np.asarray(epoch_s, dtype=float)
    if not np.isfinite(epoch).all():
        raise ValueError(f"cannot format epoch {epoch[~np.isfinite(epoch)][0]} as a UTC stamp")
    fraction, whole = np.modf(epoch)
    carry, micro = np.divmod(np.rint(fraction * 1e6), 1e6)
    whole += carry
    outside = (whole < _FIRST_SECOND) | (whole > _LAST_SECOND)
    if outside.any():
        raise ValueError(f"cannot format epoch {epoch[outside][0]} as a UTC stamp: "
                         "year outside 1-9999")
    text = np.datetime_as_string((whole.astype(np.int64) * 1_000_000
                                  + micro.astype(np.int64)).astype("datetime64[us]"))
    # code points of each YYYY-MM-DDTHH:MM:SS.ffffff, one more for the Z;
    # a str of the <U27 view ends at its first NUL
    chars = text.view(np.uint32).reshape(len(text), text.itemsize // 4)[:, :27].copy()
    chars[:, 26] = ord("Z")
    whole_second = micro == 0
    chars[whole_second, 19] = ord("Z")
    chars[whole_second, 20:] = 0
    return chars.view("<U27")[:, 0].tolist()


def session_text(header, epoch_s, values):
    """CSV text of a session: the `header` line, then per record its
    canonical stamp and `values`, the record's other fields already joined
    by commas; every line ends in CRLF, as csv.writer ends it."""
    lines = map(",".join, zip(format_utc_timestamps(epoch_s), values))
    return "\r\n".join([",".join(header), *lines, ""])


def _canonical_epochs(stamps):
    """UTC epoch seconds of a column of canonical stamps (bytes, as in
    _BODY_DTYPE, holding no NUL) from the years 1700-2199, or None when
    any stamp is not one; parse_utc_timestamp reads each run of one
    minute. Those years keep the int64 microseconds below 2**53, where
    micros / 1e6 rounds exactly as parse_utc_timestamp does."""
    raw = stamps.view(np.uint8).reshape(len(stamps), -1)
    digit = raw - np.uint8(ord("0"))    # wraps, so a non-digit reads above 9
    # a stamp ends at its first NUL, so these fix its width
    whole = (raw[:, 19] == ord("Z")) & (raw[:, 20] == 0)
    fraction = (raw[:, 19] == ord(".")) & (raw[:, 26] == ord("Z")) & (raw[:, 27] == 0)
    at, separators = _SEPARATORS
    # 00-99 from two digits; only the fraction of a whole stamp, never
    # used, holds no digits and wraps
    pair = digit[:, _TWO_DIGITS] * np.uint8(10) + digit[:, _TWO_DIGITS + 1]
    # with every other byte fixed, the digit count leaves no room for a
    # non-digit where a digit belongs; a century below 17 wraps above 21
    if not ((whole | fraction).all() and (raw[:, at] == separators).all()
            and np.count_nonzero(digit <= 9) == 14 * len(raw) + 6 * np.count_nonzero(fraction)
            and ((pair[:, 0] - np.uint8(17) <= 4) & (pair[:, 1] <= 59)).all()):
        return None
    # each run of one YYYY-MM-DDTHH:MM, its 16 bytes read in place as two uint64
    minute = np.ndarray((len(raw), 2), np.uint64, stamps, strides=(raw.strides[0], 8))
    first = np.flatnonzero(np.concatenate(
        ([True], (minute[1:, 0] != minute[:-1, 0]) | (minute[1:, 1] != minute[:-1, 1]))))
    try:
        starts = [parse_utc_timestamp(s[:16].decode() + ":00Z") for s in stamps[first].tolist()]
    except ValueError:      # no such date, hour or minute, as 2023-02-29
        return None
    start = np.repeat(np.array(starts, dtype=np.int64), np.diff(np.append(first, len(raw))))
    micro = (pair[:, 2].astype(np.int64) * 100 + pair[:, 3]) * 100 + pair[:, 4]
    return ((start + pair[:, 1]) * 1_000_000 + np.where(fraction, micro, 0)) / 1e6


def _bulk_ready(body):
    """Whether np.loadtxt may read `body`: it warns on an empty body, reads
    only ASCII digits where float() reads any, drops the NULs that end a
    bytes field and, unlike float(), strips the separators \\x1c-\\x1f
    around a value."""
    return (bool(body) and not body.isspace() and body.isascii()
            and not any(c in body for c in _UNEVEN))


def _bulk_records(lines):
    """np.loadtxt's _BODY_DTYPE records of session lines, None when a line
    is not stamp,value,value. It reads \\n-split lines faster than a
    StringIO of the body; splitlines() would also split at \\x0b and \\x0c,
    where csv.reader does not."""
    try:
        return np.loadtxt(lines, dtype=_BODY_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _bulk_decode(records):
    """(timestamp, a, b) of _bulk_records' records, None when a stamp is
    not canonical."""
    timestamp = _canonical_epochs(np.ascontiguousarray(records["stamp"]))
    if timestamp is None:
        return None
    return timestamp, np.ascontiguousarray(records["a"]), np.ascontiguousarray(records["b"])


def _increasing(timestamp):
    return not (timestamp[1:] <= timestamp[:-1]).any()


def _bulk_columns(body, increasing):
    """(timestamp, a, b) of a session body whose lines are all canonical
    stamp,value,value, parsed in bulk; None when any line is not, or,
    with `increasing`, when time does not strictly increase."""
    if not _bulk_ready(body):
        return None
    records = _bulk_records(body.split("\n"))
    columns = None if records is None else _bulk_decode(records)
    if columns is None or increasing and not _increasing(columns[0]):
        return None
    return columns


def _joint_columns(bodies):
    """(timestamp, a, b, counts) of session bodies that _bulk_ready takes,
    parsed as one by one np.loadtxt and one stamp decode, with the number
    of records of each body in `counts`; None when any line is not a
    canonical stamp,value,value."""
    lines, counts = [], []
    for body in bodies:
        part = body.split("\n")
        # loadtxt skips exactly the lines "" and "\r" and raises on any other
        # line that is not one record
        counts.append(len(part) - part.count("") - part.count("\r"))
        lines += part
    del part
    records = _bulk_records(lines)
    del lines
    if records is None or len(records) != sum(counts):
        return None
    columns = _bulk_decode(records)
    return None if columns is None else (*columns, counts)


def _session(timestamp, a, b, calibration):
    if calibration is None:
        return Session(timestamp, a, b)
    # tb_p = gain_p * v_p + offset_p per channel; an overflow is inf, which screening rejects
    with np.errstate(over="ignore"):
        return Session(timestamp, calibration.gain_h * a + calibration.offset_h,
                       calibration.gain_v * b + calibration.offset_v)


def session_from_records(body, calibration=None, increasing=False, path=None):
    """Session of the CSV text that follows a header line, whose first
    line is line 2 of `path`, parsed record by record (csv_records) by
    parse_utc_timestamp and float(). The values are voltages when
    `calibration` is given, else brightness temperatures.

    The first bad line in file order is a DataError: a wrong field count,
    a value or timestamp that does not parse, or, with `increasing`, a
    timestamp not after the one before it.
    """
    timestamp, a, b = [], [], []
    for line, (ts, x, y) in csv_records(
            body, 3, lambda f: (parse_utc_timestamp(f[0]), float(f[1]), float(f[2])), path):
        if increasing and timestamp and ts <= timestamp[-1]:
            raise DataError("timestamps must be strictly increasing", path=path, line=line)
        timestamp.append(ts)
        a.append(x)
        b.append(y)
    return _session(*(np.array(col, dtype=float) for col in (timestamp, a, b)), calibration)


def session_from_text(body, calibration=None, increasing=False, path=None):
    """Session of the CSV text that follows a header line, whose first
    line is line 2 of `path`; the values are voltages when `calibration`
    is given, else brightness temperatures.

    A body of canonical stamps and plain numbers is parsed in bulk.
    Anything else (other stamp forms, quoted fields, blank lines of
    spaces, Unicode digits, a bad or missing field, or, with `increasing`,
    time that does not strictly increase) goes to session_from_records,
    which returns the same columns or raises the DataError of the first
    bad line.
    """
    columns = _bulk_columns(body, increasing)
    if columns is None:
        return session_from_records(body, calibration, increasing, path)
    return _session(*columns, calibration)


def _session_body(path, calibration):
    """(body, calibration) of a session file, the calibration None for a
    TB file, or the DataError of a file that cannot be read or whose
    header is not a session's."""
    try:
        header, body = split_header(read_text(path), path)
    except DataError as exc:
        return exc
    if header is None:
        return DataError("empty session file", path=path)
    if header == TB_HEADER:
        return body, None
    if header != VOLTAGE_HEADER:
        return DataError(f"unrecognized session header {','.join(header)!r}", path=path, line=1)
    if calibration is None:
        return DataError("voltage session requires calibration parameters", path=path, line=1)
    return body, calibration


def _parsed_alone(path, file):
    """The Session of one _session_body result parsed by session_from_text,
    or its DataError."""
    if isinstance(file, DataError):
        return file
    try:
        return session_from_text(*file, increasing=True, path=path)
    except DataError as exc:
        return exc


def load_session(paths, calibration=None, skip_leading=0):
    """Read session CSVs: for each of `paths` in order, its Session or the
    DataError that names the file's fault.

    Accepts either brightness-temperature files (timestamp,tb_h,tb_v) or
    raw-voltage files (timestamp,v_h,v_v); the latter require calibration
    parameters. `skip_leading` drops warm-up samples from the front.
    Timestamps must be strictly increasing.

    Two or more bodies that the bulk path may take are parsed as one, by
    one np.loadtxt and one stamp decode, and cut per file; a file whose
    time does not strictly increase, and every file when the joint parse
    fails, is then parsed alone by session_from_text. So each file gets
    the Session or the DataError that it gets alone.
    """
    files = [_session_body(path, calibration) for path in paths]
    sessions = [None] * len(files)
    # a lone file goes straight to session_from_text, checked once there
    bulk = [k for k, file in enumerate(files) if len(files) > 1
            and not isinstance(file, DataError) and _bulk_ready(file[0])]
    joint = _joint_columns([files[k][0] for k in bulk]) if len(bulk) > 1 else None
    if joint is not None:
        timestamp, a, b, counts = joint
        start = 0
        for k, n in zip(bulk, counts):
            cut = slice(start, start + n)
            start += n
            if _increasing(timestamp[cut]):
                sessions[k] = _session(timestamp[cut], a[cut], b[cut], files[k][1])
    out = []
    for path, file, session in zip(paths, files, sessions):
        if session is None:
            session = _parsed_alone(path, file)
        if skip_leading and isinstance(session, Session):
            session = session.select(slice(skip_leading, None))
        out.append(session)
    return out


def write_session(fh, session, flags=None):
    """Write a Session to an open text file in the TB session schema, with
    a flags column when `flags` (filter_tb's bitmasks of these records)
    has any set."""
    header = TB_HEADER
    values = map("{:.6f},{:.6f}".format, session.tb_h.tolist(), session.tb_v.tolist())
    if flags is not None and np.any(flags):
        # one label per distinct bitmask
        labels = {bits: "|".join(sorted(f.value for f in flags_of(bits)))
                  for bits in np.unique(flags).tolist()}
        header = (*TB_HEADER, "flags")
        values = map("{},{}".format, values, map(labels.__getitem__, flags.tolist()))
    fh.write(session_text(header, session.timestamp, values))
