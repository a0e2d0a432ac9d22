"""Screening, representative statistics and session ingestion."""

import csv
import io
import math
from collections import Counter

import numpy as np
import pytest

from lbandsm import preprocess as pp, synth
from lbandsm.errors import DataError, DomainError, read_text
from lbandsm.radiative import TbPair, ViewGeometry
from lbandsm.retrieval import make_surface

import oracles


THRESHOLDS = pp.FilterThresholds(tb_max=320.0, tb_min_h=150.0, tb_min_v=160.0)


def columns(pairs):
    """Session of (tb_h, tb_v) pairs stamped 0, 1, 2, ... seconds."""
    tb_h = np.array([h for h, _ in pairs], dtype=float)
    tb_v = np.array([v for _, v in pairs], dtype=float)
    return pp.Session(np.arange(len(tb_h), dtype=float), tb_h, tb_v)


def calibrated(cal, v_h, v_v):
    """Brightness temperatures of one voltage row under `cal`."""
    session = pp.session_from_rows(
        [["2023-11-11T14:00:00Z", repr(v_h), repr(v_v)]], calibration=cal)
    return TbPair(float(session.tb_h[0]), float(session.tb_v[0]))


def flags_of_first(pairs):
    """QualityFlags of the first record of `pairs` under THRESHOLDS."""
    return pp.flags_of(pp.filter_tb(columns(pairs), THRESHOLDS)[0])


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

def test_calibrate_identity():
    cal = pp.CalibrationParams(1.0, 1.0, 0.0, 0.0)
    tb = calibrated(cal, 250.0, 260.0)
    assert (tb.tb_h, tb.tb_v) == (250.0, 260.0)


def test_calibrate_gain_offset():
    cal = pp.CalibrationParams(100.0, 100.0, 10.0, 10.0)
    tb = calibrated(cal, 2.4, 2.5)
    assert tb.tb_h == pytest.approx(250.0)
    assert tb.tb_v == pytest.approx(260.0)


def test_calibrate_default_offsets_pass_through():
    # gain-only conversion with offsets left at their zero defaults
    cal = pp.CalibrationParams(gain_h=120.0, gain_v=118.0)
    assert cal.offset_h == 0.0 and cal.offset_v == 0.0
    tb = calibrated(cal, 2.0, 2.1)
    assert tb.tb_h == pytest.approx(240.0)
    assert tb.tb_v == pytest.approx(247.8)


def test_calibrate_matches_scalar_affine():
    rng = np.random.default_rng(41)
    cal = pp.CalibrationParams(101.3, 99.7, -3.25, 1.5)
    volts = rng.uniform(0.5, 3.5, size=(200, 2))
    rows = [[pp.format_utc_timestamp(1.7e9 + k), repr(a), repr(b)]
            for k, (a, b) in enumerate(volts.tolist())]
    session = pp.session_from_rows(rows, calibration=cal)
    for (a, b), tb_h, tb_v in zip(volts.tolist(), session.tb_h.tolist(),
                                  session.tb_v.tolist()):
        assert tb_h == cal.gain_h * a + cal.offset_h
        assert tb_v == cal.gain_v * b + cal.offset_v


def test_calibrate_zero_gain_rejected():
    with pytest.raises(DomainError):
        pp.CalibrationParams(0.0, 1.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# Physical floor
# ----------------------------------------------------------------------

def test_min_threshold_bare_smooth_frozen():
    surface = make_surface(0.20, "bare_soil", 40.0, h=0.0, omega=0.0)
    tb_min_h, tb_min_v = pp.min_threshold(surface, ViewGeometry(40.0), 292.15)
    # frozen saturation-moisture forward chain (oracle composition)
    assert tb_min_h == pytest.approx(74.700059347643695, rel=1e-12)
    assert tb_min_v == pytest.approx(115.48778743214935, rel=1e-12)
    assert tb_min_v > tb_min_h
    assert tb_min_h < 320.0 and tb_min_v < 320.0


def test_min_threshold_tightens_with_canopy():
    surface = make_surface(0.20, "grassland", 40.0)
    geom = ViewGeometry(40.0)
    bare_h, bare_v = pp.min_threshold(surface, geom, 290.0)
    veg_h, veg_v = pp.min_threshold(surface, geom, 290.0, tau_nadir=0.2)
    assert veg_h > bare_h and veg_v > bare_v


# ----------------------------------------------------------------------
# Filtering
# ----------------------------------------------------------------------

def test_filter_rejects_above_ceiling():
    flags = pp.filter_tb(columns([(250.0, 321.0)]), THRESHOLDS)
    assert flags[0] != 0
    assert pp.flags_of(flags[0]) == {pp.QualityFlag.MAX_EXCEEDED}


def test_filter_rejects_inverted_polarization():
    flags = pp.filter_tb(columns([(260.0, 255.0)]), THRESHOLDS)
    assert flags[0] != 0
    assert pp.flags_of(flags[0]) == {pp.QualityFlag.POL_ORDER_VIOLATED}


def test_filter_accepts_in_range():
    flags = pp.filter_tb(columns([(220.0, 250.0)]), THRESHOLDS)
    assert flags[0] == 0
    assert pp.flags_of(flags[0]) == frozenset()


def test_filter_rejects_below_floor():
    assert flags_of_first([(100.0, 140.0)]) == {pp.QualityFlag.MIN_VIOLATED}


def test_filter_multiple_flags():
    assert flags_of_first([(330.0, 140.0)]) == {pp.QualityFlag.MAX_EXCEEDED,
                                                pp.QualityFlag.MIN_VIOLATED,
                                                pp.QualityFlag.POL_ORDER_VIOLATED}


def test_filter_empty_input():
    flags = pp.filter_tb(columns([]), THRESHOLDS)
    assert flags.shape == (0,)
    assert pp.rejection_counts(flags) == {}


def test_filter_nan_is_rejected_with_flag():
    flags = pp.filter_tb(columns([(float("nan"), 250.0)]), THRESHOLDS)
    assert flags[0] != 0
    assert pp.QualityFlag.MAX_EXCEEDED in pp.flags_of(flags[0])


def test_filter_idempotent_on_accepted():
    rng = np.random.default_rng(3)
    tb_h = rng.uniform(100, 340, 500)
    session = pp.Session(np.arange(500.0), tb_h, tb_h + rng.uniform(-5, 40, 500))
    accepted = session.select(pp.filter_tb(session, THRESHOLDS) == 0)
    again = pp.filter_tb(accepted, THRESHOLDS)
    assert not again.any()
    kept = accepted.select(again == 0)
    for name in ("timestamp", "tb_h", "tb_v"):
        assert np.array_equal(getattr(kept, name), getattr(accepted, name))


def test_filter_flags_match_predicates():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        tb_h = rng.uniform(100.0, 340.0)
        tb_v = rng.uniform(100.0, 345.0)
        bits = pp.filter_tb(columns([(tb_h, tb_v)]), THRESHOLDS)[0]
        max_ok = tb_h <= 320.0 and tb_v <= 320.0
        min_ok = tb_h >= 150.0 and tb_v >= 160.0
        pol_ok = tb_v > tb_h
        if max_ok and min_ok and pol_ok:
            assert bits == 0
        else:
            flags = pp.flags_of(bits)
            assert (pp.QualityFlag.MAX_EXCEEDED in flags) == (not max_ok)
            assert (pp.QualityFlag.MIN_VIOLATED in flags) == (not min_ok)
            assert (pp.QualityFlag.POL_ORDER_VIOLATED in flags) == (not pol_ok)


def test_rejection_counts_match_per_record_flags():
    rng = np.random.default_rng(7)
    session = columns(list(zip(rng.uniform(100, 340, 3000), rng.uniform(100, 345, 3000))))
    flags = pp.filter_tb(session, THRESHOLDS)
    want = Counter(f for bits in flags for f in pp.flags_of(bits))
    assert pp.rejection_counts(flags) == want
    assert all(n > 0 for n in pp.rejection_counts(flags).values())


def test_thresholds_must_leave_room():
    with pytest.raises(DomainError):
        pp.FilterThresholds(tb_max=320.0, tb_min_h=330.0, tb_min_v=100.0)


# ----------------------------------------------------------------------
# Representative values and session statistics
# ----------------------------------------------------------------------

def test_representative_median_odd():
    session = columns([(240.0, v) for v in (250.0, 252.0, 254.0)])
    assert pp.representative(session).tb_v == 252.0


def test_representative_median_even_averages_middle_pair():
    session = columns([(240.0, 250.0), (241.0, 252.0)])
    assert pp.representative(session).tb_v == 251.0
    assert pp.representative(session).tb_h == 240.5


def test_representative_median_matches_sort_oracle():
    rng = np.random.default_rng(17)
    values_h = rng.uniform(150, 300, 1000)
    values_v = rng.uniform(160, 310, 1000)
    got = pp.representative(columns(list(zip(values_h, values_v))))
    assert got.tb_h == pytest.approx(oracles.sort_median(values_h), abs=1e-12)
    assert got.tb_v == pytest.approx(oracles.sort_median(values_v), abs=1e-12)


@pytest.mark.parametrize("statistic,q", [(pp.Statistic.P25, 25), (pp.Statistic.P75, 75)])
def test_representative_quartiles_match_oracle(statistic, q):
    rng = np.random.default_rng(23)
    values_h = rng.uniform(150, 300, 501)
    values_v = values_h + rng.uniform(1, 40, 501)
    got = pp.representative(columns(list(zip(values_h, values_v))), statistic)
    assert got.tb_h == pytest.approx(oracles.sort_percentile(values_h, q), abs=1e-9)
    assert got.tb_v == pytest.approx(oracles.sort_percentile(values_v, q), abs=1e-9)


def test_representative_order_independent():
    rng = np.random.default_rng(29)
    session = columns([(h, h + 10) for h in rng.uniform(150, 300, 101)])
    order = list(range(len(session)))
    rng.shuffle(order)
    shuffled = session.select(np.array(order))
    for statistic in pp.Statistic:
        assert pp.representative(session, statistic) == \
            pp.representative(shuffled, statistic)


def test_session_stats_order_independent():
    rng = np.random.default_rng(37)
    session = columns(list(zip(rng.uniform(150, 300, 4000), rng.uniform(160, 310, 4000))))
    shuffled = session.select(rng.permutation(len(session)))
    # SessionSummary compares every float exactly
    assert pp.session_stats(shuffled) == pp.session_stats(session)


def test_reductions_sort_each_channel_once(monkeypatch):
    rng = np.random.default_rng(41)
    session = columns(list(zip(rng.uniform(150, 300, 500), rng.uniform(160, 310, 500))))
    fresh = session.select(slice(None))
    sorts = []

    def counting_sort(a, *args, **kwargs):
        sorts.append(len(a))
        return np_sort(a, *args, **kwargs)

    np_sort = np.sort
    monkeypatch.setattr(np, "sort", counting_sort)
    summary = pp.session_stats(session)
    reps = [pp.representative(session, statistic) for statistic in pp.Statistic]
    assert sorts == [500, 500]
    monkeypatch.undo()
    assert summary == pp.session_stats(fresh)
    assert reps == [pp.representative(fresh, statistic) for statistic in pp.Statistic]


def test_representative_empty_errors():
    with pytest.raises(DomainError, match="no valid observations"):
        pp.representative(columns([]))


def test_session_stats_constant_series():
    summary = pp.session_stats(columns([(260.0, 270.0)] * 10))
    assert summary.stats_h.std == 0.0
    assert summary.stats_h.p25 == summary.stats_h.p50 == summary.stats_h.p75 == 260.0
    assert summary.n_accepted == 10


def test_session_stats_population_std():
    summary = pp.session_stats(columns([(v, v + 5) for v in (258.0, 260.0, 262.0)]))
    assert summary.stats_h.mean == pytest.approx(260.0)
    assert summary.stats_h.std == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)


def test_session_stats_quartiles_match_oracle():
    rng = np.random.default_rng(31)
    values = rng.uniform(150, 320, 500)
    summary = pp.session_stats(columns([(v, v + 3) for v in values]))
    assert summary.stats_h.p25 == pytest.approx(oracles.sort_percentile(values, 25), abs=1e-9)
    assert summary.stats_h.p50 == pytest.approx(oracles.sort_median(values), abs=1e-9)
    assert summary.stats_h.p75 == pytest.approx(oracles.sort_percentile(values, 75), abs=1e-9)
    assert summary.stats_h.p25 <= summary.stats_h.p50 <= summary.stats_h.p75
    assert min(values) <= summary.stats_h.p50 <= max(values)
    assert summary.representative.tb_h == summary.stats_h.p50


# ----------------------------------------------------------------------
# Session CSV ingestion
# ----------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_session_tb(tmp_path):
    path = _write(tmp_path, "s.csv",
                  "timestamp,tb_h,tb_v\n"
                  "2023-11-11T14:00:00Z,250.1,260.2\n"
                  "2023-11-11T14:00:01Z,250.3,260.4\n")
    session = pp.load_session(path)
    assert len(session) == 2
    assert session.tb_h[0] == 250.1
    assert session.timestamp[1] - session.timestamp[0] == pytest.approx(1.0)


def test_load_session_voltage_requires_calibration(tmp_path):
    path = _write(tmp_path, "v.csv",
                  "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n")
    with pytest.raises(DataError, match="calibration"):
        pp.load_session(path)
    session = pp.load_session(path, calibration=pp.CalibrationParams(100.0, 100.0))
    assert session.tb_h[0] == pytest.approx(250.0)
    assert session.tb_v[0] == pytest.approx(260.0)


def test_load_session_rejects_unknown_header(tmp_path):
    path = _write(tmp_path, "bad.csv", "time,a,b\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        pp.load_session(path)


def test_load_session_requires_increasing_timestamps(tmp_path):
    path = _write(tmp_path, "bad.csv",
                  "timestamp,tb_h,tb_v\n"
                  "2023-11-11T14:00:01Z,250,260\n"
                  "2023-11-11T14:00:00Z,251,261\n")
    with pytest.raises(DataError, match="bad.csv:3"):
        pp.load_session(path)


def test_load_session_reports_bad_line(tmp_path):
    path = _write(tmp_path, "bad.csv",
                  "timestamp,tb_h,tb_v\n2023-11-11T14:00:00Z,oops,260\n")
    with pytest.raises(DataError, match="bad.csv:2"):
        pp.load_session(path)


def test_load_session_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        pp.load_session(path)


def test_load_session_skip_leading(tmp_path):
    rows = "\n".join(f"2023-11-11T14:00:{i:02d}Z,25{i},26{i}" for i in range(5))
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + rows + "\n")
    session = pp.load_session(path, skip_leading=2)
    assert len(session) == 3
    assert session.tb_h[0] == 252.0
    assert session.timestamp[0] == pp.parse_utc_timestamp("2023-11-11T14:00:02Z")


def test_timestamp_round_trip():
    ts = pp.parse_utc_timestamp("2023-11-25T14:03:07.138000Z")
    assert pp.format_utc_timestamp(ts) == "2023-11-25T14:03:07.138000Z"
    assert pp.parse_utc_timestamp("2023-11-25T14:03:07+00:00") == \
        pp.parse_utc_timestamp("2023-11-25T14:03:07Z")


# ----------------------------------------------------------------------
# Bulk ingest against the per-row parse
# ----------------------------------------------------------------------

def test_bulk_timestamps_equal_per_row_parse():
    rng = np.random.default_rng(43)
    # whole seconds (no fraction written) and microsecond stamps, from
    # 1700 to 2199 and densely around the present
    epochs = np.concatenate([
        np.round(rng.uniform(-8.5e9, 7.25e9, 500)),
        np.round(rng.uniform(-8.5e9, 7.25e9, 500) * 1e6) / 1e6,
        np.round(1.7e9 + rng.uniform(0.0, 1e6, 1000) * 1e6) / 1e6,
    ])
    stamps = [pp.format_utc_timestamp(float(e)) for e in epochs]
    assert any("." in s for s in stamps) and any("." not in s for s in stamps)
    body = "".join(f"{s},250,260\n" for s in stamps)
    timestamp, _, _ = pp._bulk_columns(body, increasing=False)   # the bulk path
    assert timestamp.tolist() == [pp.parse_utc_timestamp(s) for s in stamps]


NON_CANONICAL = {
    "offset": "2023-11-11T16:00:0{k}+02:00",
    "naive": "2023-11-11T14:00:0{k}",
    "millis": "2023-11-11T14:00:0{k}.138Z",
    "tenths": "2023-11-11T14:00:0{k}.5Z",
    "seven_digits": "2023-11-11T14:00:0{k}.1234567Z",
    "minutes": "2023-11-11T14:0{k}Z",
    "basic": "20231111T14000{k}Z",
    "date_only": "2023-11-1{day}",
    "space": "2023-11-11 14:00:0{k}Z",
}


@pytest.mark.parametrize("form", sorted(NON_CANONICAL))
def test_non_canonical_stamps_take_per_row_result(tmp_path, form):
    # one non-canonical stamp among canonical ones sends the column down
    # the per-stamp path
    stamps = [f"2023-11-11T13:59:5{k}Z" for k in range(3)] + \
        [NON_CANONICAL[form].format(k=k, day=k + 2) for k in range(3)]
    rows = "".join(f"{s},{250 + k}.5,{260 + k}.25\n" for k, s in enumerate(stamps))
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + rows)
    assert pp._bulk_columns(rows, increasing=True) is None
    session = pp.load_session(path)
    assert session.timestamp.tolist() == [pp.parse_utc_timestamp(s) for s in stamps]
    assert session.tb_h.tolist() == [250.5 + k for k in range(6)]


@pytest.mark.parametrize("stamp", ["NaT", "", "2023-11-11T14:00:03+0x:00",
                                   "2023-11-11T14:00:03z",
                                   "2023-02-29T14:00:03Z", "2023-11-11T24:00:03Z",
                                   "2023-11-11T14:00:60Z", "0000-11-11T14:00:03Z"])
def test_bad_stamp_named_like_per_row_parse(tmp_path, stamp):
    rows = ["2023-11-11T14:00:00Z,250,260", "2023-11-11T14:00:01Z,250,260",
            f"{stamp},250,260", "2023-11-11T14:00:05Z,250,260"]
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as per_row:
        pp.parse_utc_timestamp(stamp)
    with pytest.raises(DataError) as exc:
        pp.load_session(path)
    assert str(exc.value) == f"{path}:4: {per_row.value}"


@pytest.mark.parametrize("lines,want", [
    # (data lines from line 2 on, first bad line and message)
    (["2023-11-11T14:00:00Z,250,260", "2023-11-11T14:00:01Z,x,260",
      "2023-11-11T14:00:00Z,250,260"], (3, "could not convert string to float: 'x'")),
    (["2023-11-11T14:00:01Z,250,260", "2023-11-11T14:00:00Z,250,260",
      "2023-11-11T14:00:02Z,x,260"], (3, "timestamps must be strictly increasing")),
    (["2023-11-11T14:00:00Z,250,260", "2023-11-11T14:00:01Z,250",
      "bad,250,260"], (3, "expected 3 fields, got 2")),
    (["2023-11-11T14:00:00Z,250,260", "", "   ", "2023-11-11T14:00:00Z,250,260",
      "2023-11-11T14:00:01Z,250"], (5, "timestamps must be strictly increasing")),
    (["2023-11-11T14:00:00Z,250,260", '"2023-11-11T14:00:01Z\n2023-11-11T14:00:02Z",250,260'],
     (3, "bad timestamp")),
])
def test_first_bad_line_in_file_order(tmp_path, lines, want):
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + "\n".join(lines) + "\n")
    with pytest.raises(DataError) as exc:
        pp.load_session(path)
    line, message = want
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: {message}")


def test_blank_lines_skipped(tmp_path):
    path = _write(tmp_path, "s.csv",
                  "timestamp,tb_h,tb_v\n\n2023-11-11T14:00:00Z,250,260\n  \n"
                  "2023-11-11T14:00:01Z,251,261\n\n")
    session = pp.load_session(path)
    assert session.tb_h.tolist() == [250.0, 251.0]


def test_load_session_header_only(tmp_path):
    session = pp.load_session(_write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n"))
    assert len(session) == 0
    assert session.timestamp.dtype == session.tb_h.dtype == np.float64


# ----------------------------------------------------------------------
# Bulk parse against the per-field parse of csv.reader rows
# ----------------------------------------------------------------------

def _body(*stamps, values=None, end="\n"):
    """Session body of one line per stamp, with distinct values unless
    `values` gives the (a, b) text of every line."""
    values = values or [(f"{250 + k}.5", f"{260 + k}.25") for k in range(len(stamps))]
    return "".join(f"{s},{a},{b}{end}" for s, (a, b) in zip(stamps, values))


def _result(parse, body, calibration=None):
    """A parse of `body` as comparable bits: each column's dtype and
    bytes, or the DataError text."""
    try:
        session = parse(body, calibration, increasing=True, path="s.csv")
    except DataError as exc:
        return str(exc)
    return [(col.dtype, col.tobytes()) for col in
            (session.timestamp, session.tb_h, session.tb_v)]


def _per_field(body, calibration=None, increasing=True, path=None):
    """session_from_rows over csv.reader rows: the parse of every input
    that the bulk path does not take."""
    rows = list(csv.reader(io.StringIO(body, newline="")))
    return pp.session_from_rows(rows, calibration, increasing, path)


S = ["2023-11-11T14:00:00Z", "2023-11-11T14:00:00.069000Z", "2023-11-11T14:00:01Z"]
BULK = {
    "lf": _body(*S),
    "crlf": _body(*S, end="\r\n"),
    "mixed_endings": _body(S[0], end="\r\n") + _body(*S[1:]),
    "no_trailing_newline": _body(*S)[:-1],
    "blank_lines": "\n" + _body(S[0]) + "\n\r\n" + _body(*S[1:]) + "\n",
    "widths_20_27": _body("2023-11-11T14:00:00.999999Z", "2023-11-11T14:00:01Z",
                          "2023-11-11T14:00:01.000001Z"),
    "year_1700": _body("1700-01-01T00:00:00Z", "1700-01-01T00:00:00.000001Z"),
    "year_2199": _body("2199-12-31T23:59:58.999999Z", "2199-12-31T23:59:59.999999Z"),
    "leap_day": _body("2024-02-28T23:59:59Z", "2024-02-29T00:00:00Z", "2024-03-01T00:00:00Z"),
    "nan_inf": _body(*S, values=[("nan", "inf"), ("-inf", "NaN"), ("-nan", "Infinity")]),
    "exponents": _body(*S, values=[("2.5e2", "+2.6E+2"), ("1e999", ".5"), ("-0", "7.")]),
}
PER_FIELD = {
    "whitespace_lines": _body(S[0]) + "   \n\t\n" + _body(*S[1:]),
    "cr_endings": _body(*S, end="\r"),
    "over_wide_fraction": _body("2023-11-11T14:00:00.1234567Z"),
    "over_wide_offset": _body("2023-11-11T14:00:00.123456+00:00"),
    "padded_stamp": _body(" 2023-11-11T14:00:00Z"),
    "year_1699": _body("1699-12-31T23:59:59Z", "1700-01-01T00:00:00Z"),
    "year_2200": _body("2199-12-31T23:59:59Z", "2200-01-01T00:00:00Z"),
    "non_leap_day": _body("2023-02-28T23:59:59Z", "2023-02-29T00:00:00Z"),
    "hour_24": _body("2023-11-11T23:59:59Z", "2023-11-11T24:00:00Z"),
    "second_60": _body("2023-11-11T23:59:59Z", "2023-11-11T23:59:60Z"),
    "quoted": _body(*S[:2], values=[('"250"', "260"), ("251", '"260.5"')]).replace(
        S[0], f'"{S[0]}"'),
    "underscore": _body(*S, values=[("1_0", "2_6_0")] * 3),
    "unicode_digits": _body(*S, values=[("\u0662\u0665\u0660", "\uff12\uff16\uff10")] * 3),
    "unicode_space": _body(*S, values=[("\u00a0250", "260\u3000")] * 3),
    "separator_x1c": _body(*S, values=[("250\x1c", "260")] * 3),
    "nul": _body(S[0]).replace("Z", "Z\0"),
    "bad_value": _body(*S, values=[("250", "260"), ("x", "260"), ("250", "")]),
    "missing_field": _body(*S[:2]) + S[2] + ",250\n",
    "extra_field": _body(*S) + "2023-11-11T14:00:02Z,250,260,1\n",
    "not_increasing": _body(S[0], S[2], S[1]),
    "repeated_stamp": _body(S[0], S[0]),
    "header_only": "",
    "blank_only": "\n\r\n\n",
}


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_parse_bit_equal_to_per_field(name):
    body = BULK[name]
    assert pp._bulk_columns(body, increasing=True) is not None
    assert _result(pp.session_from_text, body) == _result(_per_field, body)


@pytest.mark.parametrize("name", sorted(PER_FIELD))
def test_per_field_parse_where_bulk_declines(name):
    body = PER_FIELD[name]
    assert pp._bulk_columns(body, increasing=True) is None
    assert _result(pp.session_from_text, body) == _result(_per_field, body)


def test_bulk_parse_of_unordered_dates():
    # without the increase check a date may come back after another
    body = _body("2023-11-12T00:00:01Z", "2023-11-11T23:59:59.500000Z",
                 "2023-11-12T00:00:00Z", "1999-12-31T23:59:59Z")
    timestamp, _, _ = pp._bulk_columns(body, increasing=False)
    want = _per_field(body, increasing=False)
    assert timestamp.tobytes() == want.timestamp.tobytes()
    assert pp._bulk_columns(body, increasing=True) is None


def test_bulk_parse_calibrates_like_per_field():
    cal = pp.CalibrationParams(gain_h=100.0, gain_v=99.5, offset_h=0.25, offset_v=-1.0)
    body = _body(*S, values=[("2.51234567", "2.61234567")] * 3)
    assert pp._bulk_columns(body, increasing=True) is not None
    assert _result(pp.session_from_text, body, cal) == _result(_per_field, body, cal)


def test_bulk_parse_errors_name_the_first_bad_line(tmp_path):
    # a canonical file whose one bad value sends it down the per-field path
    stamps = [pp.format_utc_timestamp(1.7e9 + 0.069 * k) for k in range(200)]
    values = [("250.5", "260.25")] * 200
    values[150] = ("250.5", "2x0")
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + _body(*stamps, values=values))
    with pytest.raises(DataError) as exc:
        pp.load_session(path)
    assert str(exc.value) == f"{path}:152: could not convert string to float: '2x0'"


def test_synth_sessions_take_the_bulk_path(tmp_path):
    synth.generate_campaign(tmp_path, seed=3, n_days=3, n_samples=120)
    paths = sorted((tmp_path / "sessions").glob("*.csv"))
    assert len(paths) == 6      # TB and voltage files, with outliers
    for path in paths:
        _, body = pp.split_header(read_text(path))
        assert pp._bulk_columns(body, increasing=True) is not None, path
        assert _result(pp.session_from_text, body) == _result(_per_field, body)


@pytest.mark.parametrize("text", [
    "", "\n", "timestamp,tb_h,tb_v", "timestamp,tb_h,tb_v\r\nrest\r\n",
    "a,b\rc,d\r", '"a\nb", c \nrest\n', '"' + "x" * 5000 + '\n",y\nrest'])
def test_split_header_matches_csv_reader(text):
    reader = csv.reader(io.StringIO(text, newline=""))
    fields = next(reader, None)
    header, body = pp.split_header(text)
    assert header == (None if fields is None else tuple(f.strip() for f in fields))
    assert list(csv.reader(io.StringIO(body, newline=""))) == list(reader)
