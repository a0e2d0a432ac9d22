"""Screening, representative statistics and session ingestion."""

import csv
import datetime as dt
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lbandsm import preprocess as pp, synth
from lbandsm.errors import DataError, DomainError, csv_records, read_text
from lbandsm.radiative import L_BAND_GHZ, TbPair, simulate_tb
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
    session = pp.session_from_records(
        f"2023-11-11T14:00:00Z,{v_h!r},{v_v!r}\n", calibration=cal)
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
    body = "".join(f"{pp.format_utc_timestamps([1.7e9 + k])[0]},{a!r},{b!r}\n"
                   for k, (a, b) in enumerate(volts.tolist()))
    session = pp.session_from_records(body, calibration=cal)
    for (a, b), tb_h, tb_v in zip(volts.tolist(), session.tb_h.tolist(),
                                  session.tb_v.tolist()):
        assert tb_h == cal.gain_h * a + cal.offset_h
        assert tb_v == cal.gain_v * b + cal.offset_v


@pytest.mark.parametrize("values", [
    (0.0, 1.0, 0.0, 0.0), (float("nan"), 1.0, 0.0, 0.0), (1.0, float("inf"), 0.0, 0.0),
    (1.0, 1.0, float("-inf"), 0.0), (1.0, 1.0, 0.0, float("nan")),
], ids=["gain_h_zero", "gain_h_nan", "gain_v_inf", "offset_h_-inf", "offset_v_nan"])
def test_calibrate_zero_gain_rejected(values):
    with pytest.raises(DomainError):
        pp.CalibrationParams(*values)


# ----------------------------------------------------------------------
# Physical floor
# ----------------------------------------------------------------------

def test_min_threshold_bare_smooth_frozen():
    surface = make_surface(0.20, "bare_soil", 40.0, h=0.0)
    tb_min_h, tb_min_v = pp.min_threshold(surface, 292.15, L_BAND_GHZ)
    # frozen saturation-moisture forward chain (oracle composition)
    assert tb_min_h == pytest.approx(74.700059347643695, rel=1e-12)
    assert tb_min_v == pytest.approx(115.48778743214935, rel=1e-12)
    assert tb_min_v > tb_min_h
    assert tb_min_h < 320.0 and tb_min_v < 320.0


def test_min_threshold_tightens_with_canopy():
    # the floor is the canopy-free forward model at saturation; any canopy
    # opacity raises it
    surface = make_surface(0.20, "grassland", 40.0)
    floor = pp.min_threshold(surface, 290.0, L_BAND_GHZ)
    assert floor == tuple(float(tb) for tb in simulate_tb(
        1.0, 0.0, 0.05, surface.h, 0.20, 40.0, 290.0, frequency_ghz=L_BAND_GHZ))
    veg_h, veg_v = simulate_tb(1.0, 0.2, 0.05, surface.h, 0.20, 40.0, 290.0,
                               frequency_ghz=L_BAND_GHZ)
    assert veg_h > floor[0] and veg_v > floor[1]


def test_min_threshold_is_the_forward_model_bit_for_bit():
    """The floor from the cached sm = 1 emissivities equals simulate_tb at
    sm = 1 and tau = 0 bit for bit over 14,400 (surface, frequency, t_e)
    cases, from the smallest subnormal temperature to infinity."""
    t_es = [5e-324, 1e-300, 1e-3, 180.0, 273.15, 292.15, 350.0, 1e300,
            sys.float_info.max, math.inf]
    cases = 0
    for clay in np.linspace(0.0, 1.0, 10).tolist():
        for incidence in (0.0, 10.0, 30.0, 40.0, 55.0, 70.0):
            for h in (0.0, 0.1, 0.4612, 1.2):
                for omega in (0.0, 0.05, 0.5):
                    surface = make_surface(clay, "bare_soil", incidence, h=h)
                    for frequency in (1.2, L_BAND_GHZ):
                        for t_e in t_es:
                            with np.errstate(invalid="ignore"):   # 0 * inf
                                want = simulate_tb(1.0, 0.0, omega, h, clay, incidence,
                                                   t_e, frequency_ghz=frequency)
                            got = pp.min_threshold(surface, t_e, frequency)
                            assert np.array(got).tobytes() == np.array(want).tobytes(), \
                                (surface, frequency, t_e)
                            cases += 1
    assert cases == 14_400


@pytest.mark.parametrize("t_e", [0.0, float("nan")])
def test_min_threshold_domain_checks(t_e):
    surface = make_surface(0.20, "grassland", 40.0)
    with pytest.raises(DomainError, match="t_e must be positive"):
        pp.min_threshold(surface, t_e, L_BAND_GHZ)


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
    assert pp.representative(pp.session_stats(session)).tb_v == 252.0


def test_representative_median_even_averages_middle_pair():
    session = columns([(240.0, 250.0), (241.0, 252.0)])
    assert pp.representative(pp.session_stats(session)).tb_v == 251.0
    assert pp.representative(pp.session_stats(session)).tb_h == 240.5


def test_representative_median_matches_sort_oracle():
    rng = np.random.default_rng(17)
    values_h = rng.uniform(150, 300, 1000)
    values_v = rng.uniform(160, 310, 1000)
    got = pp.representative(pp.session_stats(columns(list(zip(values_h, values_v)))))
    assert got.tb_h == pytest.approx(oracles.sort_median(values_h), abs=1e-12)
    assert got.tb_v == pytest.approx(oracles.sort_median(values_v), abs=1e-12)


@pytest.mark.parametrize("statistic,q", [(pp.Statistic.P25, 25), (pp.Statistic.P75, 75)])
def test_representative_quartiles_match_oracle(statistic, q):
    rng = np.random.default_rng(23)
    values_h = rng.uniform(150, 300, 501)
    values_v = values_h + rng.uniform(1, 40, 501)
    got = pp.representative(pp.session_stats(columns(list(zip(values_h, values_v)))),
                            statistic)
    assert got.tb_h == pytest.approx(oracles.sort_percentile(values_h, q), abs=1e-9)
    assert got.tb_v == pytest.approx(oracles.sort_percentile(values_v, q), abs=1e-9)


def test_representative_order_independent():
    rng = np.random.default_rng(29)
    session = columns([(h, h + 10) for h in rng.uniform(150, 300, 101)])
    order = list(range(len(session)))
    rng.shuffle(order)
    shuffled = session.select(np.array(order))
    for statistic in pp.Statistic:
        assert pp.representative(pp.session_stats(session), statistic) == \
            pp.representative(pp.session_stats(shuffled), statistic)


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
    reps = [pp.representative(summary, statistic) for statistic in pp.Statistic]
    assert sorts == [500, 500]
    monkeypatch.undo()
    assert summary == pp.session_stats(fresh)
    assert reps == [pp.representative(pp.session_stats(fresh), statistic)
                    for statistic in pp.Statistic]


def test_representative_empty_errors():
    with pytest.raises(DomainError, match="no valid observations"):
        pp.representative(pp.session_stats(columns([])))


def test_session_stats_empty_errors():
    with pytest.raises(DomainError, match="no valid observations"):
        pp.session_stats(columns([]))


def test_session_stats_constant_series():
    summary = pp.session_stats(columns([(260.0, 270.0)] * 10))
    assert summary.stats_h.std == 0.0
    assert summary.stats_h.p25 == summary.stats_h.p50 == summary.stats_h.p75 == 260.0


def test_session_stats_population_std():
    summary = pp.session_stats(columns([(v, v + 5) for v in (258.0, 260.0, 262.0)]))
    assert summary.stats_h.mean == pytest.approx(260.0)
    assert summary.stats_h.std == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)


def test_session_stats_quartiles_match_oracle():
    rng = np.random.default_rng(31)
    values = rng.uniform(150, 320, 500)
    session = columns([(v, v + 3) for v in values])
    summary = pp.session_stats(session)
    assert summary.stats_h.p25 == pytest.approx(oracles.sort_percentile(values, 25), abs=1e-9)
    assert summary.stats_h.p50 == pytest.approx(oracles.sort_median(values), abs=1e-9)
    assert summary.stats_h.p75 == pytest.approx(oracles.sort_percentile(values, 75), abs=1e-9)
    assert summary.stats_h.p25 <= summary.stats_h.p50 <= summary.stats_h.p75
    assert min(values) <= summary.stats_h.p50 <= max(values)
    assert pp.representative(summary).tb_h == summary.stats_h.p50


def _hex(value):
    """float.hex, with every NaN alike."""
    return "nan" if math.isnan(value) else float(value).hex()


def _channel_draws(n, rng):
    """Channels of n records: uniform, tied integers, and tied integers
    mixed with signed zeros and infinities, then with NaN as well."""
    ties = rng.integers(-3, 4, n).astype(float)
    yield rng.uniform(150.0, 320.0, n)
    yield ties
    for specials in ([0.0, -0.0, np.inf, -np.inf], [0.0, -0.0, np.nan, np.inf, -np.inf]):
        yield np.where(rng.random(n) < 0.3, rng.choice(specials, n), ties)


def test_reductions_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(53)
    for n in [*range(1, 258), 5997]:
        draws = list(_channel_draws(n, rng))
        for tb_h, tb_v in zip(draws, draws[1:] + draws[:1]):
            session = pp.Session(np.arange(n, dtype=float), tb_h, tb_v)
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # non-finite records reduce silently
                summary = pp.session_stats(session)
                reps = {s: pp.representative(summary, s) for s in pp.Statistic}
            for name, stats, x in (("tb_h", summary.stats_h, tb_h),
                                   ("tb_v", summary.stats_v, tb_v)):
                x = np.sort(x)
                with np.errstate(invalid="ignore", over="ignore"):
                    median, mean, std = np.median(x), np.mean(x), np.std(x)
                    p25, p50, p75 = np.percentile(x, [25, 50, 75])
                got = [getattr(pp.representative(summary), name), stats.mean, stats.std,
                       stats.p25, stats.p50, stats.p75,
                       *(getattr(reps[s], name) for s in pp.Statistic)]
                want = [median, mean, std, p25, p50, p75,
                        *({pp.Statistic.MEDIAN: median, pp.Statistic.MEAN: mean,
                           pp.Statistic.P25: p25, pp.Statistic.P75: p75}[s]
                          for s in pp.Statistic)]
                assert list(map(_hex, got)) == list(map(_hex, want)), (n, x.tolist())


def test_sorted_median_of_timestamps_halves_middle_pair():
    rng = np.random.default_rng(59)
    for n in range(1, 40):
        stamps = 1.7e9 + np.cumsum(rng.uniform(0.001, 1.0, n))
        mid = n // 2
        want = stamps[mid] if n % 2 else 0.5 * (float(stamps[mid - 1]) + float(stamps[mid]))
        assert _hex(pp.sorted_median(stamps)) == _hex(want)


# ----------------------------------------------------------------------
# Session CSV ingestion
# ----------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_one(path, **kwargs):
    """load_session of one file: its Session, or its DataError raised."""
    (session,) = pp.load_session([path], **kwargs)
    if isinstance(session, DataError):
        raise session
    return session


def test_load_session_tb(tmp_path):
    path = _write(tmp_path, "s.csv",
                  "timestamp,tb_h,tb_v\n"
                  "2023-11-11T14:00:00Z,250.1,260.2\n"
                  "2023-11-11T14:00:01Z,250.3,260.4\n")
    session = load_one(path)
    assert len(session) == 2
    assert session.tb_h[0] == 250.1
    assert session.timestamp[1] - session.timestamp[0] == pytest.approx(1.0)


def test_load_session_voltage_requires_calibration(tmp_path):
    path = _write(tmp_path, "v.csv",
                  "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n")
    with pytest.raises(DataError, match="calibration"):
        load_one(path)
    session = load_one(path, calibration=pp.CalibrationParams(100.0, 100.0))
    assert session.tb_h[0] == pytest.approx(250.0)
    assert session.tb_v[0] == pytest.approx(260.0)


def test_load_session_huge_gain_calibrates_to_inf_without_warning(tmp_path):
    path = _write(tmp_path, "v.csv",
                  "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        session = load_one(path, calibration=pp.CalibrationParams(gain_h=1e308))
    assert session.tb_h.tolist() == [math.inf]
    assert session.tb_v.tolist() == [2.6]


def test_load_session_rejects_unknown_header(tmp_path):
    path = _write(tmp_path, "bad.csv", "time,a,b\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        load_one(path)


def test_load_session_requires_increasing_timestamps(tmp_path):
    path = _write(tmp_path, "bad.csv",
                  "timestamp,tb_h,tb_v\n"
                  "2023-11-11T14:00:01Z,250,260\n"
                  "2023-11-11T14:00:00Z,251,261\n")
    with pytest.raises(DataError, match="bad.csv:3"):
        load_one(path)


def test_load_session_reports_bad_line(tmp_path):
    path = _write(tmp_path, "bad.csv",
                  "timestamp,tb_h,tb_v\n2023-11-11T14:00:00Z,oops,260\n")
    with pytest.raises(DataError, match="bad.csv:2"):
        load_one(path)


def test_load_session_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        load_one(path)


def test_load_session_skip_leading(tmp_path):
    rows = "\n".join(f"2023-11-11T14:00:{i:02d}Z,25{i},26{i}" for i in range(5))
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + rows + "\n")
    session = load_one(path, skip_leading=2)
    assert len(session) == 3
    assert session.tb_h[0] == 252.0
    assert session.timestamp[0] == pp.parse_utc_timestamp("2023-11-11T14:00:02Z")


def test_timestamp_round_trip():
    ts = pp.parse_utc_timestamp("2023-11-25T14:03:07.138000Z")
    assert pp.format_utc_timestamps([ts])[0] == "2023-11-25T14:03:07.138000Z"
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
    stamps = [pp.format_utc_timestamps([float(e)])[0] for e in epochs]
    assert any("." in s for s in stamps) and any("." not in s for s in stamps)
    body = "".join(f"{s},250,260\n" for s in stamps)
    timestamp, _, _ = pp._bulk_columns(body, increasing=False)   # the bulk path
    assert timestamp.tolist() == [pp.parse_utc_timestamp(s) for s in stamps]


# ----------------------------------------------------------------------
# Stamp codec: the columnar formatter against datetime, and back
# ----------------------------------------------------------------------

def _codec_epochs():
    """Epochs from 1700 to 2199 (negative before 1970) of both stamp
    widths, and exact half-microsecond ties: an odd multiple of 1/128 s
    is an odd multiple of 7812.5 us."""
    rng = np.random.default_rng(1811)
    lo = pp.parse_utc_timestamp("1700-01-01T00:00:00Z")
    hi = pp.parse_utc_timestamp("2200-01-01T00:00:00Z")
    return np.concatenate([
        np.round(rng.uniform(lo, hi, 400)),
        rng.uniform(lo, hi, 2000),
        np.floor(rng.uniform(lo, hi, 400)) + (2 * rng.integers(0, 64, 400) + 1) / 128,
        rng.uniform(-5.0, 5.0, 200),
        [-1.5, -2.5e-7, 0.0, 5e-7, 1.5e-6, 1.7e9 + 1 / 128, -1.7e9 - 3 / 128],
    ])


def test_stamps_format_as_datetime_isoformat():
    epochs = _codec_epochs()
    assert (epochs < 0).any() and (np.modf(epochs)[0] * 1e6 % 1 == 0.5).any()
    want = [dt.datetime.fromtimestamp(t, dt.timezone.utc).isoformat().replace("+00:00", "Z")
            for t in epochs.tolist()]
    assert {len(s) for s in want} == {20, 27}
    assert pp.format_utc_timestamps(epochs) == want
    assert [pp.format_utc_timestamps([t])[0] for t in epochs[::50].tolist()] == want[::50]
    assert pp.format_utc_timestamps(np.array([])) == []


def test_formatted_stamps_decode_as_parsed():
    stamps = pp.format_utc_timestamps(_codec_epochs())
    body = "".join(f"{s},250,260\n" for s in stamps)
    assert pp._bulk_columns(body, increasing=False) is not None    # the bulk path
    session = pp.session_from_text(body)
    assert session.timestamp.tolist() == [pp.parse_utc_timestamp(s) for s in stamps]


@pytest.mark.parametrize("year, leap", [(1900, False), (2000, True), (2023, False),
                                        (2024, True)])
def test_29_february_decodes_in_leap_years_only(tmp_path, year, leap):
    stamps = [f"{year}-02-28T23:59:59Z", f"{year}-02-29T00:00:00.500000Z",
              f"{year}-03-01T00:00:01Z"]
    body = "".join(f"{s},250,260\n" for s in stamps)
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + body)
    if leap:
        session = load_one(path)
        assert session.timestamp.tolist() == [pp.parse_utc_timestamp(s) for s in stamps]
        assert pp.format_utc_timestamps(session.timestamp) == stamps
    else:
        with pytest.raises(DataError) as exc:
            load_one(path)
        assert (exc.value.path, exc.value.line) == (path, 3)


@pytest.mark.parametrize("epoch", [math.nan, math.inf, -math.inf,
                                   pp.parse_utc_timestamp("0001-01-01T00:00:00Z") - 1.0,
                                   pp.parse_utc_timestamp("9999-12-31T23:59:59Z") + 1.0])
def test_unformattable_epoch_is_a_value_error(epoch):
    with pytest.raises(ValueError):
        pp.format_utc_timestamps([1.7e9, epoch])
    with pytest.raises(ValueError):
        pp.format_utc_timestamps([epoch])[0]


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
    session = load_one(path)
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
        load_one(path)
    assert str(exc.value) == f"{path}:4: {per_row.value}"


def test_bad_date_in_a_long_session_is_a_data_error(tmp_path):
    # one record a day: more than 500 runs of one date, the size at which
    # a bytes -> datetime64 cast of a bad date crashed the interpreter;
    # run in a child process, so that a crash fails this test only
    day = dt.date(2020, 1, 1)
    rows = [f"{day + dt.timedelta(days=k)}T14:00:00Z,250,260" for k in range(1200)]
    rows[1000] = "2023-02-29T14:00:00Z,250,260"
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + "\n".join(rows) + "\n")
    code = ("import sys\n"
            "from lbandsm.errors import DataError\n"
            "from lbandsm.preprocess import load_session\n"
            "try:\n"
            "    (session,) = load_session([sys.argv[1]])\n"
            "    if isinstance(session, DataError):\n"
            "        raise session\n"
            "except DataError as exc:\n"
            "    print(exc)\n")
    src = str(Path(pp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True, env=env)
    with pytest.raises(ValueError) as per_row:
        pp.parse_utc_timestamp("2023-02-29T14:00:00Z")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"{path}:1002: {per_row.value}\n"


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
        load_one(path)
    line, message = want
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: {message}")


def test_blank_lines_skipped(tmp_path):
    path = _write(tmp_path, "s.csv",
                  "timestamp,tb_h,tb_v\n\n2023-11-11T14:00:00Z,250,260\n  \n"
                  "2023-11-11T14:00:01Z,251,261\n\n")
    session = load_one(path)
    assert session.tb_h.tolist() == [250.0, 251.0]


def test_csv_records_ties_a_parse_fault_to_its_line():
    """A ValueError raised by parse, a DomainError among them, is a
    DataError at the line of its record; the records before it come
    first."""
    records = csv_records("1,2\n\n3,x\n5,6\n", 2, lambda fields: [float(v) for v in fields],
                          "p.csv")
    assert next(records) == (2, [1.0, 2.0])
    with pytest.raises(DataError) as exc:
        next(records)
    assert (exc.value.line, str(exc.value)) == (
        4, "p.csv:4: could not convert string to float: 'x'")

    def reject(fields):
        raise DomainError(f"{fields[0]} out of range")
    with pytest.raises(DataError, match="^line 2: 7 out of range$"):
        list(csv_records("7,8\n", 2, reject))


def test_load_session_header_only(tmp_path):
    session = load_one(_write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n"))
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
    """session_from_records: the parse of every input that the bulk path
    does not take."""
    return pp.session_from_records(body, calibration, increasing, path)


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
    # each run of one minute is read once: runs that cross a minute, an
    # hour, a day and a year
    "next_minute": _body("2023-11-11T14:00:59.999999Z", "2023-11-11T14:01:00Z",
                         "2023-11-11T14:01:00.000001Z"),
    "next_hour": _body("2023-11-11T14:59:59.931000Z", "2023-11-11T15:00:00Z",
                       "2023-11-11T15:00:00.069000Z"),
    "next_day": _body("2023-11-11T23:59:59.999999Z", "2023-11-12T00:00:00Z",
                      "2023-11-12T00:00:00.000001Z"),
    "next_year": _body("2023-12-31T23:59:59.900000Z", "2024-01-01T00:00:00.100000Z"),
    # characters that end or pad a line: loadtxt reads each \n-split line
    # and takes \r, \x0c, space and tab as float() takes them
    "trailing_cr": _body(*S) + "\r",
    "blank_crlf_lines": ("\r\n" + _body(S[0], end="\r\n") + "\r\n\r\n"
                         + _body(*S[1:], end="\r\n") + "\r\n"),
    "form_feed_before_lf": _body(*S, end="\x0c\n"),
    "spaced_values": _body(*S, values=[(" 250", "260 "), ("\t251", "261\t"),
                                       (" 252\t", "\t262")]),
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
    "minute_60": _body("2023-11-11T14:59:59Z", "2023-11-11T14:60:00Z"),
    "month_13": _body("2023-12-31T23:59:59Z", "2023-13-01T00:00:00Z"),
    "day_00": _body("2023-10-31T23:59:59Z", "2023-11-00T00:00:00Z"),
    "bad_date_in_a_later_minute": _body("2023-11-30T23:58:59Z", "2023-11-30T23:59:00Z",
                                        "2023-11-30T23:59:59.500000Z", "2023-11-31T00:00:00Z"),
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
    # line breaks that csv.reader takes and a \n split does not, a \x0b
    # that str.splitlines would take as one, and a # that is no comment
    "cr_between_records": _body(S[0], end="\r") + _body(*S[1:]),
    "cr_in_field": _body(*S, values=[("250", "260"), ("25\r1", "261"), ("252", "262")]),
    "cr_cr_lf": _body(*S, end="\r\r\n"),
    "vertical_tab_between_records": _body(S[0], end="\x0b") + _body(*S[1:]),
    "comment_after_value": _body(*S, values=[("250", "260"), ("251", "261 # note"),
                                             ("252", "262")]),
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


# the parse of each body above as frozen before the per-field path was
# rewritten (the minute-run bodies: before the bulk path read each run of
# one minute by parse_utc_timestamp; the line-break bodies: before loadtxt
# read the body's \n-split lines instead of a StringIO of it): a digest of
# the column bytes, or the DataError text
FROZEN = {
    'bad_date_in_a_later_minute': (
        "s.csv:5: bad timestamp '2023-11-31T00:00:00Z': day is out of range for month"),
    'bad_value': "s.csv:3: could not convert string to float: 'x'",
    'blank_crlf_lines': 'b9f5b6280a84e9a2',
    'blank_lines': 'b9f5b6280a84e9a2',
    'blank_only': '3cdb74a99566c5be',
    'comment_after_value': "s.csv:3: could not convert string to float: '261 # note'",
    'cr_between_records': 'b9f5b6280a84e9a2',
    'cr_cr_lf': '9e54e8e591ccfd4f',
    'cr_endings': '9e54e8e591ccfd4f',
    'cr_in_field': 's.csv:3: expected 3 fields, got 2',
    'crlf': '9e54e8e591ccfd4f',
    'day_00': "s.csv:3: bad timestamp '2023-11-00T00:00:00Z': day is out of range for month",
    'exponents': '5f66b9038f3b869c',
    'extra_field': 's.csv:5: expected 3 fields, got 4',
    'form_feed_before_lf': '9e54e8e591ccfd4f',
    'header_only': '3cdb74a99566c5be',
    'hour_24': "s.csv:3: bad timestamp '2023-11-11T24:00:00Z': hour must be in 0..23",
    'leap_day': 'ac9effb2529f2980',
    'lf': '9e54e8e591ccfd4f',
    'minute_60': "s.csv:3: bad timestamp '2023-11-11T14:60:00Z': minute must be in 0..59",
    'missing_field': 's.csv:4: expected 3 fields, got 2',
    'mixed_endings': 'b9f5b6280a84e9a2',
    'month_13': "s.csv:3: bad timestamp '2023-13-01T00:00:00Z': month must be in 1..12",
    'nan_inf': 'd0957b9a10d1f61e',
    'next_day': 'f04ca364a9ed4175',
    'next_hour': 'eeb8c88689ce410f',
    'next_minute': 'd5175c7c6813bf75',
    'next_year': 'cf2dc27cc56791ff',
    'no_trailing_newline': '9e54e8e591ccfd4f',
    'non_leap_day': "s.csv:3: bad timestamp '2023-02-29T00:00:00Z': day is out of range for month",
    'not_increasing': 's.csv:4: timestamps must be strictly increasing',
    'nul': '514d51dbf9b279f8',
    'over_wide_fraction': '12a676047a8a463d',
    'over_wide_offset': '12a676047a8a463d',
    'padded_stamp': '514d51dbf9b279f8',
    'quoted': '3d908fc269e5826b',
    'repeated_stamp': 's.csv:3: timestamps must be strictly increasing',
    'second_60': "s.csv:3: bad timestamp '2023-11-11T23:59:60Z': second must be in 0..59",
    'separator_x1c': "s.csv:2: could not convert string to float: '250\\x1c'",
    'spaced_values': '740e2f0cc24ad792',
    'trailing_cr': '9e54e8e591ccfd4f',
    'underscore': 'e5c6b59b11195b3f',
    'unicode_digits': 'fff7f1983c0164d4',
    'unicode_space': 'fff7f1983c0164d4',
    'vertical_tab_between_records': 's.csv:2: expected 3 fields, got 5',
    'whitespace_lines': 'b9f5b6280a84e9a2',
    'widths_20_27': '178313f25b3bf61f',
    'year_1699': 'd6e1b84cebd31903',
    'year_1700': 'eb7f84df6633d15e',
    'year_2199': 'e7f9f086d350e765',
    'year_2200': '64cdca3a5d054892',
}


def _frozen(parse, body):
    got = _result(parse, body)
    if isinstance(got, str):
        return got
    digest = hashlib.sha256()
    for dtype, data in got:
        digest.update(dtype.str.encode())
        digest.update(data)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_parse_matches_frozen_result(name):
    body = {**BULK, **PER_FIELD}[name]
    assert _frozen(pp.session_from_text, body) == FROZEN[name]
    assert _frozen(_per_field, body) == FROZEN[name]


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
    stamps = [pp.format_utc_timestamps([1.7e9 + 0.069 * k])[0] for k in range(200)]
    values = [("250.5", "260.25")] * 200
    values[150] = ("250.5", "2x0")
    path = _write(tmp_path, "s.csv", "timestamp,tb_h,tb_v\n" + _body(*stamps, values=values))
    with pytest.raises(DataError) as exc:
        load_one(path)
    assert str(exc.value) == f"{path}:152: could not convert string to float: '2x0'"


def test_synth_sessions_take_the_bulk_path(tmp_path):
    synth.generate_campaign(tmp_path, seed=3, n_days=3, n_samples=120)
    paths = sorted((tmp_path / "sessions").glob("*.csv"))
    assert len(paths) == 6      # TB and voltage files, with outliers
    for path in paths:
        _, body = pp.split_header(read_text(path))
        assert pp._bulk_columns(body, increasing=True) is not None, path
        assert _result(pp.session_from_text, body) == _result(_per_field, body)


def test_bulk_parse_reads_each_minute_once(tmp_path, monkeypatch):
    """The bulk path hands parse_utc_timestamp the first stamp of each run
    of one minute and nothing else: 7 or 8 calls for a session of 6,000
    samples 0.069 s apart."""
    synth.generate_campaign(tmp_path, seed=5, n_days=1, n_samples=6000)
    parse, calls = pp.parse_utc_timestamp, []

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(pp, "parse_utc_timestamp", counted)
    for path in sorted((tmp_path / "sessions").glob("*.csv")):
        _, body = pp.split_header(read_text(path))
        minutes = sorted({line[:16] for line in body.splitlines()})
        calls.clear()
        timestamp, _, _ = pp._bulk_columns(body, increasing=True)
        assert len(timestamp) == 6000 and len(minutes) in (7, 8)
        assert calls == [f"{minute}:00Z" for minute in minutes]


# ----------------------------------------------------------------------
# Files read together: the joint parse against each file read alone
# ----------------------------------------------------------------------

def _session_files(tmp_path):
    """Session files of every kind that load_session meets, those that the
    joint parse takes first; the last path does not exist."""
    epochs = 1.7e9 + 0.069 * np.arange(40)
    tb = pp.session_text(pp.TB_HEADER, epochs, (f"{250 + k % 7}.{k},{260 + k % 5}.25"
                                                  for k in range(40)))
    volt = pp.session_text(pp.VOLTAGE_HEADER, epochs + 86400.0,
                           (f"2.5{k},2.6{k}" for k in range(40)))
    lines = tb.split("\r\n")
    files = {
        "tb.csv": tb,
        "volt.csv": volt,
        "bom.csv": "\ufeff" + tb,
        "blank.csv": "\r\n".join(lines[:5] + ["", ""] + lines[5:9]) + "\n\n"
                     + "\n".join(lines[9:]),
        "non_increasing.csv": "\r\n".join(lines[:3] + lines[4:5] + lines[3:4] + lines[5:]),
        "header_only.csv": "timestamp,tb_h,tb_v\n",
        "unknown_header.csv": "time,a,b\n" + "\n".join(lines[1:]),
        "quoted.csv": "\r\n".join(lines[:3] + ['"' + lines[3].replace(",", '",', 1)]
                                  + lines[4:]),
        "bad_line.csv": "\r\n".join(lines[:6] + [lines[6].replace(",", ",oops", 1)]
                                    + lines[7:]),
        "feb29.csv": "timestamp,tb_h,tb_v\n2023-02-28T23:59:59Z,250,260\n"
                     "2023-02-29T00:00:00.500000Z,251,261\n",
    }
    paths = [_write(tmp_path, name, text) for name, text in files.items()]
    return paths + [tmp_path / "missing.csv"]


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, DataError):
            assert str(g) == str(w)
        else:
            for name in ("timestamp", "tb_h", "tb_v"):
                a, b = getattr(g, name), getattr(w, name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


@pytest.mark.parametrize("skip_leading", [0, 2])
def test_files_read_together_get_what_each_gets_alone(tmp_path, skip_leading):
    paths = _session_files(tmp_path)
    kwargs = dict(calibration=pp.CalibrationParams(gain_h=100.0, gain_v=99.5,
                                                   offset_h=0.25, offset_v=-1.0),
                  skip_leading=skip_leading)
    alone = [pp.load_session([path], **kwargs)[0] for path in paths]
    assert [isinstance(r, pp.Session) for r in alone] == \
        [True] * 4 + [False, True, False, True] + [False] * 3
    _assert_same_results(pp.load_session(paths, **kwargs), alone)
    for k in range(1, len(paths)):
        _assert_same_results(pp.load_session(paths[:k], **kwargs)
                             + pp.load_session(paths[k:], **kwargs), alone)


# what a fuzzed body may gain, half the time from each group: the stamp
# and number alphabet, and the characters where np.loadtxt, csv.reader
# and float() part ways, with non-ASCII digits and letters
_FUZZ_TEXT = (list("0123456789,.:-TZ+eE\"") + ["nan", "inf", "_"],
              list(" \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\0") + ["٣", "é", "\u2028", "\x85"])
_FUZZ_VALUES = ("{:.6f}", "{:g}", "{:.3e}", "{:.0f}", "+{:.2f}", " {:.4f}", "{:.6f} ")


def _fuzz_body(rng):
    """A session body: canonical stamps with values in one of several
    forms, then up to three edits (a character replaced, inserted or
    deleted, a line repeated, two swapped or two joined, a blank line or a
    stamp rewritten)."""
    n = int(rng.integers(1, 25))
    steps = rng.choice([0.0, 0.5, 0.069, 1.0, 60.0], size=n, p=[0.02, 0.3, 0.3, 0.3, 0.08])
    epochs = 1.7e9 + float(rng.uniform(0, 86400 * 400)) + np.cumsum(steps)
    form = _FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))]
    values = (f"{form.format(a)},{form.format(b)}"
              for a, b in rng.uniform(-5.0, 350.0, size=(n, 2)).tolist())
    lines = pp.session_text(("h",), epochs, values).split("\r\n")[1:-1]
    for _ in range(int(rng.choice([0, 0, 0, 1, 1, 2, 3]))):
        k = int(rng.integers(len(lines)))
        edit = int(rng.integers(8 if k + 1 < len(lines) else 7))   # 7 joins k and k + 1
        line = lines[k]
        # anywhere, at the end of the stamp or at either end of the last value
        at = int(rng.choice([rng.integers(len(line) + 1), line.find(","),
                             line.rfind(",") + 1, len(line)]))
        text = str(rng.choice(_FUZZ_TEXT[int(rng.integers(2))]))
        if edit == 7:
            lines[k:k + 2] = [line + text + lines[k + 1]]
        elif edit == 0:
            lines[k] = line[:at] + text + line[at + 1:]
        elif edit == 1:
            lines[k] = line[:at] + text + line[at:]
        elif edit == 2:
            lines[k] = line[:at] + line[at + 1:]
        elif edit == 3:
            lines.insert(k, line)
        elif edit == 4:
            j = int(rng.integers(len(lines)))
            lines[k], lines[j] = lines[j], line
        elif edit == 5:
            lines.insert(k, str(rng.choice(["", "\r", " ", ",,"])))
        else:
            lines[k] = line.replace("Z", str(rng.choice(["+00:00", "", "z", "Z "])), 1)
    end = str(rng.choice(["\r\n", "\n"]))
    return end.join(lines) + str(rng.choice([end, "", end + end]))


def test_fuzzed_bodies_parse_alike_on_every_path(tmp_path):
    """Seeded differential fuzz of session ingestion, under warnings-as-
    errors: load_session of several files gives each the Session or
    DataError that it gets alone, and every body that _bulk_columns takes
    gets the same columns, bit for bit, from session_from_records."""
    rng = np.random.default_rng(20231111)
    calibration = pp.CalibrationParams(gain_h=100.0, gain_v=99.5, offset_h=0.25, offset_v=-1.0)
    bulk = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(300):
            bodies = [_fuzz_body(rng) for _ in range(int(rng.integers(1, 5)))]
            paths = []
            for k, body in enumerate(bodies):
                header = pp.VOLTAGE_HEADER if rng.integers(2) else pp.TB_HEADER
                paths.append(tmp_path / f"t{trial}_{k}.csv")
                paths[-1].write_bytes((",".join(header) + "\n" + body).encode("utf-8"))
            skip = int(rng.integers(2))
            alone = [pp.load_session([path], calibration, skip)[0] for path in paths]
            _assert_same_results(pp.load_session(paths, calibration, skip), alone)
            for body in bodies:
                for increasing in (False, True):
                    columns = pp._bulk_columns(body, increasing)
                    if columns is None:
                        continue
                    bulk += 1
                    want = pp.session_from_records(body, increasing=increasing)
                    for got, name in zip(columns, ("timestamp", "tb_h", "tb_v")):
                        col = getattr(want, name)
                        assert (got.dtype, got.tobytes()) == (col.dtype, col.tobytes()), body
    assert bulk > 200     # the bulk path took a good share of the bodies


def test_joint_parse_takes_every_canonical_body(tmp_path):
    """The canonical bodies, the non-increasing one among them, parse as
    one, each cut at its record count with the blank lines "" and "\\r" not
    counted; a quoted field, a bad value or a bad date fails the whole."""
    paths = _session_files(tmp_path)
    bodies = [pp.split_header(read_text(path))[1] for path in paths[:5]]
    timestamp, a, b, counts = pp._joint_columns(bodies)
    assert counts == [40] * 5 and len(timestamp) == len(a) == len(b) == 200
    for path in paths[7:10]:
        body = pp.split_header(read_text(path))[1]
        assert pp._bulk_ready(body) and pp._joint_columns(bodies + [body]) is None, path


@pytest.mark.parametrize("text", [
    "", "\n", "timestamp,tb_h,tb_v", "timestamp,tb_h,tb_v\r\nrest\r\n",
    "a,b\rc,d\r", '"a\nb", c \nrest\n', '"' + "x" * 5000 + '\n",y\nrest'])
def test_split_header_matches_csv_reader(text):
    reader = csv.reader(io.StringIO(text, newline=""))
    fields = next(reader, None)
    header, body = pp.split_header(text)
    assert header == (None if fields is None else tuple(f.strip() for f in fields))
    assert list(csv.reader(io.StringIO(body, newline=""))) == list(reader)
