"""Reference aggregation and comparison statistics."""

import math

import numpy as np
import pytest

from lbandsm import validation as va
from lbandsm.errors import DataError, DomainError
from lbandsm.preprocess import mean_std

import oracles


def test_spatial_average():
    # the pipeline's spatial mean of a record's probes is mean_std's mean
    assert mean_std(va.ReferenceRecord(0.0, (0.2,) * 5, 290.0).point_sm)[0] == \
        pytest.approx(0.2)
    assert mean_std(va.ReferenceRecord(0.0, (0.1, 0.3), 290.0).point_sm)[0] == \
        pytest.approx(0.2)


def test_spatial_average_matches_direct_sum():
    rng = np.random.default_rng(1)
    points = tuple(rng.uniform(0.0, 0.6, 5))
    record = va.ReferenceRecord(0.0, points, 290.0)
    assert mean_std(record.point_sm)[0] == pytest.approx(sum(points) / 5.0, abs=1e-15)


def test_reductions_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(61)
    for n in range(2, 80):
        points = tuple(rng.uniform(0.0, 0.6, 1 + n % 7))
        assert [v.hex() for v in mean_std(points)] == \
            [float(np.mean(points)).hex(), float(np.std(points)).hex()]
        obs = rng.uniform(0.05, 0.5, n)
        ref = obs + rng.normal(0.0, 0.04, n) if n % 5 else np.full(n, 0.25)
        report = va.metrics(obs, ref)
        bias = float(np.mean(obs) - np.mean(ref))
        rmse = float(np.sqrt(np.mean((obs - ref) ** 2)))
        std_o, std_r = float(np.std(obs)), float(np.std(ref))
        assert (report.bias.hex(), report.rmse.hex()) == (bias.hex(), rmse.hex())
        assert report.ubrmse.hex() == math.sqrt(max(rmse * rmse - bias * bias, 0.0)).hex()
        if n % 5:
            cov = float(np.mean((obs - np.mean(obs)) * (ref - np.mean(ref))))
            assert report.r.hex() == max(-1.0, min(1.0, cov / (std_o * std_r))).hex()
        else:
            assert report.r_flag == "zero_variance"


def test_reference_record_invariants():
    with pytest.raises(DomainError):
        va.ReferenceRecord(0.0, (), 290.0)
    with pytest.raises(DomainError):
        va.ReferenceRecord(0.0, (0.2, 1.4), 290.0)


def test_metrics_identity():
    report = va.metrics([0.2, 0.3, 0.25], [0.2, 0.3, 0.25])
    assert report.bias == 0.0
    assert report.rmse == 0.0
    assert report.ubrmse == 0.0
    assert report.r == pytest.approx(1.0)
    assert report.r_flag == "ok"


def test_metrics_constant_offset():
    ref = [0.18, 0.25, 0.31, 0.22]
    obs = [v + 0.05 for v in ref]
    report = va.metrics(obs, ref)
    assert report.bias == pytest.approx(0.05, abs=1e-15)
    assert report.rmse == pytest.approx(0.05, abs=1e-15)
    assert report.ubrmse == pytest.approx(0.0, abs=1e-12)
    assert report.r == pytest.approx(1.0, abs=1e-12)


def test_metrics_match_direct_oracle():
    rng = np.random.default_rng(4)
    obs = rng.uniform(0.05, 0.5, 20)
    ref = rng.uniform(0.05, 0.5, 20)
    report = va.metrics(obs, ref)
    bias, rmse, ub, r = oracles.direct_metrics(list(obs), list(ref))
    assert report.bias == pytest.approx(bias, abs=1e-12)
    assert report.rmse == pytest.approx(rmse, abs=1e-12)
    assert report.ubrmse == pytest.approx(ub, abs=1e-12)
    assert report.r == pytest.approx(r, abs=1e-12)


def test_metrics_pythagorean_identity():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = rng.integers(2, 40)
        obs = rng.uniform(0.0, 0.6, n)
        ref = rng.uniform(0.0, 0.6, n)
        report = va.metrics(obs, ref)
        assert abs(report.rmse**2 - (report.bias**2 + report.ubrmse**2)) < 1e-12
        if report.r_flag == "ok":
            assert -1.0 <= report.r <= 1.0


def test_correlation_affine_invariant():
    rng = np.random.default_rng(13)
    obs = rng.uniform(0.1, 0.5, 25)
    ref = rng.uniform(0.1, 0.5, 25)
    base = va.metrics(obs, ref).r
    for a, b in [(2.0, 0.0), (0.5, 0.1), (7.3, -1.2)]:
        assert va.metrics(a * obs + b, ref).r == pytest.approx(base, abs=1e-12)


def test_bias_antisymmetric():
    rng = np.random.default_rng(21)
    obs = rng.uniform(0.1, 0.5, 12)
    ref = rng.uniform(0.1, 0.5, 12)
    assert va.metrics(obs, ref).bias == pytest.approx(-va.metrics(ref, obs).bias,
                                                      abs=1e-15)


def test_ubrmse_shift_invariant():
    rng = np.random.default_rng(27)
    obs = rng.uniform(0.1, 0.5, 15)
    ref = rng.uniform(0.1, 0.5, 15)
    base = va.metrics(obs, ref).ubrmse
    assert va.metrics(obs + 0.07, ref).ubrmse == pytest.approx(base, abs=1e-12)


def test_zero_variance_flags_correlation():
    report = va.metrics([0.2, 0.2, 0.2], [0.1, 0.3, 0.2])
    assert math.isnan(report.r)
    assert report.r_flag == "zero_variance"
    assert report.bias == pytest.approx(0.0, abs=1e-15)
    assert report.rmse > 0.0


def test_short_series_flagged():
    report = va.metrics([0.1, 0.4], [0.2, 0.3])
    assert report.n == 2
    assert report.r_flag == "short_series"
    assert abs(report.r) == pytest.approx(1.0)  # two points correlate exactly


def test_metrics_input_validation():
    with pytest.raises(DomainError):
        va.metrics([0.1, 0.2], [0.1])
    with pytest.raises(DomainError):
        va.metrics([0.1], [0.1])


# ----------------------------------------------------------------------
# Reference alignment
# ----------------------------------------------------------------------

def test_nearest_reference_window():
    records = [va.ReferenceRecord(t, (0.2,), 290.0) for t in (0.0, 1000.0)]
    assert va.nearest_reference(records, 900.0, window_s=200.0).timestamp == 1000.0
    assert va.nearest_reference(records, 500.0, window_s=200.0) is None


# ----------------------------------------------------------------------
# Reference CSV
# ----------------------------------------------------------------------

def test_load_reference_csv(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text(
        "timestamp,sm_1,sm_2,sm_3,sm_4,sm_5,soil_temp_k\n"
        "2023-11-11T14:05:00Z,0.21,0.22,0.20,0.23,0.19,289.5\n")
    records = va.load_reference_csv(path)
    assert len(records) == 1
    assert records[0].point_sm == (0.21, 0.22, 0.20, 0.23, 0.19)
    assert records[0].point_temperature_k == 289.5
    assert mean_std(records[0].point_sm)[0] == pytest.approx(0.21)


def test_load_reference_csv_flexible_point_count(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("timestamp,sm_1,sm_2,soil_temp_k\n"
                    "2023-11-11T14:05:00Z,0.2,0.3,290.0\n")
    assert va.load_reference_csv(path)[0].point_sm == (0.2, 0.3)


@pytest.mark.parametrize("bad_t", ["-5", "nan", "inf", "0", "1000"])
def test_load_reference_csv_bad_temperature_names_line(tmp_path, bad_t):
    path = tmp_path / "ref.csv"
    path.write_text("timestamp,sm_1,soil_temp_k\n"
                    "2023-11-11T14:05:00Z,0.2,290.0\n"
                    f"2023-11-12T14:05:00Z,0.2,{bad_t}\n")
    with pytest.raises(DataError, match=r"ref\.csv:3: .*temperature"):
        va.load_reference_csv(path)


def test_load_reference_csv_empty_file(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty reference file"):
        va.load_reference_csv(path)


def test_load_reference_csv_header_checked(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("timestamp,wetness,soil_temp_k\n2023-11-11T14:05:00Z,0.2,290\n")
    with pytest.raises(DataError, match="header"):
        va.load_reference_csv(path)


def test_load_reference_csv_bad_row(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("timestamp,sm_1,soil_temp_k\n2023-11-11T14:05:00Z,1.2,290\n")
    with pytest.raises(DataError, match="ref.csv:2"):
        va.load_reference_csv(path)
