"""Batch pipeline over the forward-generated synthetic campaign."""

import csv

import pytest

from lbandsm import pipeline, preprocess, synth
from lbandsm.config import load_campaign


@pytest.fixture(scope="module")
def report(campaign_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return pipeline.run_pipeline(campaign_config, output_dir=out)


def truth_map(synthetic_campaign):
    _, truth = synthetic_campaign
    return {(t.site, t.session_id): t for t in truth}


def test_every_session_processed(report, campaign_config):
    n_sessions = sum(len(s.session_paths) for s in campaign_config.sites)
    assert len(report.sessions) == n_sessions
    assert report.ok
    assert not any(r.error for r in report.sessions)


def test_injected_outliers_counted(report):
    from lbandsm.preprocess import QualityFlag
    for row in report.sessions:
        assert row.n_total == 60
        assert row.n_accepted == 57
        assert row.flag_counts[QualityFlag.MAX_EXCEEDED] == 1
        assert row.flag_counts[QualityFlag.MIN_VIOLATED] == 1
        assert row.flag_counts[QualityFlag.POL_ORDER_VIOLATED] == 1


def test_retrievals_cover_all_presets(report, campaign_config):
    presets = {p.name for p in campaign_config.presets}
    for row in report.sessions:
        rows = [r for r in report.retrievals
                if r.site == row.site and r.session_id == row.session_id]
        assert {r.preset for r in rows} == presets
        assert all(r.result is not None for r in rows)


def test_matching_presets_recover_truth(report, synthetic_campaign):
    tm = truth_map(synthetic_campaign)
    for r in report.retrievals:
        if r.preset in ("SCAV", "SCAH"):
            truth = tm[(r.site, r.session_id)]
            assert abs(r.result.sm - truth.sm_true) < 1e-3, (r.site, r.session_id)


def test_session_reference_matching(report, synthetic_campaign):
    tm = truth_map(synthetic_campaign)
    for row in report.sessions:
        truth = tm[(row.site, row.session_id)]
        assert row.t_e_measured == pytest.approx(truth.t_e, abs=1e-5)
        assert row.sm_ref == pytest.approx(truth.sm_true, abs=0.05)


def test_metrics_rows_per_site_and_preset(report, campaign_config):
    assert len(report.metrics_rows) == 2 * len(campaign_config.presets)
    for m in report.metrics_rows:
        assert m.n == 5
        assert m.report is not None
        # presets whose parameters mismatch generation carry a systematic
        # bias, but the bias-removed error stays small and the series
        # track the generating truth
        assert m.report.ubrmse < 0.05
        assert m.report.r > 0.5


def test_artifacts_written(report):
    names = {p.name for p in report.output_dir.iterdir()}
    assert {"sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv",
            "metrics.txt", "plot_tb_series.csv", "plot_sm_series.csv"} <= names
    table = (report.output_dir / "metrics.txt").read_text().splitlines()
    assert table[0].split() == ["site", "preset", "n", "bias", "rmse",
                                "ubrmse", "r"]
    assert len(table) == 1 + len(report.metrics_rows)


def test_rejection_histogram_artifact(report):
    with open(report.output_dir / "rejections.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    counts = {(r["site"], r["session"], r["flag"]): int(r["count"]) for r in rows}
    assert all(v == 1 for v in counts.values())
    flags = {k[2] for k in counts}
    assert flags == {"max_exceeded", "min_violated", "pol_order_violated"}


def test_plot_series_includes_reference_band(report):
    with open(report.output_dir / "plot_sm_series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        assert float(r["sm_ref_lo"]) <= float(r["sm_ref"]) <= float(r["sm_ref_hi"])


def test_reruns_byte_identical(campaign_config, tmp_path_factory):
    out1 = tmp_path_factory.mktemp("rerun1")
    out2 = tmp_path_factory.mktemp("rerun2")
    pipeline.run_pipeline(campaign_config, output_dir=out1)
    pipeline.run_pipeline(campaign_config, output_dir=out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_poisoned_session_isolated(tmp_path):
    # one session violating the polarization order everywhere must be
    # flagged without affecting its neighbours
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30,
                            voltage_site=None)
    bad_rows = ["timestamp,tb_h,tb_v"]
    bad_rows += [f"2023-11-20T14:00:{i:02d}Z,260.0,255.0" for i in range(30)]
    (root / "sessions" / "bare_2023-11-20.csv").write_text("\n".join(bad_rows) + "\n")
    cfg = load_campaign(root / "campaign.cfg")
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert report.ok
    bad = [s for s in report.sessions if s.session_id == "bare_2023-11-20"]
    assert bad and bad[0].error == "no valid observations in session"
    good = [s for s in report.sessions if s.error is None]
    assert len(good) == 4
    assert any("no valid observations" in w for w in report.warnings)


def test_corrupt_reference_file_isolates_site(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=3, n_days=2, n_samples=20,
                            voltage_site=None)
    (root / "ref_bare.csv").write_text(
        "timestamp,sm_1,soil_temp_k\nbroken,0.2,290\n")
    cfg = load_campaign(root / "campaign.cfg")
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert not report.ok
    assert any("ref_bare.csv:2" in e for e in report.data_errors)
    assert {s.site for s in report.sessions} == {"grass"}


def test_bad_probe_temperature_isolates_site(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=5, n_days=2, n_samples=20,
                            voltage_site=None)
    clean = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                  output_dir=tmp_path / "clean")
    ref = root / "ref_bare.csv"
    lines = ref.read_text().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:-1] + ["-5"])
    ref.write_text("\n".join(lines) + "\n")
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert not report.ok
    assert len(report.data_errors) == 1
    assert "ref_bare.csv:3:" in report.data_errors[0]
    assert "temperature" in report.data_errors[0]
    assert {s.site for s in report.sessions} == {"grass"}
    assert [r for r in report.retrievals if r.site == "grass"] == \
        [r for r in clean.retrievals if r.site == "grass"]
    assert [s for s in report.sessions if s.site == "grass"] == \
        [s for s in clean.sessions if s.site == "grass"]


def test_malformed_session_reported_not_fatal(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=9, n_days=2, n_samples=20,
                            voltage_site=None)
    (root / "sessions" / "bare_2023-11-21.csv").write_text(
        "timestamp,tb_h,tb_v\n2023-11-21T14:00:00Z,oops,260\n")
    cfg = load_campaign(root / "campaign.cfg")
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert not report.ok
    assert any("bare_2023-11-21.csv:2" in e for e in report.data_errors)
    # the other sessions still ran
    assert len(report.sessions) == 4


def test_empty_campaign_runs_with_warning(tmp_path):
    (tmp_path / "ref.csv").write_text(
        "timestamp,sm_1,soil_temp_k\n2023-11-11T14:05:00Z,0.2,290\n")
    (tmp_path / "campaign.cfg").write_text(
        "presets = DCA0\noutput_dir = out\n"
        "site.a.land_cover = bare_soil\nsite.a.clay_fraction = 0.2\n"
        "site.a.reference = ref.csv\n")
    cfg = load_campaign(tmp_path / "campaign.cfg")
    report = pipeline.run_pipeline(cfg)
    assert report.ok
    assert not report.sessions
    assert any("no session files" in w for w in report.warnings)
    assert (tmp_path / "out" / "metrics.csv").exists()


# ----------------------------------------------------------------------
# Fault-injection corpus
# ----------------------------------------------------------------------

REPORT_FILES = ("sessions.csv", "rejections.csv", "retrievals.csv",
                "plot_tb_series.csv", "plot_sm_series.csv", "metrics.csv")


def _report_lines(out_dir):
    """Report lines keyed by (file, site, session); metrics.csv rows are
    keyed by (file, site, preset)."""
    keyed = {}
    for name in REPORT_FILES:
        for line in (out_dir / name).read_text().splitlines()[1:]:
            site, second = line.split(",")[:2]
            keyed.setdefault((name, site, second), []).append(line)
    return keyed


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _set_field(lines, index, field, value):
    fields = lines[index].split(",")
    fields[field] = value
    lines[index] = ",".join(fields)
    return lines


def test_fault_injection_corpus(tmp_path):
    """One defect per session or site; the run completes, every data
    error names its file (and line where one exists), and the rows of
    untouched sessions are byte-equal to a clean run's."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=11, n_days=10, n_samples=30, voltage_site=None)
    cfg_path = root / "campaign.cfg"
    # no calibration block, so a voltage file is a data error
    config = [line for line in cfg_path.read_text().splitlines()
              if not line.startswith("calibration.")]
    for site, cover, clay, sessions, reference, reflectance in (
            ("knot", "grassland", 0.13, "grass", "ref_grass.csv", "refl_knot.csv"),
            ("ndvi", "grassland", 0.13, "grass", "ref_grass.csv", "refl_ndvi.csv"),
            ("probe", "bare_soil", 0.2, "bare", "ref_probe.csv", None)):
        config += [f"site.{site}.land_cover = {cover}",
                   f"site.{site}.clay_fraction = {clay}",
                   f"site.{site}.sessions = sessions/{sessions}_*.csv",
                   f"site.{site}.reference = {reference}"]
        if reflectance:
            config.append(f"site.{site}.reflectance = {reflectance}")
    cfg_path.write_text("\n".join(config) + "\n")
    for copy, original in (("refl_knot.csv", "reflectance_grass.csv"),
                           ("refl_ndvi.csv", "reflectance_grass.csv"),
                           ("ref_probe.csv", "ref_bare.csv")):
        (root / copy).write_text((root / original).read_text())

    clean = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "clean")
    assert clean.ok and not any(s.error for s in clean.sessions)
    assert {s.site for s in clean.sessions} == {"bare", "grass", "knot", "ndvi", "probe"}

    sessions = root / "sessions"
    day = {k: f"bare_2023-11-{11 + k}" for k in range(10)}

    def session_file(k):
        return sessions / f"{day[k]}.csv"

    # header-only file
    _rewrite(session_file(1), lambda lines: lines[:1])
    # NaN and inf values on records that are otherwise good
    _rewrite(session_file(2), lambda lines: _set_field(
        _set_field(lines, 2, 1, "nan"), 3, 2, "inf"))
    # non-monotone time: data rows 10 and 11 swapped (file lines 11, 12)
    _rewrite(session_file(3), lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:])
    # wrong field count on file line 8
    _rewrite(session_file(4), lambda lines: _set_field(lines, 7, 2, lines[7].split(",")[2] + ",1"))

    # the same instants written with a +02:00 offset: per-row path, same row
    def offset_stamps(lines):
        out = lines[:1]
        for line in lines[1:]:
            stamp, rest = line.split(",", 1)
            shifted = preprocess.format_utc_timestamp(
                preprocess.parse_utc_timestamp(stamp) + 7200.0)
            out.append(shifted.replace("Z", "+02:00") + "," + rest)
        return out
    _rewrite(session_file(5), offset_stamps)
    # a stamp that does not parse on file line 6
    _rewrite(session_file(6), lambda lines: _set_field(lines, 5, 0, "NaT"))

    # a voltage file without a calibration block
    def as_voltage(lines):
        out = ["timestamp,v_h,v_v"]
        for line in lines[1:]:
            stamp, tb_h, tb_v = line.split(",")
            out.append(f"{stamp},{float(tb_h) / 100.0:.8f},{float(tb_v) / 100.0:.8f}")
        return out
    _rewrite(session_file(7), as_voltage)
    # a probe temperature that lifts the floor above the ceiling (day 8)
    _rewrite(root / "ref_bare.csv", lambda lines: _set_field(lines, 9, -1, "1000"))
    # site defects: a one-knot reflectance file, a knot whose NDVI leaves
    # [-1, 1], a non-positive probe temperature
    _rewrite(root / "refl_knot.csv", lambda lines: lines[:2])
    _rewrite(root / "refl_ndvi.csv", lambda lines: _set_field(
        _set_field(lines, 2, 1, "-0.3"), 2, 2, "0.5"))
    _rewrite(root / "ref_probe.csv", lambda lines: _set_field(lines, 2, -1, "-5"))

    report = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "bad")

    errors = sorted(report.data_errors)
    want = sorted([
        f"{session_file(3)}:12: timestamps must be strictly increasing",
        f"{session_file(4)}:8: expected 3 fields, got 4",
        f"{session_file(6)}:6: bad timestamp 'NaT'",
        f"{session_file(7)}:1: voltage session requires calibration parameters",
        f"{session_file(8)}: minimum thresholds must lie below tb_max",
        f"{root / 'refl_knot.csv'}: need at least 2 samples to interpolate",
        f"{root / 'refl_ndvi.csv'}:3: reflectances must be in [0, 1]",
        f"{root / 'ref_probe.csv'}:3: ",
    ])
    assert len(errors) == len(want)
    for error, prefix in zip(errors, want):
        assert error.startswith(prefix), (error, prefix)
    assert {s.site for s in report.sessions} == {"bare", "grass"}

    rows = {s.session_id: s for s in report.sessions if s.site == "bare"}
    assert sorted(rows) == sorted(day[k] for k in (0, 1, 2, 5, 9))
    assert rows[day[1]].error == "empty session"
    assert rows[day[2]].n_accepted == 30 - 3 - 2
    assert rows[day[2]].flag_counts[preprocess.QualityFlag.MAX_EXCEEDED] == 1 + 2

    before, after = _report_lines(tmp_path / "clean"), _report_lines(tmp_path / "bad")
    untouched = [("bare", day[k]) for k in (0, 5, 9)] + \
        [("grass", s.session_id) for s in clean.sessions if s.site == "grass"]
    untouched += [("grass", preset) for preset in ("SCAV", "SCAH", "RDCA", "DCA0",
                                                   "DCA1", "DCA2")]
    compared = 0
    for key, lines in before.items():
        if key[1:] in untouched:
            assert after.get(key) == lines, key
            compared += len(lines)
    assert compared > 100


@pytest.mark.parametrize("target", ["session", "reference", "reflectance"])
def test_non_utf8_byte_is_data_error(tmp_path, target):
    """A byte that is not UTF-8 skips only the session or site of its
    file, as a data error naming the file and line."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=11, n_days=2, n_samples=30)
    path = {"session": root / "sessions" / "grass_2023-11-12.csv",
            "reference": root / "ref_grass.csv",
            "reflectance": root / "reflectance_grass.csv"}[target]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",", b",\xe9", 1)
    path.write_bytes(b"\n".join(lines))

    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert len(report.data_errors) == 1
    assert report.data_errors[0].startswith(
        f"{path}:3: 'utf-8' codec can't decode byte 0xe9")
    want = {"bare_2023-11-11", "bare_2023-11-12"}
    if target == "session":
        want.add("grass_2023-11-11")
    assert {s.session_id for s in report.sessions} == want
