"""Batch pipeline over the forward-generated synthetic campaign."""

import csv
import errno
import hashlib
import os

import pytest

from lbandsm import pipeline, preprocess, retrieval, synth
from lbandsm.config import load_campaign
from lbandsm.errors import DataError
from lbandsm.radiative import TbPair


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
    presets = {p.name for p in campaign_config.sites[0].presets}
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
    assert len(report.metrics_rows) == 2 * len(campaign_config.sites[0].presets)
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


def _artifact_digests(out_dir, root):
    """SHA-256 of every file in `out_dir`, with the campaign directory
    `root` that data errors name written as <campaign>."""
    return {path.name: hashlib.sha256(
                path.read_bytes().replace(str(root).encode(), b"<campaign>")).hexdigest()
            for path in sorted(out_dir.iterdir())}


# every file the writer produced for three campaigns, frozen before it
# formatted each session once and wrote each file in one call: the
# fault-injection corpus (data errors, an empty session), a session name
# with a comma, and a site without probes (retrieval errors, sessions
# plotted without a reference)
FAULT_CORPUS_DIGESTS = {
    "metrics.csv": "28437b19c8204850cb33c4650db2c8123ac993b4b8954fd806f9c19a4665acc2",
    "metrics.txt": "7c95f4e74b8d9ac17f0d861a057bfb06368a764dec1d8a82ac0e956e8e4daeb9",
    "plot_sm_series.csv": "74eb9330a4bc5e0f09d6a59fa2979ee59c03ac2bf82ed028ac3640a735b0d623",
    "plot_tb_series.csv": "88e90cc0214c19cf3eba48bf938099a51fdd7a4d2f1c46df41d9c70e32f5b55c",
    "rejections.csv": "683487ae30d55be316092d0a281102b96e0de985c0938b8664de329d139f929c",
    "retrievals.csv": "6fe400d5b239c480aac7aa14ea18686b0d9dc7d1a063722410b033a4c089400b",
    "run_warnings.txt": "208ccde00b1f95c44a46392f2026ea71cf045a41400545a488291c4f8c42a40c",
    "sessions.csv": "1526a9cb2d7e33d5e4a32674e9c02b9a2530b3a34226a3a0c46c773e2ca00b91",
}
COMMA_SESSION_DIGESTS = {
    "metrics.csv": "45809f79067e221110207722bd2ad618360c71ae476fd6bbd49d70542a82e1e8",
    "metrics.txt": "0ad5d62b325a6137a58b00b6d32ee18b100068377ad0ec1c573470f4794bdea5",
    "plot_sm_series.csv": "136e49e73a9e1f3e63e6c0904db8155c1f36d0d836b8ed81568e57f61d7166fd",
    "plot_tb_series.csv": "5ea747398c94d593929c54ec420d84b0c6033d97450925fdde5674e59923cdfb",
    "rejections.csv": "c57757bc6fd7fb507b1b6476275830ee437c544497f0385a591fae75081ff0a1",
    "retrievals.csv": "d69bde90f022521844f0f1ebfb92d6c3ecab8361189d2963eeeceb259ef7ab8e",
    "sessions.csv": "ce59c1d88ac6a61da99d79b229c7ba276c1b049f0d390c740ff9bfefbb6a8b99",
}
NO_REFERENCE_DIGESTS = {
    "metrics.csv": "234728ed858b8649a6e9d48ba840c0d542204b243acb64d0f02182ea67b22fb9",
    "metrics.txt": "ef49ed7c334ed1c6087c7f42614d9e7e495139c571d1ee8004e76671e4451d77",
    "plot_sm_series.csv": "d75f9ede0d7d2053dc6b6031d83cfc522387cff712845376981df649e95251cc",
    "plot_tb_series.csv": "8534e9e563af7c2c2f3f2519be3d81d13aced2f18c46fb4f23bdbdac5b0a76e7",
    "rejections.csv": "439de4c9c8ec1400db7045af8c6b094c69cebe7acc2af593c86190ee8239dbc7",
    "retrievals.csv": "653f9bc6eb3af514fa068b635728ae817963bee5b73d0992b15305bb9398d130",
    "run_warnings.txt": "7ea010bacd236009bb4d4c20a931f0c420dc3ad1817080138ba428c564e2e926",
    "sessions.csv": "0dc472ed699fc375056f5ada4c3d3d8639a51d34fd06cf3ef60507d7e422d3d2",
}


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
            ("probe", "bare_soil", 0.2, "bare", "ref_probe.csv", None),
            ("hot", "bare_soil", 0.2, "bare", "ref_hot.csv", None)):
        config += [f"site.{site}.land_cover = {cover}",
                   f"site.{site}.clay_fraction = {clay}",
                   f"site.{site}.sessions = sessions/{sessions}_*.csv",
                   f"site.{site}.reference = {reference}"]
        if reflectance:
            config.append(f"site.{site}.reflectance = {reflectance}")
    cfg_path.write_text("\n".join(config) + "\n")
    for copy, original in (("refl_knot.csv", "reflectance_grass.csv"),
                           ("refl_ndvi.csv", "reflectance_grass.csv"),
                           ("ref_probe.csv", "ref_bare.csv"),
                           ("ref_hot.csv", "ref_bare.csv")):
        (root / copy).write_text((root / original).read_text())

    clean = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "clean")
    assert clean.ok and not any(s.error for s in clean.sessions)
    assert {s.site for s in clean.sessions} == {"bare", "grass", "knot", "ndvi", "probe",
                                                "hot"}

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
    # site defects: a one-knot reflectance file, a knot whose NDVI leaves
    # [-1, 1], a non-positive and an implausibly hot probe temperature
    _rewrite(root / "refl_knot.csv", lambda lines: lines[:2])
    _rewrite(root / "refl_ndvi.csv", lambda lines: _set_field(
        _set_field(lines, 2, 1, "-0.3"), 2, 2, "0.5"))
    _rewrite(root / "ref_probe.csv", lambda lines: _set_field(lines, 2, -1, "-5"))
    _rewrite(root / "ref_hot.csv", lambda lines: _set_field(lines, 9, -1, "1000"))
    # a directory the session pattern matches, a file of NUL bytes that is
    # one field longer than csv reads, and such a field on file line 3
    (sessions / "bare_dir.csv").mkdir()
    (sessions / "bare_nul.csv").write_bytes(b"\0" * 200_000)
    first_lines = session_file(0).read_text().splitlines()[:2]
    (sessions / "bare_long.csv").write_text(
        "\n".join(first_lines + ["x" * 200_000 + ",250,260"]) + "\n")

    report = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "bad")

    errors = sorted(report.data_errors)
    want = sorted([
        f"{session_file(3)}:12: timestamps must be strictly increasing",
        f"{session_file(4)}:8: expected 3 fields, got 4",
        f"{session_file(6)}:6: bad timestamp 'NaT'",
        f"{session_file(7)}:1: voltage session requires calibration parameters",
        f"{root / 'refl_knot.csv'}: need at least 2 samples to interpolate",
        f"{root / 'refl_ndvi.csv'}:3: reflectances must be in [0, 1]",
        f"{root / 'ref_probe.csv'}:3: ",
        f"{root / 'ref_hot.csv'}:10: soil temperature must be in [180.0, 350.0] K",
        f"{sessions / 'bare_dir.csv'}: cannot read: Is a directory",
        f"{sessions / 'bare_nul.csv'}:1: field larger than field limit",
        f"{sessions / 'bare_long.csv'}:3: field larger than field limit",
    ])
    assert len(errors) == len(want)
    for error, prefix in zip(errors, want):
        assert error.startswith(prefix), (error, prefix)
    assert {s.site for s in report.sessions} == {"bare", "grass"}

    rows = {s.session_id: s for s in report.sessions if s.site == "bare"}
    assert sorted(rows) == sorted(day[k] for k in (0, 1, 2, 5, 8, 9))
    assert rows[day[1]].error == "empty session"
    assert rows[day[2]].n_accepted == 30 - 3 - 2
    assert rows[day[2]].flag_counts[preprocess.QualityFlag.MAX_EXCEEDED] == 1 + 2

    before, after = _report_lines(tmp_path / "clean"), _report_lines(tmp_path / "bad")
    untouched = [("bare", day[k]) for k in (0, 5, 8, 9)] + \
        [("grass", s.session_id) for s in clean.sessions if s.site == "grass"]
    untouched += [("grass", preset) for preset in ("SCAV", "SCAH", "RDCA", "DCA0",
                                                   "DCA1", "DCA2")]
    compared = 0
    for key, lines in before.items():
        if key[1:] in untouched:
            assert after.get(key) == lines, key
            compared += len(lines)
    assert compared > 100
    assert _artifact_digests(tmp_path / "bad", root) == FAULT_CORPUS_DIGESTS


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


def test_sessions_csv_reports_the_inverted_statistic(tmp_path):
    """With statistic = p75, sessions.csv reports as tb_h_rep/tb_v_rep the
    p75 pair that every preset inverts, not the median."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=5, n_days=2, n_samples=60, voltage_site=None)

    def spread(lines):      # synth records repeat one pair; offset each by up to 2 K
        out = lines[:1]
        for k, line in enumerate(lines[1:]):
            stamp, tb_h, tb_v = line.split(",")
            out.append(f"{stamp},{float(tb_h) + k % 5 * 0.5},{float(tb_v) + k % 7 * 0.25}")
        return out
    for path in (root / "sessions").glob("*.csv"):
        _rewrite(path, spread)
    cfg_path = root / "campaign.cfg"
    cfg_path.write_text(cfg_path.read_text().replace("statistic = median", "statistic = p75"))
    report = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "out")
    with open(tmp_path / "out" / "sessions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["p75_h"] != r["p50_h"] and r["p75_v"] != r["p50_v"] for r in rows)
    assert all((r["tb_h_rep"], r["tb_v_rep"]) == (r["p75_h"], r["p75_v"]) for r in rows)
    assert report.ok and all(s.rep == TbPair(s.summary.stats_h.p75, s.summary.stats_v.p75)
                             for s in report.sessions)


def test_report_csvs_quote_a_session_name_with_a_comma(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)
    first = sorted((root / "sessions").glob("bare_*.csv"))[0]
    first.rename(first.with_name("bare_x,y.csv"))
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert report.ok
    for name in ("sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv",
                 "plot_tb_series.csv", "plot_sm_series.csv"):
        with open(tmp_path / "out" / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
        if "session" in header:
            sessions = {row[header.index("session")] for row in rows}
            assert "bare_x,y" in sessions, name
    assert _artifact_digests(tmp_path / "out", root) == COMMA_SESSION_DIGESTS


def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch):
    """The artifacts are written whole and as one set: a write the system
    cuts short is continued, and a write that fails part way is a
    DataError that leaves every file it was to replace as it was, with no
    .tmp file beside them."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)
    out = tmp_path / "out"
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"), output_dir=out)
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    real_write = os.write

    with monkeypatch.context() as mp:
        mp.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        pipeline.write_artifacts(report)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written

    def full_disk(fd, data):
        if bytes(data).startswith(b"site,session,t_mid,preset,t_e_used"):   # retrievals.csv
            real_write(fd, data[:100])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data)
    previous = {name: f"previous {name}\n".encode() for name in written}
    for name, data in previous.items():
        (out / name).write_bytes(data)
    with monkeypatch.context() as mp:
        mp.setattr(os, "write", full_disk)
        with pytest.raises(DataError, match=r"retrievals\.csv: cannot write: No space left"):
            pipeline.write_artifacts(report)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == previous


def test_clean_rerun_removes_stale_run_warnings(tmp_path):
    """A rerun into the same directory with no warnings or data errors
    removes the run_warnings.txt of the run before it."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)
    session = root / "sessions" / "bare_2023-11-12.csv"
    good = session.read_text()
    session.write_text(good + "2023-11-12T15:00:00Z,x,260.0\n")
    out = tmp_path / "out"
    first = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"), output_dir=out)
    assert not first.ok
    assert (out / "run_warnings.txt").read_text().startswith(f"error: {session}:")
    session.write_text(good)
    second = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"), output_dir=out)
    assert second.ok and not second.warnings
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv", "metrics.txt",
         "plot_tb_series.csv", "plot_sm_series.csv"])


def test_seed_tables_built_once_per_site_and_preset(campaign_config, tmp_path):
    """The pipeline builds the seed emissivities once per distinct site
    surface and preset parameters, not once per retrieval; DCA1 and DCA2
    share theirs."""
    grid_keys = {(site.surface.clay_fraction, site.surface.incidence_deg, algo.h,
                  algo.dielectric)
                 for site in campaign_config.sites for algo in site.presets}
    retrieval._grid_emissivities.cache_clear()
    report = pipeline.run_pipeline(campaign_config, output_dir=tmp_path)

    dual = [r for r in report.retrievals if r.result is not None and r.result.tau is not None]
    assert len(dual) == 40
    assert retrieval._grid_emissivities.cache_info().misses == len(grid_keys) == 8


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_session_without_reference_temperature_is_a_retrieval_error(tmp_path):
    """Without probes at a site, the measured-temperature presets record a
    retrieval error per session and warn once per row; the constant-
    temperature presets still retrieve, with no reference to plot."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=3, n_samples=30, voltage_site=None)
    _rewrite(root / "campaign.cfg",
             lambda lines: [line for line in lines if not line.startswith("site.bare.reference")])
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert report.ok
    out = tmp_path / "out"
    message = "no reference temperature within the alignment window"

    bare = [r for r in _read_rows(out / "retrievals.csv") if r["site"] == "bare"]
    failed = [r for r in bare if r["preset"] in ("SCAV", "SCAH", "RDCA", "DCA2")]
    assert len(failed) == 12
    for row in failed:
        assert row["error"] == message and row["t_e_used"] == ""
        assert all(row[name] == "" for name in pipeline.RESULT_COLUMNS)
    assert all(r["error"] == "" for r in bare if r not in failed)
    warnings = (out / "run_warnings.txt").read_text().splitlines()
    assert sum(message in line for line in warnings) == len(failed)

    for row in _read_rows(out / "metrics.csv"):
        if row["site"] == "bare":
            assert row["n"] == "0"
            assert all(row[name] == "" for name in pipeline.METRICS_COLUMNS)
    plotted = [r for r in _read_rows(out / "plot_sm_series.csv") if r["site"] == "bare"]
    assert sorted(r["preset"] for r in plotted) == ["DCA0"] * 3 + ["DCA1"] * 3
    assert all(r["sm_ref"] == "" and r["sm_retrieved"] != "" for r in plotted)
    assert _artifact_digests(out, root) == NO_REFERENCE_DIGESTS


def test_plot_reference_follows_its_session_when_stems_repeat(tmp_path):
    """Two session files with one stem at one site each plot against
    their own probes."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)
    for folder, day in (("d1", "2023-11-11"), ("d2", "2023-11-12")):
        (root / folder).mkdir()
        (root / "sessions" / f"bare_{day}.csv").rename(root / folder / "x.csv")
    _rewrite(root / "campaign.cfg", lambda lines: [
        "site.bare.sessions = d1/x.csv, d2/x.csv" if line.startswith("site.bare.sessions")
        else line for line in lines])
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert report.ok
    sm_ref = {(r["t_mid"], r["session"]): r["sm_ref"]
              for r in _read_rows(tmp_path / "out" / "sessions.csv") if r["site"] == "bare"}
    assert len(sm_ref) == 2 and len(set(sm_ref.values())) == 2
    plotted = [r for r in _read_rows(tmp_path / "out" / "plot_sm_series.csv")
               if r["site"] == "bare"]
    assert len(plotted) == 12
    for row in plotted:
        assert row["sm_ref"] == sm_ref[row["t_mid"], row["session"]]


def test_session_outside_the_screening_domain_is_a_data_error(tmp_path):
    """A probe temperature that puts a session's screening floor above
    tb_max is a data error of that session; the other site still runs
    and the artifacts are written."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    _rewrite(root / "campaign.cfg", lambda lines: lines + ["site.bare.h = 10"])
    _rewrite(root / "ref_bare.csv", lambda lines: lines[:1] + [
        ",".join(line.split(",")[:-1] + ["340"]) for line in lines[1:]])
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    sessions = sorted(root.glob("sessions/bare_*.csv"))
    assert len(sessions) == 2
    assert report.data_errors == [f"{path}: minimum thresholds must lie below tb_max"
                                  for path in sessions]
    assert {s.site for s in report.sessions} == {"grass"}
    grass = [r for r in report.retrievals if r.site == "grass"]
    assert len(grass) == 12 and all(r.result is not None for r in grass)
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"sessions.csv", "retrievals.csv", "metrics.csv", "run_warnings.txt"} <= names
    warnings = (tmp_path / "out" / "run_warnings.txt").read_text().splitlines()
    assert warnings[:2] == [f"error: {e}" for e in report.data_errors]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_campaign_with_a_large_roughness_preset_completes(tmp_path):
    """At h = 1000 the emissivity slope underflows to zero; the solve
    once divided by the zero determinant and aborted the campaign. The
    profiled seed's 0/0 at reflectivity 0 warns."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=20, voltage_site=None)
    (root / "HUGE.cfg").write_text("kind = DCA1\nh = 1000\nomega = 0\n"
                                   "t_e_source = constant\ndielectric = mironov\n")
    _rewrite(root / "campaign.cfg",
             lambda lines: [line + ", HUGE.cfg" if line.startswith("presets =") else line
                            for line in lines])
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert report.ok
    huge = [r for r in _read_rows(tmp_path / "out" / "retrievals.csv") if r["preset"] == "HUGE"]
    assert len(huge) == 4
    assert all(r["sm"] == "0.010000" and r["boundary_hit"] == "true" for r in huge)
