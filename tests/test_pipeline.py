"""Batch pipeline over the forward-generated synthetic campaign."""

import csv
import dataclasses
import errno
import hashlib
import logging
import os
import random
import re
import shutil
import warnings

import numpy as np
import pytest

from lbandsm import kvconfig, pipeline, preprocess, retrieval, synth, validation
from lbandsm.config import load_campaign
from lbandsm.errors import ConfigError, DataError, DomainError, read_text, split_header
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
    assert not report.data_errors
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
    assert not report.data_errors
    bad = [s for s in report.sessions if s.session_id == "bare_2023-11-20"]
    assert bad and bad[0].error == "no valid observations in session"
    good = [s for s in report.sessions if s.error is None]
    assert len(good) == 4
    assert any("no valid observations" in w for w in report.warnings)


def test_huge_calibration_gain_rejects_the_voltage_sessions(tmp_path):
    # gain * volts overflows to inf: screening rejects every record of the
    # voltage site, and the run goes on under warnings-as-errors
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    cfg_path = root / "campaign.cfg"
    clean = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "clean")
    cfg_path.write_text(cfg_path.read_text().replace(
        f"calibration.gain_h = {synth.VOLTAGE_GAIN}", "calibration.gain_h = 1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "out")
    bare = [s for s in report.sessions if s.site == "bare"]
    assert len(bare) == 2
    assert all(s.error == "no valid observations in session" for s in bare)
    assert sum("no valid observations in session" in w for w in report.warnings) == 2
    assert not report.data_errors
    grass = [r for r in report.retrievals if r.site == "grass"]
    assert grass and grass == [r for r in clean.retrievals if r.site == "grass"]


def test_corrupt_reference_file_isolates_site(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=3, n_days=2, n_samples=20,
                            voltage_site=None)
    (root / "ref_bare.csv").write_text(
        "timestamp,sm_1,soil_temp_k\nbroken,0.2,290\n")
    cfg = load_campaign(root / "campaign.cfg")
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert report.data_errors
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
    assert report.data_errors
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
    assert report.data_errors
    assert any("bare_2023-11-21.csv:2" in e for e in report.data_errors)
    # the other sessions still ran
    assert len(report.sessions) == 4


def test_session_file_removed_after_load_is_a_data_error_naming_it(tmp_path):
    """A session file gone between load_campaign and the run cannot be
    sized for its chunk or read: one data error names it, and every other
    session still gets a row for each preset."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=9, n_days=2, n_samples=20, voltage_site=None)
    cfg = load_campaign(root / "campaign.cfg")
    gone = root / "sessions" / "bare_2023-11-12.csv"
    gone.unlink()
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert len(report.data_errors) == 1 and str(gone) in report.data_errors[0]
    assert [(r.site, r.session_id) for r in report.sessions] == [
        ("bare", "bare_2023-11-11"), ("grass", "grass_2023-11-11"),
        ("grass", "grass_2023-11-12")]
    assert all([r.preset for r in row.retrievals] == sorted(retrieval.PRESET_NAMES)
               for row in report.sessions)


def test_verbose_run_logs_each_session_screening(tmp_path, caplog):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=9, n_days=2, n_samples=20, voltage_site=None)
    with caplog.at_level(logging.INFO, logger="lbandsm.pipeline"):
        pipeline.run_pipeline(load_campaign(root / "campaign.cfg"), output_dir=tmp_path / "out")
    lines = [r.getMessage() for r in caplog.records if r.name == "lbandsm.pipeline"]
    assert len(lines) == 4
    assert lines[0] == ("site bare session bare_2023-11-11: 17/20 accepted, rejections "
                        "{'max_exceeded': 1, 'min_violated': 1, 'pol_order_violated': 1}")


def test_empty_campaign_runs_with_warning(tmp_path):
    (tmp_path / "ref.csv").write_text(
        "timestamp,sm_1,soil_temp_k\n2023-11-11T14:05:00Z,0.2,290\n")
    (tmp_path / "campaign.cfg").write_text(
        "presets = DCA0\noutput_dir = out\n"
        "site.a.land_cover = bare_soil\nsite.a.clay_fraction = 0.2\n"
        "site.a.reference = ref.csv\n")
    cfg = load_campaign(tmp_path / "campaign.cfg")
    report = pipeline.run_pipeline(cfg)
    assert not report.data_errors
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
# plotted without a reference); each retrievals.csv, and the third
# metrics.csv, re-frozen when the LM solve took gain-ratio damping
FAULT_CORPUS_DIGESTS = {
    "metrics.csv": "28437b19c8204850cb33c4650db2c8123ac993b4b8954fd806f9c19a4665acc2",
    "metrics.txt": "7c95f4e74b8d9ac17f0d861a057bfb06368a764dec1d8a82ac0e956e8e4daeb9",
    "plot_sm_series.csv": "74eb9330a4bc5e0f09d6a59fa2979ee59c03ac2bf82ed028ac3640a735b0d623",
    "plot_tb_series.csv": "88e90cc0214c19cf3eba48bf938099a51fdd7a4d2f1c46df41d9c70e32f5b55c",
    "rejections.csv": "683487ae30d55be316092d0a281102b96e0de985c0938b8664de329d139f929c",
    "retrievals.csv": "0b9e177c23ce24ea7cafcf46379edac765234d5f9c1feec728d7536a1c8616a7",
    "run_warnings.txt": "208ccde00b1f95c44a46392f2026ea71cf045a41400545a488291c4f8c42a40c",
    "sessions.csv": "4f82c9984a5560dafb29af274473907dfaef423255af647e34e9af1a178c674a",
}
COMMA_SESSION_DIGESTS = {
    "metrics.csv": "45809f79067e221110207722bd2ad618360c71ae476fd6bbd49d70542a82e1e8",
    "metrics.txt": "0ad5d62b325a6137a58b00b6d32ee18b100068377ad0ec1c573470f4794bdea5",
    "plot_sm_series.csv": "136e49e73a9e1f3e63e6c0904db8155c1f36d0d836b8ed81568e57f61d7166fd",
    "plot_tb_series.csv": "5ea747398c94d593929c54ec420d84b0c6033d97450925fdde5674e59923cdfb",
    "rejections.csv": "c57757bc6fd7fb507b1b6476275830ee437c544497f0385a591fae75081ff0a1",
    "retrievals.csv": "79ea6521feb4603c82f01b4e19a651ee07cec2f7198ba528faf876fd7dc3ea76",
    "sessions.csv": "ce59c1d88ac6a61da99d79b229c7ba276c1b049f0d390c740ff9bfefbb6a8b99",
}
NO_REFERENCE_DIGESTS = {
    "metrics.csv": "d8e41500a1a7185eeaabd2cb4ea888fc7c7b46f3d38a1bf580c844ebbda93dbc",
    "metrics.txt": "ef49ed7c334ed1c6087c7f42614d9e7e495139c571d1ee8004e76671e4451d77",
    "plot_sm_series.csv": "d75f9ede0d7d2053dc6b6031d83cfc522387cff712845376981df649e95251cc",
    "plot_tb_series.csv": "8534e9e563af7c2c2f3f2519be3d81d13aced2f18c46fb4f23bdbdac5b0a76e7",
    "rejections.csv": "439de4c9c8ec1400db7045af8c6b094c69cebe7acc2af593c86190ee8239dbc7",
    "retrievals.csv": "9e6774e3a5b5473691ec2e2caca0b5ed3cd99f2a5f56826a76274871693c8235",
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
    assert not clean.data_errors and not any(s.error for s in clean.sessions)
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
            shifted = preprocess.format_utc_timestamps([
                preprocess.parse_utc_timestamp(stamp) + 7200.0])[0]
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
    assert rows[day[1]].t_mid is None
    with open(tmp_path / "bad" / "sessions.csv", newline="") as fh:
        header_only = next(r for r in csv.DictReader(fh) if r["session"] == day[1])
    # a session without records has no time to print
    assert (header_only["t_mid"], header_only["error"]) == ("", "empty session")
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


BOM = b"\xef\xbb\xbf"    # the UTF-8 byte-order mark


@pytest.mark.parametrize("target", ["session", "record_session", "reference", "reflectance",
                                    "campaign", "preset"])
def test_byte_order_mark_reads_as_the_plain_file(tmp_path, target):
    """Spreadsheet exports start a file with a byte-order mark, which once
    became part of the first header field or key. A copy with one reads
    as the plain file: the same report and artifacts."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=11, n_days=2, n_samples=30)
    session = root / "sessions" / "grass_2023-11-12.csv"
    if target == "record_session":     # a quoted value leaves the bulk parse
        lines = session.read_text().split("\n")
        stamp, tb_h, tb_v = lines[1].split(",")
        lines[1] = f'{stamp},"{tb_h}",{tb_v}'
        session.write_text("\n".join(lines))
        body = read_text(session).split("\n", 1)[1]
        assert preprocess._bulk_columns(body, True) is None
    if target == "preset":     # a user preset whose first line is a key
        text = kvconfig.read_package_text("presets/RDCA.cfg")
        (root / "RDCA.cfg").write_text("".join(
            line for line in text.splitlines(True) if not line.startswith("#")))
        _rewrite(root / "campaign.cfg", lambda lines: [
            "presets = SCAV, RDCA.cfg" if line.startswith("presets") else line
            for line in lines])
    path = {"session": session, "record_session": session,
            "reference": root / "ref_grass.csv", "reflectance": root / "reflectance_grass.csv",
            "campaign": root / "campaign.cfg", "preset": root / "RDCA.cfg"}[target]
    plain = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                  output_dir=tmp_path / "plain")
    path.write_bytes(BOM + path.read_bytes())
    marked = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "bom")
    assert not plain.data_errors and not plain.warnings
    assert dataclasses.replace(marked, output_dir=plain.output_dir) == plain
    for out in (tmp_path / "plain").iterdir():
        assert (tmp_path / "bom" / out.name).read_bytes() == out.read_bytes(), out.name


@pytest.mark.parametrize("target", ["session", "reference"])
def test_byte_order_mark_keeps_the_line_of_a_bad_byte(tmp_path, target):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=11, n_days=2, n_samples=30)
    path = {"session": root / "sessions" / "grass_2023-11-12.csv",
            "reference": root / "ref_grass.csv"}[target]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",", b",\xe9", 1)
    path.write_bytes(BOM + b"\n".join(lines))
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert len(report.data_errors) == 1
    assert report.data_errors[0].startswith(
        f"{path}:3: 'utf-8' codec can't decode byte 0xe9")


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
    assert not report.data_errors
    assert all(s.rep == TbPair(s.summary.stats_h.p75, s.summary.stats_v.p75)
               for s in report.sessions)


def test_session_outside_a_model_domain_is_a_data_error_naming_it(tmp_path, monkeypatch):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)

    def out_of_domain(surface, t_e, frequency_ghz):
        raise DomainError("t_e must be positive, got -1.0")
    monkeypatch.setattr(pipeline, "min_threshold", out_of_domain)
    cfg = load_campaign(root / "campaign.cfg")
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    paths = sorted(path for site in cfg.sites for path in site.session_paths)
    assert len(paths) == 4 and report.sessions == []
    assert report.data_errors == [f"{path}: t_e must be positive, got -1.0" for path in paths]


def test_each_accepted_session_is_reduced_once(tmp_path, monkeypatch):
    """With statistic = mean, as with any statistic, the run reduces each
    accepted session once and inverts the pair its summary holds."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    cfg_path = root / "campaign.cfg"
    cfg_path.write_text(cfg_path.read_text().replace("statistic = median", "statistic = mean"))
    reduced = []

    def counted(accepted, _session_stats=preprocess.session_stats):
        reduced.append(len(accepted))
        return _session_stats(accepted)
    monkeypatch.setattr(preprocess, "session_stats", counted)
    monkeypatch.setattr(pipeline, "session_stats", counted)
    report = pipeline.run_pipeline(load_campaign(cfg_path), output_dir=tmp_path / "out")
    assert not report.data_errors and len(report.sessions) == 4
    assert sorted(reduced) == sorted(s.n_accepted for s in report.sessions)
    assert all(s.rep == TbPair(s.summary.stats_h.mean, s.summary.stats_v.mean)
               for s in report.sessions)


def test_short_sessions_of_a_site_are_parsed_by_one_loadtxt(tmp_path, monkeypatch):
    """A site's five 60-record files are one chunk: one np.loadtxt call and
    one joint parse per site. A site whose one file is above CHUNK_BYTES
    gets a call of its own, through the one-file _bulk_columns path."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=5, n_samples=60)
    synth.generate_campaign(tmp_path / "long", seed=8, n_days=1,
                            n_samples=pipeline.CHUNK_BYTES // 30, voltage_site=None)
    (long_path,) = (tmp_path / "long" / "sessions").glob("bare_*.csv")
    assert long_path.stat().st_size > pipeline.CHUNK_BYTES
    with open(root / "campaign.cfg", "a") as fh:
        fh.write("\nsite.long.land_cover = bare_soil\nsite.long.clay_fraction = 0.2\n"
                 f"site.long.incidence_deg = 40.0\nsite.long.sessions = {long_path}\n")
    calls = {"loadtxt": 0, "_joint_columns": [], "_bulk_columns": []}

    def loadtxt(*args, _loadtxt=np.loadtxt, **kwargs):
        calls["loadtxt"] += 1
        return _loadtxt(*args, **kwargs)

    def joint(bodies, _joint=preprocess._joint_columns):
        calls["_joint_columns"].append(len(bodies))
        return _joint(bodies)

    def bulk(body, increasing, _bulk=preprocess._bulk_columns):
        calls["_bulk_columns"].append((len(body), increasing))
        return _bulk(body, increasing)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(preprocess, "_joint_columns", joint)
    monkeypatch.setattr(preprocess, "_bulk_columns", bulk)
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert not report.data_errors and len(report.sessions) == 11
    _, body = split_header(read_text(long_path))
    assert calls == {"loadtxt": 3, "_joint_columns": [5, 5],
                     "_bulk_columns": [(len(body), True)]}


def test_report_csvs_quote_a_session_name_with_a_comma(tmp_path):
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30, voltage_site=None)
    first = sorted((root / "sessions").glob("bare_*.csv"))[0]
    first.rename(first.with_name("bare_x,y.csv"))
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert not report.data_errors
    for name in ("sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv",
                 "plot_tb_series.csv", "plot_sm_series.csv"):
        with open(tmp_path / "out" / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
        if "session" in header:
            sessions = {row[header.index("session")] for row in rows}
            assert "bare_x,y" in sessions, name
    assert _artifact_digests(tmp_path / "out", root) == COMMA_SESSION_DIGESTS


HOSTILE_TEXTS = ("a,b", 'say "hi"', "cr\rin", "lf\nin", " padded ", "", "ü")

# the six CSVs of _hostile_report(HOSTILE_TEXTS), frozen with the writer
# that fed every row to csv.writer
HOSTILE_TEXT_DIGESTS = {
    "sessions.csv": "aa45c4b6f8a159faa431e2a054cc774576bf3f294f9081478b8bb2da528ad225",
    "rejections.csv": "a604ca7ffca292863ed283629cdeb16a720a3704cd219e65d666284d670583c4",
    "retrievals.csv": "ebb797ce81e20cd5d0e8f93890f533dc00705aae4214397e8c4b166f1d1c8a38",
    "metrics.csv": "f6f938cdd8080bffc3af17f6da8862d5b52fe4fae39dbbb4b9a6d04960908311",
    "plot_tb_series.csv": "fad9a95f5e7c20544eaa83c7636f5bb632896741e4a3e2b63bba1a71c984a2fb",
    "plot_sm_series.csv": "30d63b495a08d1b012e7eef4c927d2553fb58197e9c1e1db66a4ab4c5ef8d011",
}


def _hostile_report(texts, out_dir):
    """A PipelineReport built by hand whose site, session, preset and error
    cells take the seven `texts` in turn: a session with a summary and
    retrievals (with a result, a single-channel result, errors), an empty
    session, a session with no accepted record, and metrics rows with a
    report, with an undefined r and with none."""
    t = iter(texts * 4)
    stats_h = preprocess.ChannelStats(250.5, 1.25, 249.0, 250.25, 251.5, 250.25)
    stats_v = preprocess.ChannelStats(265.75, 0.5, 265.5, 265.75, 266.0, 265.75)
    rich = pipeline.SessionRow(
        site=next(t), session_id=next(t), t_mid=1699711234.567891, path="x",
        n_total=60, n_accepted=57,
        flag_counts={preprocess.QualityFlag.MAX_EXCEEDED: 1,
                     preprocess.QualityFlag.POL_ORDER_VIOLATED: 2},
        summary=preprocess.SessionSummary(stats_h, stats_v), rep=TbPair(250.25, 265.75),
        tb_min_h=101.23456, tb_min_v=120.5, t_e_measured=290.125, sm_ref=0.25,
        sm_ref_std=0.0375, tau_sca=0.0412345678)
    result = retrieval.RetrievalResult(sm=0.2512345678, tau=0.1, cost=1.5e-9,
                                       converged=True, boundary_hit=False, evaluations=68)
    single = retrieval.RetrievalResult(sm=0.01, tau=None, cost=3.25, converged=False,
                                       boundary_hit=True, evaluations=4105)
    rich.retrievals = [
        pipeline.RetrievalRow(rich.site, rich.session_id, next(t), 290.125, result),
        pipeline.RetrievalRow(rich.site, rich.session_id, next(t), 290.0, single),
        pipeline.RetrievalRow(rich.site, rich.session_id, next(t), None, error=next(t)),
        pipeline.RetrievalRow(rich.site, rich.session_id, next(t), 275.5, error=next(t))]
    empty = pipeline.SessionRow(site=next(t), session_id=next(t), t_mid=None, path="y",
                                error=next(t))
    rejected = pipeline.SessionRow(
        site=next(t), session_id=next(t), t_mid=1699797600.0, path="z", n_total=5,
        flag_counts={preprocess.QualityFlag.MIN_VIOLATED: 5}, tb_min_h=99.5,
        tb_min_v=119.5, error=next(t))
    metrics_rows = [
        pipeline.MetricsRow(next(t), next(t), 3, validation.MetricsReport(
            0.0123456, 0.0234567, 0.0198765, 0.9876543, 3)),
        pipeline.MetricsRow(next(t), next(t), 2, validation.MetricsReport(
            -0.5, 0.5, 0.0, float("nan"), 2, "zero_variance")),
        pipeline.MetricsRow(next(t), next(t), 1)]
    return pipeline.PipelineReport(sessions=[rich, empty, rejected],
                                   metrics_rows=metrics_rows, warnings=[], data_errors=[],
                                   output_dir=out_dir)


REPORT_CSVS = ("sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv",
               "plot_tb_series.csv", "plot_sm_series.csv")


def test_report_csvs_quote_free_text_cells_as_csv_writer_does(tmp_path):
    """Site, session, preset and error texts holding a comma, a quote, a
    CR, an LF, padding, nothing or a non-ASCII letter are written as
    csv.writer writes them: the six CSVs keep the digests frozen with a
    writer that fed every row to csv.writer, and csv.reader reads every
    cell back (but a bare CR, which csv.writer leaves unquoted)."""
    report = _hostile_report(HOSTILE_TEXTS, tmp_path / "all")
    pipeline.write_artifacts(report)
    assert {name: hashlib.sha256((tmp_path / "all" / name).read_bytes()).hexdigest()
            for name in REPORT_CSVS} == HOSTILE_TEXT_DIGESTS

    texts = tuple(text for text in HOSTILE_TEXTS if "\r" not in text)
    report = _hostile_report(texts, tmp_path / "readable")
    pipeline.write_artifacts(report)
    written = {}
    for name in REPORT_CSVS:
        with open(tmp_path / "readable" / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows), name
        for column in ("site", "session", "preset", "error"):
            if column in header:
                written.setdefault(column, set()).update(
                    row[header.index(column)] for row in rows)
    sessions, retrievals = report.sessions, report.retrievals
    assert written == {
        "site": {r.site for r in sessions} | {m.site for m in report.metrics_rows},
        "session": {r.session_id for r in sessions},
        "preset": {r.preset for r in retrievals} | {m.preset for m in report.metrics_rows},
        "error": {r.error or "" for r in sessions + retrievals}}
    assert set(texts) <= set.union(*written.values())


def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch):
    """The artifacts are written whole and as one set: a write the system
    cuts short is continued, and a write that fails part way is a
    DataError that leaves every file it was to replace as it was, with no
    .tmp file beside them. An interrupt part way is raised as it is, with
    the same cleanup."""
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

    def interrupted(fd, data):
        if bytes(data).startswith(b"site,session,t_mid,preset,t_e_used"):   # retrievals.csv
            real_write(fd, data[:100])
            raise KeyboardInterrupt
        return real_write(fd, data)
    with monkeypatch.context() as mp:
        mp.setattr(os, "write", interrupted)
        with pytest.raises(KeyboardInterrupt):
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
    assert first.data_errors
    assert (out / "run_warnings.txt").read_text().startswith(f"error: {session}:")
    session.write_text(good)
    second = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"), output_dir=out)
    assert not second.data_errors and not second.warnings
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv", "metrics.txt",
         "plot_tb_series.csv", "plot_sm_series.csv"])


def test_seed_tables_built_once_per_site_and_preset(campaign_config, tmp_path):
    """The pipeline builds the seed tables once per distinct site
    surface and preset parameters, not once per retrieval; DCA1 and DCA2
    share theirs."""
    grid_keys = {(site.surface.clay_fraction, site.surface.incidence_deg, algo.h,
                  algo.dielectric)
                 for site in campaign_config.sites for algo in site.presets}
    retrieval._seed_tables.cache_clear()
    report = pipeline.run_pipeline(campaign_config, output_dir=tmp_path)

    dual = [r for r in report.retrievals if r.result is not None and r.result.tau is not None]
    assert len(dual) == 40
    assert retrieval._seed_tables.cache_info().misses == len(grid_keys) == 8


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
    assert not report.data_errors
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
    assert not report.data_errors
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


def test_campaign_with_a_large_roughness_preset_completes(tmp_path):
    """At h = 1000 the emissivity slope underflows to zero; the solve
    once divided by the zero determinant and aborted the campaign. The
    profiled seed's 0/0 at reflectivity 0 once warned, which aborted the
    run where warnings are errors."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=20, voltage_site=None)
    (root / "HUGE.cfg").write_text("kind = DCA1\nh = 1000\nomega = 0\n"
                                   "t_e_source = constant\ndielectric = mironov\n")
    _rewrite(root / "campaign.cfg",
             lambda lines: [line + ", HUGE.cfg" if line.startswith("presets =") else line
                            for line in lines])
    report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                   output_dir=tmp_path / "out")
    assert not report.data_errors
    huge = [r for r in _read_rows(tmp_path / "out" / "retrievals.csv") if r["preset"] == "HUGE"]
    assert len(huge) == 4
    assert all(r["sm"] == "0.010000" and r["boundary_hit"] == "true" for r in huge)


@pytest.mark.parametrize("key,value", [
    ("b", "1e308"), ("b", "1e154"),
    ("vwc_poly", "1e308"), ("vwc_poly", "1e154"), ("vwc_poly", "1e308, 1e308, 1e308"),
    ("vwc_poly", "0, 0, 1e300"), ("vwc_poly", "0, 0, 1e200"),
])
def test_huge_finite_tau_sca_is_a_retrieval_error_of_the_kinds_that_use_it(tmp_path, key, value):
    """An opacity table whose polynomial gives a huge finite tau_sca once
    overflowed RDCA's regularizer and aborted the run under warnings-as-
    errors, and later printed in full (a 315-character cell). Each grass
    session now warns once that its tau_sca is outside the opacity box and
    leaves its cell empty; SCAV, SCAH and RDCA report each grass row as
    missing tau_sca; the DCA kinds, which ignore tau_sca, keep their
    results, and no report cell is inf or nan."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    clean = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                  output_dir=tmp_path / "clean")
    table = kvconfig.read_package_text("data/tau_defaults.cfg")
    (root / "tau.cfg").write_text("\n".join(
        f"grassland.{key} = {value}" if line.startswith(f"grassland.{key} ") else line
        for line in table.splitlines()) + "\n")
    _rewrite(root / "campaign.cfg", lambda lines: lines + ["tau_coefficients = tau.cfg"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pipeline.run_pipeline(load_campaign(root / "campaign.cfg"),
                                       output_dir=tmp_path / "out")
    assert not report.data_errors
    for name in REPORT_FILES:
        for row in csv.reader((tmp_path / "out" / name).read_text().splitlines()):
            assert not {"inf", "-inf", "nan"} & set(row), (name, row)
    sessions = [r for r in report.sessions if r.site == "grass"]
    assert len(sessions) == 2 and all(r.tau_sca is None for r in sessions)
    session_warnings = [w for w in report.warnings if ": tau_sca " in w]
    assert len(session_warnings) == 2
    for line in session_warnings:
        assert re.fullmatch(r"site grass session grass_\S+: "
                            r"tau_sca \S+ is outside the opacity box \(0\.0, 3\.0\)", line)
    before = {(r.site, r.session_id, r.preset): r for r in clean.retrievals}
    grass = 0
    for r in report.retrievals:
        if r.site == "grass" and r.preset in ("SCAV", "SCAH", "RDCA"):
            grass += 1
            assert r.result is None
            assert r.error == f"{r.preset} requires tau_sca"
        else:
            assert r == before[r.site, r.session_id, r.preset]
    assert grass == 6 and len(report.retrievals) == len(clean.retrievals) == 24


# Numeric extremes: every value below in every target below, one at a time
EXTREME_VALUES = ("1e308", "-1e308", "1e154", "1e20", "1e-300", "5e-324", "-0.0",
                  "0.999999999", "89.999")
EXTREME_TARGETS = (
    *(("campaign.cfg", key) for key in (
        "frequency_ghz", "skip_leading", "align_window_s", "calibration.gain_h",
        "calibration.offset_h", "site.grass.clay_fraction", "site.grass.incidence_deg",
        "site.grass.h", "site.bare.clay_fraction")),
    *(("tau.cfg", f"grassland.{key}") for key in ("b", "vwc_poly", "ndvi_floor")),
    ("RDCA.cfg", "h"), ("RDCA.cfg", "omega.grassland"), ("RDCA.cfg", "lambda"),
    ("DCA2.cfg", "h"), ("DCA2.cfg", "omega"),
    ("SCAV.cfg", "h.grassland"), ("SCAV.cfg", "omega.grassland"),
    # (row, column) of one value field
    ("reflectance_grass.csv", (1, 2)), ("ref_grass.csv", (2, 6)),
    ("sessions/grass_2023-11-12.csv", (3, 2)),
)


def _set_key(path, key, value):
    """`key = value` in a key-value file, in place of the key's line if it
    has one."""
    lines = [line for line in path.read_text().splitlines()
             if line.partition("=")[0].strip() != key]
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")


def _extreme_trial(root):
    """"config" for a ConfigError at load, else "run" after a run under
    warnings-as-errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = load_campaign(root / "campaign.cfg")
        except ConfigError:
            return "config"
        pipeline.run_pipeline(config, output_dir=root / "out")
    return "run"


def test_numeric_extremes_load_as_config_errors_or_run_clean(tmp_path):
    """A finite but extreme number in any input ends as a ConfigError at
    load or as a run that raises no warning and prints no inf or nan, and
    no cell outside an error column longer than 32 characters: one huge
    tau_sca, calibration gain or RDCA lambda once overflowed, and a huge
    tau_sca once printed in 315 characters."""
    base = tmp_path / "base"
    synth.generate_campaign(base, seed=7, n_days=3, n_samples=30)
    (base / "tau.cfg").write_text(kvconfig.read_package_text("data/tau_defaults.cfg"))
    for name in ("RDCA", "DCA2", "SCAV"):
        (base / f"{name}.cfg").write_text(kvconfig.read_package_text(f"presets/{name}.cfg"))
    _set_key(base / "campaign.cfg", "presets", "SCAV.cfg, SCAH, RDCA.cfg, DCA0, DCA1, DCA2.cfg")
    _set_key(base / "campaign.cfg", "tau_coefficients", "tau.cfg")
    outcomes = {"config": 0, "run": 0}
    for name, key in EXTREME_TARGETS:
        for value in EXTREME_VALUES:
            root = tmp_path / "trial"
            shutil.rmtree(root, ignore_errors=True)
            shutil.copytree(base, root)
            if isinstance(key, str):
                _set_key(root / name, key, value)
            else:
                lines = (root / name).read_text().splitlines()
                _set_field(lines, *key, value)
                (root / name).write_text("\n".join(lines) + "\n")
            trial = (name, key, value)
            try:
                outcome = _extreme_trial(root)
            except Exception as exc:    # a warning raised as an error, or any fault
                pytest.fail(f"{trial}: {exc!r}")
            outcomes[outcome] += 1
            if outcome == "config":
                continue
            for report_file in REPORT_FILES:
                header, *rows = csv.reader((root / "out" / report_file).read_text().splitlines())
                for row in rows:
                    assert not {"inf", "-inf", "nan"} & set(row), (trial, report_file, row)
                    assert all(len(cell) <= 32 for column, cell in zip(header, row)
                               if column != "error"), (trial, report_file, row)
    assert outcomes["config"] and outcomes["run"], outcomes


# ----------------------------------------------------------------------
# Metamorphic relations: listing order, location and reruns
# (Chen, Cheung & Yiu 1998, HKUST-CS98-01)
# ----------------------------------------------------------------------

# site -> its campaign lines other than sessions, and its session files
ORDER_SITES = {
    "bare": (["land_cover = bare_soil", "clay_fraction = 0.2", "reference = ref_bare.csv"],
             ["sessions/bare_2023-11-11.csv", "sessions/bare_2023-11-12.csv",
              "bad/bare_fields.csv", "bad/bare_stamp.csv",
              "hdr/a/bare_none.csv", "hdr/b/bare_none.csv"]),
    "grass": (["land_cover = grassland", "clay_fraction = 0.13", "reference = ref_grass.csv",
               "reflectance = reflectance_grass.csv"],
              ["sessions/grass_2023-11-11.csv", "sessions/grass_2023-11-12.csv",
               "b/grass_2023-11-11.csv"]),
    "noref": (["land_cover = bare_soil", "clay_fraction = 0.2"],
              ["sessions/bare_2023-11-11.csv", "sessions/bare_2023-11-12.csv"]),
    "idle": (["land_cover = bare_soil", "clay_fraction = 0.2"], []),
}
ORDER_PRESETS = ["SCAV", "SCAH", "RDCA", "DCA0", "DCA1", "DCA2"]


def _write_order_campaign(root, sites, presets):
    """campaign.cfg of `root` with the site blocks of ORDER_SITES in the
    order of `sites` ((name, session files) pairs) and `presets` as listed."""
    lines = ["output_dir = out", f"presets = {', '.join(presets)}"]
    for name, session_files in sites:
        lines += [f"site.{name}.{line}" for line in ORDER_SITES[name][0]]
        if session_files:
            lines.append(f"site.{name}.sessions = {', '.join(session_files)}")
    (root / "campaign.cfg").write_text("\n".join(lines) + "\n")


def _order_fixture(root):
    """A campaign with faults: a second radiometer's session with the stem
    and stamps of a grass session, two sessions with data errors, two
    header-only sessions with one stem, a site without probes (retrieval
    errors) and a site without sessions."""
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=20, voltage_site=None)
    grass = (root / "sessions" / "grass_2023-11-11.csv").read_text().splitlines()
    bare = (root / "sessions" / "bare_2023-11-12.csv").read_text().splitlines()
    for folder in ("b", "bad", "hdr/a", "hdr/b"):
        (root / folder).mkdir(parents=True)
    (root / "b" / "grass_2023-11-11.csv").write_text("\n".join(grass[:1] + [
        f"{stamp},{float(tb_h) + 2.0:.4f},{float(tb_v) + 1.0:.4f}"
        for stamp, tb_h, tb_v in (line.split(",") for line in grass[1:])]) + "\n")
    (root / "bad" / "bare_fields.csv").write_text(
        "\n".join(_set_field(list(bare), 4, 2, bare[4].split(",")[2] + ",1")) + "\n")
    (root / "bad" / "bare_stamp.csv").write_text(
        "\n".join(_set_field(list(bare), 3, 0, "NaT")) + "\n")
    for folder in ("a", "b"):
        (root / "hdr" / folder / "bare_none.csv").write_text(bare[0] + "\n")
    _write_order_campaign(root, [(name, files) for name, (_, files) in ORDER_SITES.items()],
                          ORDER_PRESETS)


def _run_files(campaign, out):
    pipeline.run_pipeline(load_campaign(campaign), output_dir=out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_listing_order_location_or_reruns(tmp_path):
    """Permuting a campaign's session lists, site blocks or presets list
    changes no byte of any output file, run_warnings.txt included. A copy
    of the campaign in another directory gives the same report files;
    run_warnings.txt is left out there because it names inputs by
    absolute path. A rerun into one output directory gives the same
    files."""
    root = tmp_path / "camp"
    _order_fixture(root)
    want = _run_files(root / "campaign.cfg", tmp_path / "out")
    assert set(want) == {"sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv",
                         "metrics.txt", "plot_tb_series.csv", "plot_sm_series.csv",
                         "run_warnings.txt"}
    warnings = want["run_warnings.txt"].decode()
    assert warnings.count("error: ") == 2 and "site idle: no session files" in warnings
    assert warnings.count("session bare_none: empty session") == 2
    assert _run_files(root / "campaign.cfg", tmp_path / "out") == want

    rng = random.Random(20231111)
    for k in range(12):
        sites = [(name, rng.sample(files, len(files)))
                 for name, (_, files) in ORDER_SITES.items()]
        _write_order_campaign(root, rng.sample(sites, len(sites)),
                              rng.sample(ORDER_PRESETS, len(ORDER_PRESETS)))
        assert _run_files(root / "campaign.cfg", tmp_path / f"perm{k}") == want, k

    moved = tmp_path / "elsewhere" / "camp"
    shutil.copytree(root, moved)
    del want["run_warnings.txt"]
    got = _run_files(moved / "campaign.cfg", tmp_path / "moved")
    assert got.pop("run_warnings.txt") != b""
    assert got == want
