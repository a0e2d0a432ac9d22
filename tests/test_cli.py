"""Command-line surface: subcommands, exit codes, composability."""

import csv
import errno
import io
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import lbandsm
from lbandsm import cli, pipeline, synth
from lbandsm.config import load_campaign
from lbandsm.preprocess import min_threshold


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_footprint_reference_setup(capsys):
    code, out = run_cli(["footprint", "--height", "1.14", "--incidence", "40",
                         "--beamwidth", "37"], capsys=capsys)
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert 1.35 <= float(row["major_axis_m"]) <= 1.45
    assert float(row["minor_axis_m"]) == pytest.approx(0.995866, abs=1e-5)


def test_forward_matches_frozen_fixture(capsys):
    code, out = run_cli(["forward", "--preset", "SCAV", "--sm", "0.30",
                         "--clay-fraction", "0.20", "--land-cover", "bare_soil",
                         "--t-e", "292.15"], capsys=capsys)
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    # SCAV on bare soil has h=0.15, omega=0, tau defaults to 0: this is
    # the frozen forward-chain fixture
    assert float(row["tb_h"]) == pytest.approx(168.426165, abs=1e-5)
    assert float(row["tb_v"]) == pytest.approx(220.024875, abs=1e-5)


def test_forward_synthetic_session_deterministic(capsys):
    args = ["forward", "--preset", "DCA1", "--sm", "0.3", "--clay-fraction",
            "0.2", "--samples", "5", "--seed", "42", "--noise-k", "2.0"]
    code, out1 = run_cli(args, capsys=capsys)
    assert code == 0
    _, out2 = run_cli(args, capsys=capsys)
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 5
    assert rows[0]["timestamp"].startswith("2023-11-11T14:00:00")


def test_forward_session_without_noise_repeats_the_forward_pair(capsys):
    args = ["forward", "--preset", "SCAV", "--sm", "0.25", "--clay-fraction", "0.2"]
    _, single = run_cli(args, capsys=capsys)
    pair = list(csv.DictReader(io.StringIO(single)))[0]
    want = {f"{float(pair['tb_h']):.4f},{float(pair['tb_v']):.4f}"}
    for seed in ("0", "7", "123"):
        _, session = run_cli([*args, "--samples", "2000", "--seed", seed], capsys=capsys)
        assert {line.split(",", 1)[1] for line in session.splitlines()[1:]} == want, seed


def test_metrics_identity(capsys, monkeypatch):
    text = "sm_obs,sm_ref\n0.2,0.2\n0.3,0.3\n0.25,0.25\n"
    code, out = run_cli(["metrics"], stdin_text=text, monkeypatch=monkeypatch,
                        capsys=capsys)
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["bias"]) == 0.0
    assert float(row["r"]) == 1.0


def test_tau_single_value(capsys):
    code, out = run_cli(["tau", "--ndvi", "0.5", "--land-cover", "grassland"],
                        capsys=capsys)
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["tau"]) == pytest.approx(0.041288, abs=1e-6)


def test_tau_series_from_reflectance(tmp_path, capsys):
    path = tmp_path / "refl.csv"
    path.write_text("date,red,nir\n2023-11-04,0.08,0.22\n2023-11-11,0.07,0.25\n")
    code, out = run_cli(["tau", "--input", str(path), "--land-cover", "grassland"],
                        capsys=capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert rows[0]["date"] == "2023-11-04"


def test_calibrate_stream(capsys, monkeypatch):
    text = "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n"
    code, out = run_cli(["calibrate", "--gain-h", "100", "--gain-v", "100"],
                        stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["tb_h"]) == pytest.approx(250.0)


def test_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["retrieve", "--preset", "SCAX", "--clay-fraction", "0.2"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["footprint", "--height", "1.0", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["forward", "--sm", "0.2"], ["retrieve"]])
@pytest.mark.parametrize("flag", ["--h", "--omega"])
def test_surface_overrides_are_usage_errors(command, flag):
    """h and omega come from the preset; the flags that once overrode them
    are gone, and --h does not abbreviate --help."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--preset", "DCA1", "--clay-fraction", "0.2", flag, "0.3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags,message", [
    (["--samples", "-5"], "--samples must be non-negative, got -5"),
    (["--samples", "3", "--start", "garbage"], "--start: bad timestamp 'garbage'"),
    (["--samples", "20", "--start", "9999-12-31T23:59:59Z"],
     "--start: cannot format epoch 253402300800.035 as a UTC stamp: year outside 1-9999"),
    (["--tau", "-1"], "--tau must be finite and non-negative, got -1.0"),
    (["--tau", "nan"], "--tau must be finite and non-negative, got nan"),
    (["--tau", "inf"], "--tau must be finite and non-negative, got inf"),
    (["--sm", "nan"], "--sm must be in [0, 1], got nan"),
    (["--sm", "1.5"], "--sm must be in [0, 1], got 1.5"),
    (["--samples", "3", "--noise-k", "-2"], "--noise-k must be finite and non-negative, got -2.0"),
    (["--samples", "3", "--noise-k", "nan"],
     "--noise-k must be finite and non-negative, got nan"),
    (["--t-e", "-5"], "--t-e must be finite and positive, got -5.0"),
    (["--t-e", "0"], "--t-e must be finite and positive, got 0.0"),
    (["--t-e", "nan"], "--t-e must be finite and positive, got nan"),
    (["--t-e", "inf"], "--t-e must be finite and positive, got inf"),
])
def test_forward_argument_faults_are_usage_errors(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["forward", "--preset", "SCAV", "--sm", "0.3", "--clay-fraction", "0.2",
                  *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(f"lbandsm: error: {message}")


@pytest.mark.parametrize("preset", ["SCAV", "DCA1"])
@pytest.mark.parametrize("t_e", ["-5", "0", "nan", "inf"])
def test_retrieve_t_e_that_is_no_temperature_is_a_usage_error(preset, t_e, capsys,
                                                             monkeypatch):
    """Checked before any row is read, also for a constant-temperature
    preset that would not use it; --t-e inf once printed a nan row."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\n"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["retrieve", "--preset", preset, "--clay-fraction", "0.2",
                  "--tau-sca", "0.1", "--t-e", t_e])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == \
        f"lbandsm: error: --t-e must be finite and positive, got {float(t_e)}"


@pytest.mark.parametrize("preset", ["SCAV", "RDCA"])
@pytest.mark.parametrize("tau_sca", ["nan", "inf", "-1"])
def test_retrieve_rejects_a_tau_sca_that_is_no_opacity(preset, tau_sca, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\n"))
    code = cli.main(["retrieve", "--preset", preset, "--clay-fraction", "0.2",
                     "--tau-sca", tau_sca])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: retrieve: line 2: tau_sca must be finite and non-negative")


@pytest.mark.parametrize("preset", ["SCAV", "SCAH", "RDCA"])
def test_retrieve_rejects_a_tau_sca_above_the_opacity_box(preset, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\n"))
    code = cli.main(["retrieve", "--preset", preset, "--clay-fraction", "0.2",
                     "--tau-sca", "3.5", "--t-e", "290"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: retrieve: line 2: {preset} needs tau_sca <= 3.0, got 3.5\n"


def test_forward_takes_h_and_omega_from_the_preset(capsys):
    code, out = run_cli(["forward", "--preset", "DCA1", "--sm", "0.2", "--clay-fraction",
                         "0.2", "--land-cover", "forest"], capsys=capsys)
    assert code == 0
    # DCA1 sets h and omega to zero for every cover, as on bare soil
    assert out == run_cli(["forward", "--preset", "DCA1", "--sm", "0.2",
                           "--clay-fraction", "0.2"], capsys=capsys)[1]


@pytest.mark.parametrize("args,message", [
    (["retrieve", "--preset", "DCA1", "--config", "{cfg}"], "--site is required with --config"),
    (["forward", "--preset", "DCA1", "--sm", "0.2", "--config", "{cfg}", "--site", "nope"],
     "unknown site 'nope' in {cfg}"),
    (["retrieve", "--preset", "DCA1"], "either --config/--site or --clay-fraction is required"),
    (["run"], "--config or $LBANDSM_CONFIG is required"),
    (["retrieve", "--preset", "SCAV", "--clay-fraction", "0.2"], "preset SCAV requires --tau-sca"),
    (["tau"], "tau requires either --ndvi or --input"),
])
def test_missing_arguments_are_usage_errors(args, message, synthetic_campaign, capsys,
                                            monkeypatch):
    cfg = str(synthetic_campaign[0] / "campaign.cfg")
    monkeypatch.delenv("LBANDSM_CONFIG", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\n"))
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(cfg=cfg) for arg in args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"lbandsm: error: {message.format(cfg=cfg)}"


@pytest.mark.parametrize("command,key,value,message", [
    (["forward", "--sm", "0.2"], "omega", "1.5", "omega must be in [0, 1), got 1.5"),
    (["forward", "--sm", "0.2"], "h", "nan", "h must be >= 0, got nan"),
    (["retrieve", "--tau-sca", "0.1"], "lambda", "nan", "lambda must be finite and >= 0, got nan"),
])
def test_out_of_range_preset_is_a_config_error_naming_it(command, key, value, message,
                                                         tmp_path, capsys, monkeypatch):
    values = {"h": "0.1", "omega": "0.0", "lambda": "20", key: value}
    path = tmp_path / "bad.cfg"
    path.write_text("kind = RDCA\nt_e_source = measured\ndielectric = mironov\n"
                    + "".join(f"{k} = {v}\n" for k, v in values.items()))
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\n"))
    err = _one_line_error(capsys, *command, "--preset", str(path), "--clay-fraction", "0.2")
    assert err == f"error: {path}: land cover 'bare_soil': {message}\n"


def test_calibrate_non_finite_value_is_data_error(capsys, monkeypatch):
    code, _ = run_cli(["calibrate", "--gain-h", "nan", "--offset-v", "inf"],
                      "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n", monkeypatch)
    assert code == 1
    assert "calibration gain_h must be finite" in capsys.readouterr().err


def test_missing_input_is_data_error(capsys):
    code = cli.main(["metrics", "--input", "/nonexistent/file.csv"])
    assert code == 1


def test_run_exit_codes(synthetic_campaign, tmp_path, capsys):
    root, _ = synthetic_campaign
    code, out = run_cli(["run", "--config", str(root / "campaign.cfg"),
                         "--output", str(tmp_path / "out")], capsys=capsys)
    assert code == 0
    assert "sessions=10" in out
    assert (tmp_path / "out" / "retrievals.csv").exists()


def _break_value(path, line_no):
    """Set the first value on file line `line_no` of a session to x."""
    lines = path.read_text().split("\n")
    stamp, _, rest = lines[line_no - 1].split(",", 2)
    lines[line_no - 1] = f"{stamp},x,{rest}"
    path.write_text("\n".join(lines))


def test_run_prints_each_recorded_problem_once(tmp_path, capsys):
    """`lbandsm run` prints to stderr the lines of run_warnings.txt,
    errors first, each once: a malformed session and one without records."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=60)
    malformed = root / "sessions" / "bare_2023-11-11.csv"
    _break_value(malformed, 32)
    header_only = root / "sessions" / "grass_2023-11-12.csv"
    header_only.write_text(header_only.read_text().split("\n", 1)[0] + "\n")
    code = cli.main(["run", "--config", str(root / "campaign.cfg"),
                     "--output", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, out.startswith("sessions=3 ")) == (1, True)
    assert err == (tmp_path / "out" / "run_warnings.txt").read_text()
    assert err.splitlines() == [
        f"error: {malformed}:32: could not convert string to float: 'x'",
        "warning: site grass session grass_2023-11-12: empty session"]


def test_run_without_sessions_warns_once(tmp_path, capsys):
    """A run whose every session is malformed prints each error, then one
    warning that no session was processed."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    for path in (root / "sessions").glob("*.csv"):
        _break_value(path, 2)
    code = cli.main(["run", "--config", str(root / "campaign.cfg"),
                     "--output", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, out.startswith("sessions=0 ")) == (1, True)
    warnings_txt = (tmp_path / "out" / "run_warnings.txt").read_text()
    assert err == warnings_txt + "warning: no sessions were processed\n"
    assert err.count("error: ") == 4 and err.count("no sessions") == 1


def test_run_via_env_var(synthetic_campaign, tmp_path, capsys, monkeypatch):
    root, _ = synthetic_campaign
    monkeypatch.setenv("LBANDSM_CONFIG", str(root / "campaign.cfg"))
    code, _ = run_cli(["run", "--output", str(tmp_path / "out")], capsys=capsys)
    assert code == 0


def test_run_missing_config_is_data_error(capsys):
    code = cli.main(["run", "--config", "/nonexistent/campaign.cfg"])
    assert code == 1


def test_run_to_unwritable_output_is_one_error_line(synthetic_campaign, tmp_path, capsys):
    """An output directory that cannot be made is a data error naming it,
    not a traceback."""
    root, _ = synthetic_campaign
    (tmp_path / "file").write_text("not a directory\n")
    out = tmp_path / "file" / "out"
    err = _one_line_error(capsys, "run", "--config", str(root / "campaign.cfg"),
                          "--output", str(out))
    assert err == f"error: {out}: cannot write: {os.strerror(errno.ENOTDIR)}\n"


def test_unwritable_output_is_reported_before_any_session_is_read(synthetic_campaign,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
    root, _ = synthetic_campaign
    monkeypatch.setattr(pipeline, "load_session",
                        lambda *args, **kwargs: pytest.fail("a session was loaded"))
    (tmp_path / "file").write_text("not a directory\n")
    out = tmp_path / "file" / "out"
    err = _one_line_error(capsys, "run", "--config", str(root / "campaign.cfg"),
                          "--output", str(out))
    assert err == f"error: {out}: cannot write: {os.strerror(errno.ENOTDIR)}\n"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The console-script launcher an installer writes for "name = module:func"
_LAUNCHER = """#!{python}
import sys
import threading
from {module} import {func}
sys.exit({func}())
"""


def _project_table():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(PYPROJECT.read_text())["project"]


def _source_pythonpath():
    """PYTHONPATH that puts the source tree the tests import first."""
    src = str(Path(lbandsm.__file__).resolve().parents[1])
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def lbandsm_on_path(tmp_path, monkeypatch):
    """An `lbandsm` executable on PATH.

    An installed one is used as it is. Without an install (the suite run
    from the source tree), the script that pyproject.toml declares is
    written to a bin directory the way an installer writes it, and runs
    the source tree the tests import."""
    if shutil.which("lbandsm"):
        return
    module, func = _project_table()["scripts"]["lbandsm"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "lbandsm"
    script.write_text(_LAUNCHER.format(python=sys.executable, module=module, func=func))
    script.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    monkeypatch.setenv("PYTHONPATH", _source_pythonpath())


def test_console_script_installed(lbandsm_on_path):
    out = subprocess.run(["lbandsm", "--version"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"lbandsm {lbandsm.__version__}"


def test_pyproject_version_matches_package():
    assert _project_table()["version"] == lbandsm.__version__


def test_pipe_composability_matches_pipeline(synthetic_campaign, campaign_config,
                                             tmp_path, capsys, monkeypatch):
    """filter -> represent -> retrieve over one session must reproduce the
    batch pipeline's retrieval row exactly (golden-file equality)."""
    root, truth = synthetic_campaign
    cfg = campaign_config
    out_dir = tmp_path / "golden"
    report = pipeline.run_pipeline(cfg, output_dir=out_dir)

    site = next(s for s in cfg.sites if s.name == "grass")
    session_path = site.session_paths[0]
    session_id = session_path.stem
    session_row = next(s for s in report.sessions if s.session_id == session_id)

    # same floor the pipeline computed from the matched reference temperature
    tb_min_h, tb_min_v = min_threshold(site.surface, session_row.t_e_measured,
                                       cfg.frequency_ghz)

    code, filtered = run_cli([
        "filter", "--input", str(session_path),
        "--tb-min-h", f"{tb_min_h}", "--tb-min-v", f"{tb_min_v}"], capsys=capsys)
    assert code == 0
    code, represented = run_cli(["represent", "--statistic", "median"],
                                stdin_text=filtered, monkeypatch=monkeypatch,
                                capsys=capsys)
    assert code == 0
    rep_row = list(csv.DictReader(io.StringIO(represented)))[0]

    code, retrieved = run_cli([
        "retrieve", "--preset", "DCA2",
        "--config", str(root / "campaign.cfg"), "--site", "grass",
        "--t-e", f"{session_row.t_e_measured}"],
        stdin_text=f"tb_h,tb_v\n{rep_row['tb_h']},{rep_row['tb_v']}\n",
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    got = list(csv.DictReader(io.StringIO(retrieved)))[0]

    want = next(r for r in report.retrievals
                if r.session_id == session_id and r.preset == "DCA2")
    assert f"{want.result.sm:.6f}" == got["sm"]
    assert f"{want.result.tau:.6f}" == got["tau"]
    assert got["converged"] == "true"


def test_stage_chain_takes_the_campaign_frequency(tmp_path, capsys, monkeypatch):
    """With --config/--site, retrieve inverts at the campaign's
    frequency_ghz, so filter | represent | retrieve prints the sm of
    retrievals.csv on a campaign away from 1.41 GHz."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=777, n_days=12)
    cfg_path = root / "campaign.cfg"
    cfg_path.write_text(cfg_path.read_text().replace("frequency_ghz = 1.41",
                                                     "frequency_ghz = 1.2"))
    cfg = load_campaign(cfg_path)
    assert cfg.frequency_ghz == 1.2
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    with open(tmp_path / "out" / "retrievals.csv", newline="") as fh:
        want = next(r for r in csv.DictReader(fh)
                    if r["session"] == "grass_2023-11-13" and r["preset"] == "DCA1")
    assert want["sm"] == "0.215272"

    site = next(s for s in cfg.sites if s.name == "grass")
    session_row = next(s for s in report.sessions if s.session_id == "grass_2023-11-13")
    tb_min_h, tb_min_v = min_threshold(site.surface, session_row.t_e_measured, 1.2)
    code, filtered = run_cli([
        "filter", "--input", str(root / "sessions" / "grass_2023-11-13.csv"),
        "--tb-min-h", f"{tb_min_h}", "--tb-min-v", f"{tb_min_v}"], capsys=capsys)
    assert code == 0
    code, represented = run_cli(["represent"], stdin_text=filtered,
                                monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    rep = list(csv.DictReader(io.StringIO(represented)))[0]
    code, retrieved = run_cli(
        ["retrieve", "--preset", "DCA1", "--config", str(cfg_path), "--site", "grass"],
        stdin_text=f"tb_h,tb_v\n{rep['tb_h']},{rep['tb_v']}\n",
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(retrieved)))[0]["sm"] == want["sm"]


@pytest.mark.parametrize("command", [["forward", "--sm", "0.2"], ["retrieve"]])
def test_frequency_with_config_is_usage_error(command, synthetic_campaign):
    """--config sets the frequency through the campaign's frequency_ghz, so
    --frequency beside it is refused rather than silently overriding it."""
    root, _ = synthetic_campaign
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--preset", "DCA1", "--config", str(root / "campaign.cfg"),
                  "--site", "grass", "--frequency", "1.41"])
    assert exc.value.code == 2


def test_filter_splits_stream_and_flags_rejected(tmp_path, capsys, monkeypatch):
    text = ("timestamp,tb_h,tb_v\n"
            "2023-11-11T14:00:00Z,250.0,260.0\n"
            "2023-11-11T14:00:00.069000Z,330.0,140.0\n"
            "2023-11-11T14:00:00.138000Z,251.5,260.25\n"
            "2023-11-11T14:00:00.207000Z,262.0,261.0\n")
    rejected = tmp_path / "rejected.csv"
    code, out = run_cli(["filter", "--tb-min-h", "150", "--tb-min-v", "160",
                         "--rejected", str(rejected)],
                        stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["timestamp,tb_h,tb_v",
                                "2023-11-11T14:00:00Z,250.000000,260.000000",
                                "2023-11-11T14:00:00.138000Z,251.500000,260.250000"]
    assert rejected.read_text().splitlines() == [
        "timestamp,tb_h,tb_v,flags",
        "2023-11-11T14:00:00.069000Z,330.000000,140.000000,"
        "max_exceeded|min_violated|pol_order_violated",
        "2023-11-11T14:00:00.207000Z,262.000000,261.000000,pol_order_violated"]


# stdout of `represent` on three records, one of them non-finite, per
# statistic: the numpy reductions' values, NaN wherever numpy gives NaN
NON_FINITE_REPRESENT = {
    "inf": ("2023-11-11T14:00:01Z,inf,262.5", {
        "median": "251.250000,261.000000,3,nan,1.027402",
        "mean": "inf,261.166667,3,nan,1.027402",
        "p25": "250.625000,260.500000,3,nan,1.027402",
        "p75": "nan,261.750000,3,nan,1.027402"}),
    "nan": ("2023-11-11T14:00:01Z,252.0,nan", {
        "median": "251.250000,nan,3,0.824958,nan",
        "mean": "251.083333,nan,3,0.824958,nan",
        "p25": "250.625000,nan,3,0.824958,nan",
        "p75": "251.625000,nan,3,0.824958,nan"}),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_REPRESENT))
def test_represent_non_finite_record_prints_values_only(kind, tmp_path):
    record, expected = NON_FINITE_REPRESENT[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("timestamp,tb_h,tb_v\n2023-11-11T14:00:00Z,250.0,260.0\n"
                    f"{record}\n2023-11-11T14:00:02Z,251.25,261.0\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    for statistic, row in expected.items():
        out = subprocess.run([sys.executable, "-m", "lbandsm.cli", "represent",
                              "--statistic", statistic, "--input", str(path)],
                             capture_output=True, text=True, env=env)
        assert (out.returncode, out.stderr) == (0, ""), statistic
        assert out.stdout == f"tb_h,tb_v,n,std_h,std_v\n{row}\n", statistic


@pytest.mark.parametrize("command,header,bad_row,message", [
    ("filter", "timestamp,tb_h,tb_v", "2023-11-11T14:00:01Z,x,260",
     "error: filter: line 3: could not convert string to float: 'x'"),
    ("represent", "timestamp,tb_h,tb_v", "2023-11-11T14:00:01Z,250",
     "error: represent: line 3: expected 3 fields, got 2"),
    ("calibrate", "timestamp,v_h,v_v", "NaT,2.5,2.6",
     "error: calibrate: line 3: bad timestamp 'NaT'"),
    ("metrics", "sm_obs,sm_ref", "0.3,x",
     "error: metrics: line 3: could not convert string to float: 'x'"),
    ("metrics", "a,b", "0.3,0.3", "error: metrics: expected header 'sm_obs,sm_ref', got 'a,b'"),
])
def test_stream_commands_name_bad_line(command, header, bad_row, message,
                                       capsys, monkeypatch):
    first = {"metrics": "0.2,0.21"}.get(command, "2023-11-11T14:00:00Z,2.5,2.6")
    text = f"{header}\n{first}\n{bad_row}\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main([command]) == 1
    assert capsys.readouterr().err.startswith(message)


# extra arguments and a valid first data line per stage command
STREAM_INPUTS = {
    "filter": ([], "timestamp,tb_h,tb_v\n2023-11-11T14:00:00Z,250.0,260.0\n"),
    "represent": ([], "timestamp,tb_h,tb_v\n2023-11-11T14:00:00Z,250.0,260.0\n"),
    "calibrate": ([], "timestamp,v_h,v_v\n2023-11-11T14:00:00Z,2.5,2.6\n"),
    "retrieve": (["--preset", "DCA1", "--clay-fraction", "0.2"], "tb_h,tb_v\n250.0,260.0\n"),
    "metrics": ([], "sm_obs,sm_ref\n0.2,0.21\n"),
}


@pytest.mark.parametrize("command", sorted(STREAM_INPUTS))
def test_stream_commands_reject_empty_input(command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main([command, *STREAM_INPUTS[command][0]]) == 1
    assert capsys.readouterr().err == f"error: empty {command} input\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", sorted(STREAM_INPUTS))
def test_stream_commands_reject_non_utf8_input(command, source, tmp_path, capsys,
                                               monkeypatch):
    extra, text = STREAM_INPUTS[command]
    data = text.encode() + b"0.2\xe9,0.2\n"    # a Latin-1 byte on line 3
    args = [command] + extra
    if source == "file":
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        args += ["--input", str(path)]
        where = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        where = "<stdin>"
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}:3: 'utf-8' codec can't decode byte 0xe9"), err


def _one_line_error(capsys, *args):
    """stderr of a CLI run that must exit 1 with a one-line error."""
    assert cli.main(list(args)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_unreadable_input_and_unwritable_output_are_data_errors(tmp_path, capsys,
                                                                monkeypatch):
    missing = tmp_path / "missing.csv"
    err = _one_line_error(capsys, "tau", "--input", str(missing))
    assert err.startswith(f"error: {missing}: cannot read: "), err
    err = _one_line_error(capsys, "represent", "--input", str(tmp_path))
    assert err.startswith(f"error: {tmp_path}: cannot read: "), err
    rejected = tmp_path / "no" / "such" / "dir" / "r.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(STREAM_INPUTS["filter"][1]))
    err = _one_line_error(capsys, "filter", "--rejected", str(rejected))
    assert err.startswith(f"error: {rejected}: cannot write: "), err


def test_unwritable_rejected_leaves_output_untouched(tmp_path, capsys, monkeypatch):
    out = tmp_path / "f.csv"
    out.write_text("kept\n")
    rejected = tmp_path / "no" / "such" / "r.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(STREAM_INPUTS["filter"][1]))
    err = _one_line_error(capsys, "filter", "--output", str(out), "--rejected", str(rejected))
    assert err.startswith(f"error: {rejected}: cannot write: "), err
    assert out.read_text() == "kept\n"


def test_unwritable_rejected_removes_output_it_created(tmp_path, capsys, monkeypatch):
    out = tmp_path / "new.csv"
    rejected = tmp_path / "no" / "such" / "r.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(STREAM_INPUTS["filter"][1]))
    err = _one_line_error(capsys, "filter", "--output", str(out), "--rejected", str(rejected))
    assert err.startswith(f"error: {rejected}: cannot write: "), err
    assert not out.exists()


@pytest.mark.parametrize("existed", [False, True])
def test_outputs_naming_one_file_are_a_data_error(existed, tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    if existed:
        out.write_text("kept\n")
    (tmp_path / "sub").mkdir()
    same = tmp_path / "sub" / ".." / "x.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(STREAM_INPUTS["filter"][1]))
    err = _one_line_error(capsys, "filter", "--output", str(out), "--rejected", str(same))
    assert err == f"error: {same}: same file as output {out}\n", err
    assert out.read_text() == "kept\n" if existed else not out.exists()


def test_outputs_replace_files_and_write_to_devices_and_fifos(tmp_path, capsys,
                                                             monkeypatch):
    text = STREAM_INPUTS["filter"][1]
    code, expected = run_cli(["filter"], stdin_text=text, monkeypatch=monkeypatch,
                             capsys=capsys)
    out = tmp_path / "f.csv"
    out.write_text(expected * 4)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["filter", "--output", str(out), "--rejected", os.devnull]) == 0
    assert out.read_bytes().decode() == expected

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes().decode()), daemon=True)
    reader.start()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["filter", "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert received == [expected]


def test_retrieve_names_line_of_pair_outside_domain(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\nnan,260\n210,255\n"))
    err = _one_line_error(capsys, "retrieve", "--preset", "DCA1", "--clay-fraction", "0.2",
                          "--output", str(out))
    assert err.startswith("error: retrieve: line 3: observed brightness temperatures "
                          "must be finite"), err
    assert not out.exists()


def test_retrieve_reports_first_bad_line_in_file_order(capsys, monkeypatch):
    """Each pair is inverted as it is read, so a pair outside the domain
    on line 3 is reported ahead of a value that does not parse on line 4."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("tb_h,tb_v\n200,250\nnan,260\n210,x\n"))
    err = _one_line_error(capsys, "retrieve", "--preset", "DCA1", "--clay-fraction", "0.2")
    assert err.startswith("error: retrieve: line 3: observed brightness temperatures "
                          "must be finite"), err


@pytest.mark.parametrize("kind", ["campaign", "preset", "coefficients"])
def test_non_utf8_config_file_is_config_error(kind, tmp_path, capsys):
    """A byte that is not UTF-8 in a config file is an error naming the
    file and line, not a traceback."""
    path = tmp_path / f"{kind}.cfg"
    path.write_bytes(b"# comment\nkey = caf\xe9\n")
    args = {"campaign": ["run", "--config", str(path)],
            "preset": ["forward", "--preset", str(path), "--sm", "0.2",
                       "--clay-fraction", "0.2"],
            "coefficients": ["tau", "--coefficients", str(path), "--ndvi", "0.3"]}[kind]
    err = _one_line_error(capsys, *args)
    assert err.startswith(f"error: {path}:2: 'utf-8' codec can't decode byte 0xe9"), err


SESSION_LOG = re.compile(r"INFO lbandsm\.pipeline: site (\w+) session (\S+): "
                         r"(\d+)/(\d+) accepted, rejections \{.*\}")


def test_verbose_run_logs_each_session_screening(tmp_path):
    """-v prints one INFO line per screened session to stderr; without it
    the run prints none."""
    root = tmp_path / "camp"
    synth.generate_campaign(root, seed=7, n_days=2, n_samples=30)
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())

    def run(*flags):
        out = subprocess.run([sys.executable, "-m", "lbandsm.cli", *flags, "run",
                              "--config", str(root / "campaign.cfg"),
                              "--output", str(tmp_path / "out")],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("sessions=4 retrievals=24 "), out.stdout
        return out.stderr.splitlines()

    logged = [SESSION_LOG.fullmatch(line) for line in run("-v")]
    assert all(logged)
    with open(tmp_path / "out" / "sessions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert sorted(m.groups() for m in logged) == sorted(
        (r["site"], r["session"], r["n_accepted"], r["n_total"]) for r in rows)
    assert run() == []


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_pipe_exits_1(monkeypatch, capsys):
    """A reader that goes away (`lbandsm footprint ... | head -0`) ends the
    command with status 1 instead of a traceback."""
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    assert cli.main(["footprint", "--height", "1.14"]) == 1
    assert capsys.readouterr().err == ""
