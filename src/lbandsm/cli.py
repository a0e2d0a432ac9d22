"""Command-line interface.

One subcommand per pipeline stage operating on CSV files or stdin ->
stdout, plus `run` for full campaign batches:

    run        execute a campaign config end to end
    calibrate  raw voltages -> brightness temperatures
    filter     screen records against the quality predicates
    represent  reduce an accepted stream to one representative pair
    retrieve   invert representative pairs under a preset
    forward    simulate brightness temperatures (optionally a synthetic session)
    metrics    compare two aligned moisture series
    footprint  antenna footprint ellipse on the ground
    tau        vegetation opacity from NDVI or a reflectance file

Exit codes: 0 success, 1 data error, 2 usage error. The environment
variable LBANDSM_CONFIG supplies --config when the flag is omitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ancillary import (daily_ndvi_series, load_reflectance_csv,
                        load_tau_coefficients, ndvi_to_tau)
from .config import CONFIG_ENV_VAR, load_campaign
from .errors import ConfigError, DataError, DomainError
from .geometry import footprint
from .pipeline import run_pipeline
from .preprocess import (CalibrationParams, FilterThresholds, Statistic,
                         TB_HEADER, TB_MAX_DEFAULT, VOLTAGE_HEADER, filter_tb,
                         format_utc_timestamp, parse_utc_timestamp,
                         representative, session_from_text, session_stats,
                         split_header, write_session)
from .radiative import L_BAND_GHZ, TbPair, simulate_tb
from .retrieval import (CONSTANT_T_E, PRESET_NAMES, TAU_SCA_KINDS, TempSource,
                        load_preset, make_surface, retrieve)
from .synth import SAMPLE_PERIOD_S
from .validation import metrics

logger = logging.getLogger(__name__)


def _open_input(path):
    if path in (None, "-"):
        return sys.stdin
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _open_output(path):
    if path in (None, "-"):
        return sys.stdout
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def _body(fh, expected_header, what):
    """The CSV text after a header that must match."""
    header, body = split_header(fh.read())
    if header is None:
        raise DataError(f"empty {what} input")
    if header != expected_header:
        raise DataError(
            f"{what}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}")
    return body


def _read_rows(fh, expected_header, what):
    rows = []
    reader = csv.reader(io.StringIO(_body(fh, expected_header, what), newline=""))
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(expected_header):
            raise DataError(f"{what}: line {line_no}: expected "
                            f"{len(expected_header)} fields, got {len(row)}")
        rows.append((line_no, row))
    return rows


def _read_session(fh, expected_header, what, calibration=None):
    """Session columns of a timestamped TB or voltage stream."""
    body = _body(fh, expected_header, what)
    try:
        return session_from_text(body, calibration)
    except DataError as exc:
        raise DataError(f"{what}: {exc}") from None


def _surface_from_args(args, parser):
    if args.config:
        campaign = load_campaign(args.config)
        if not args.site:
            parser.error("--site is required with --config")
        for site in campaign.sites:
            if site.name == args.site:
                return site.surface, campaign
        parser.error(f"unknown site {args.site!r} in {args.config}")
    if args.clay_fraction is None:
        parser.error("either --config/--site or --clay-fraction is required")
    return make_surface(args.clay_fraction, args.land_cover, args.incidence,
                        h=args.h, omega=args.omega), None


def _check_preset(parser, name):
    candidate = Path(name)
    if name not in PRESET_NAMES and not candidate.is_file():
        parser.error(f"unknown preset {name!r}: expected one of "
                     f"{', '.join(PRESET_NAMES)} or an existing preset file")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def cmd_run(args, parser):
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        parser.error(f"--config or ${CONFIG_ENV_VAR} is required")
    cfg = load_campaign(config_path)
    report = run_pipeline(cfg, output_dir=args.output)
    for warning in report.warnings:
        logger.warning("%s", warning)
    for error in report.data_errors:
        logger.error("%s", error)
    if not report.sessions:
        logger.warning("no sessions were processed")
    print(f"sessions={len(report.sessions)} retrievals="
          f"{sum(1 for r in report.retrievals if r.result)} "
          f"artifacts={report.output_dir}")
    return 1 if report.data_errors else 0


def cmd_calibrate(args, _parser):
    cal = CalibrationParams(gain_h=args.gain_h, gain_v=args.gain_v,
                            offset_h=args.offset_h, offset_v=args.offset_v)
    with _open_input(args.input) as fh:
        session = _read_session(fh, VOLTAGE_HEADER, "calibrate", cal)
    out = _open_output(args.output)
    write_session(out, session)
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_filter(args, _parser):
    thresholds = FilterThresholds(tb_max=args.tb_max, tb_min_h=args.tb_min_h,
                                  tb_min_v=args.tb_min_v)
    with _open_input(args.input) as fh:
        session = _read_session(fh, TB_HEADER, "filter")
    flags = filter_tb(session, thresholds)
    rejected = flags != 0
    out = _open_output(args.output)
    write_session(out, session.select(~rejected))
    if out is not sys.stdout:
        out.close()
    if args.rejected:
        with open(args.rejected, "w", newline="", encoding="utf-8") as fh:
            write_session(fh, session.select(rejected), flags[rejected])
    n_rejected = int(np.count_nonzero(rejected))
    logger.info("filter: %d accepted, %d rejected", len(session) - n_rejected, n_rejected)
    return 0


def cmd_represent(args, _parser):
    with _open_input(args.input) as fh:
        session = _read_session(fh, TB_HEADER, "represent")
    if not len(session):
        raise DataError("no valid observations in session")
    rep = representative(session, Statistic(args.statistic))
    summary = session_stats(session)
    out = _open_output(args.output)
    writer = csv.writer(out)
    writer.writerow(["tb_h", "tb_v", "n", "std_h", "std_v"])
    writer.writerow([f"{rep.tb_h:.6f}", f"{rep.tb_v:.6f}", len(session),
                     f"{summary.stats_h.std:.6f}", f"{summary.stats_v.std:.6f}"])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_retrieve(args, parser):
    _check_preset(parser, args.preset)
    surface, _campaign = _surface_from_args(args, parser)
    spec = load_preset(args.preset)
    algo = spec.resolve(surface.land_cover)
    if algo.kind in TAU_SCA_KINDS and args.tau_sca is None:
        parser.error(f"preset {spec.name} requires --tau-sca")
    with _open_input(args.input) as fh:
        rows = _read_rows(fh, ("tb_h", "tb_v"), "retrieve")
    out = _open_output(args.output)
    writer = csv.writer(out)
    writer.writerow(["sm", "tau", "cost", "converged", "boundary_hit", "evaluations"])
    for line_no, row in rows:
        try:
            obs = TbPair(float(row[0]), float(row[1]))
        except ValueError as exc:
            raise DataError(f"retrieve: line {line_no}: {exc}") from None
        t_e = CONSTANT_T_E if algo.t_e_source == TempSource.CONSTANT else args.t_e
        result = retrieve(obs, algo, surface, t_e, tau_sca=args.tau_sca,
                          frequency_ghz=args.frequency)
        writer.writerow([f"{result.sm:.6f}",
                         "" if result.tau is None else f"{result.tau:.6f}",
                         f"{result.cost:.6e}",
                         "true" if result.converged else "false",
                         "true" if result.boundary_hit else "false",
                         result.evaluations])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_forward(args, parser):
    _check_preset(parser, args.preset)
    surface, _campaign = _surface_from_args(args, parser)
    spec = load_preset(args.preset)
    algo = spec.resolve(surface.land_cover)
    t_e = CONSTANT_T_E if algo.t_e_source == TempSource.CONSTANT else args.t_e
    tb_h, tb_v = simulate_tb(args.sm, args.tau, algo.omega, algo.h,
                             surface.clay_fraction, surface.incidence_deg,
                             t_e, algo.dielectric, args.frequency)
    tb_h, tb_v = float(tb_h), float(tb_v)
    out = _open_output(args.output)
    writer = csv.writer(out)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        t0 = parse_utc_timestamp(args.start)
        writer.writerow(["timestamp", "tb_h", "tb_v"])
        noise = rng.normal(0.0, args.noise_k, size=(args.samples, 2)) \
            if args.noise_k > 0 else np.zeros((args.samples, 2))
        for k in range(args.samples):
            writer.writerow([format_utc_timestamp(t0 + k * SAMPLE_PERIOD_S),
                             f"{tb_h + noise[k, 0]:.4f}", f"{tb_v + noise[k, 1]:.4f}"])
    else:
        writer.writerow(["tb_h", "tb_v"])
        writer.writerow([f"{tb_h:.6f}", f"{tb_v:.6f}"])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_metrics(args, _parser):
    with _open_input(args.input) as fh:
        rows = _read_rows(fh, ("sm_obs", "sm_ref"), "metrics")
    try:
        obs = [float(r[1][0]) for r in rows]
        ref = [float(r[1][1]) for r in rows]
    except ValueError as exc:
        raise DataError(f"metrics: {exc}") from None
    report = metrics(obs, ref)
    out = _open_output(args.output)
    writer = csv.writer(out)
    writer.writerow(["bias", "rmse", "ubrmse", "r", "r_flag", "n"])
    writer.writerow([f"{report.bias:.6f}", f"{report.rmse:.6f}",
                     f"{report.ubrmse:.6f}",
                     "" if report.r != report.r else f"{report.r:.6f}",
                     report.r_flag, report.n])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_footprint(args, _parser):
    ellipse = footprint(args.height, args.incidence, args.beamwidth)
    out = _open_output(args.output)
    writer = csv.writer(out)
    writer.writerow(["major_axis_m", "minor_axis_m", "center_offset_m"])
    writer.writerow([f"{ellipse.major_axis_m:.6f}", f"{ellipse.minor_axis_m:.6f}",
                     f"{ellipse.center_offset_m:.6f}"])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_tau(args, parser):
    table = load_tau_coefficients(args.coefficients)
    out = _open_output(args.output)
    writer = csv.writer(out)
    if args.ndvi is not None:
        tau, clamped = ndvi_to_tau(args.ndvi, table, args.land_cover)
        writer.writerow(["ndvi", "tau", "clamped"])
        writer.writerow([f"{args.ndvi:.6f}", f"{tau:.6f}",
                         "true" if clamped else "false"])
    elif args.input:
        series = daily_ndvi_series(load_reflectance_csv(args.input))
        writer.writerow(["date", "ndvi", "tau"])
        for day, value in series.items():
            tau, _ = ndvi_to_tau(value, table, args.land_cover)
            writer.writerow([day.isoformat(), f"{value:.6f}", f"{tau:.6f}"])
    else:
        parser.error("tau requires either --ndvi or --input")
    if out is not sys.stdout:
        out.close()
    return 0


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def _add_io(sub, output_only=False):
    if not output_only:
        sub.add_argument("--input", default="-", help="input CSV path or - for stdin")
    sub.add_argument("--output", default="-", help="output path or - for stdout")


def _add_surface_args(sub):
    sub.add_argument("--config", help="campaign config supplying the site surface")
    sub.add_argument("--site", help="site name within --config")
    sub.add_argument("--clay-fraction", type=float, dest="clay_fraction",
                     help="clay mass fraction in [0, 1]")
    sub.add_argument("--land-cover", default="bare_soil", dest="land_cover")
    sub.add_argument("--incidence", type=float, default=40.0,
                     help="incidence angle, degrees")
    sub.add_argument("--h", type=float, help="site roughness override")
    sub.add_argument("--omega", type=float, help="site scattering albedo override")
    sub.add_argument("--t-e", type=float, default=CONSTANT_T_E, dest="t_e",
                     help="effective soil temperature, K")
    sub.add_argument("--frequency", type=float, default=L_BAND_GHZ,
                     help="frequency, GHz")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lbandsm",
        description="L-band soil moisture retrieval pipeline",
        epilog="Shipped presets: " + ", ".join(PRESET_NAMES)
               + ". SCAV/SCAH: single-channel V/H, look-up-table h and omega, "
                 "NDVI opacity, probe temperature. RDCA: dual-channel with "
                 "opacity regularization (weight 20), h=0.4612. DCA0: all "
                 "parameters zero, 292.15 K, Topp dielectric. DCA1: DCA0 with "
                 "the spectroscopic dielectric. DCA2: DCA1 with probe "
                 "temperature.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("run", help="execute a campaign end to end")
    sub.add_argument("--config", help=f"campaign file (default ${CONFIG_ENV_VAR})")
    sub.add_argument("--output", help="override the campaign output directory")
    sub.set_defaults(func=cmd_run)

    sub = commands.add_parser("calibrate", help="voltages to brightness temperatures")
    sub.add_argument("--gain-h", type=float, default=1.0, dest="gain_h")
    sub.add_argument("--gain-v", type=float, default=1.0, dest="gain_v")
    sub.add_argument("--offset-h", type=float, default=0.0, dest="offset_h")
    sub.add_argument("--offset-v", type=float, default=0.0, dest="offset_v")
    _add_io(sub)
    sub.set_defaults(func=cmd_calibrate)

    sub = commands.add_parser("filter", help="screen records against quality predicates")
    sub.add_argument("--tb-max", type=float, default=TB_MAX_DEFAULT, dest="tb_max")
    sub.add_argument("--tb-min-h", type=float, default=0.0, dest="tb_min_h",
                     help="physical floor for tb_h (forward model at sm=1)")
    sub.add_argument("--tb-min-v", type=float, default=0.0, dest="tb_min_v")
    sub.add_argument("--rejected", help="also write rejected records here")
    _add_io(sub)
    sub.set_defaults(func=cmd_filter)

    sub = commands.add_parser("represent", help="representative value of a session")
    sub.add_argument("--statistic", choices=[s.value for s in Statistic],
                     default=Statistic.MEDIAN.value)
    _add_io(sub)
    sub.set_defaults(func=cmd_represent)

    sub = commands.add_parser("retrieve", help="invert representative TB pairs")
    sub.add_argument("--preset", required=True, help="preset name or file")
    sub.add_argument("--tau-sca", type=float, dest="tau_sca",
                     help="opacity from the ndvi chain")
    _add_surface_args(sub)
    _add_io(sub)
    sub.set_defaults(func=cmd_retrieve)

    sub = commands.add_parser("forward", help="simulate brightness temperatures")
    sub.add_argument("--preset", required=True, help="preset name or file")
    sub.add_argument("--sm", type=float, required=True, help="soil moisture, m3/m3")
    sub.add_argument("--tau", type=float, default=0.0, help="nadir opacity")
    sub.add_argument("--samples", type=int, default=0,
                     help="emit a synthetic session of N samples")
    sub.add_argument("--seed", type=int, default=0, help="noise seed for --samples")
    sub.add_argument("--noise-k", type=float, default=0.0, dest="noise_k",
                     help="per-sample gaussian noise, K")
    sub.add_argument("--start", default="2023-11-11T14:00:00Z",
                     help="first sample timestamp for --samples")
    _add_surface_args(sub)
    _add_io(sub, output_only=True)
    sub.set_defaults(func=cmd_forward)

    sub = commands.add_parser("metrics", help="compare aligned moisture series")
    _add_io(sub)
    sub.set_defaults(func=cmd_metrics)

    sub = commands.add_parser("footprint", help="ground footprint ellipse")
    sub.add_argument("--height", type=float, required=True, help="mount height, m")
    sub.add_argument("--incidence", type=float, default=40.0)
    sub.add_argument("--beamwidth", type=float, default=37.0,
                     help="full 3 dB beamwidth, degrees")
    _add_io(sub, output_only=True)
    sub.set_defaults(func=cmd_footprint)

    sub = commands.add_parser("tau", help="vegetation opacity from NDVI")
    sub.add_argument("--land-cover", default="grassland", dest="land_cover")
    sub.add_argument("--coefficients", help="opacity coefficient file")
    sub.add_argument("--ndvi", type=float, help="single NDVI value")
    sub.add_argument("--input", help="reflectance CSV for a daily series")
    sub.add_argument("--output", default="-")
    sub.set_defaults(func=cmd_tau)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args, parser)
    except (DataError, ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
