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
import contextlib
import csv
import logging
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ancillary import (daily_ndvi_series, load_reflectance_csv,
                        load_tau_coefficients, ndvi_to_tau)
from .config import CONFIG_ENV_VAR, load_campaign
from .errors import (ConfigError, DataError, DomainError, csv_records, decode_text,
                     read_text, split_header)
from .geometry import footprint
from .pipeline import (METRICS_COLUMNS, RESULT_COLUMNS, metrics_fields, result_fields,
                       run_pipeline)
from .preprocess import (CalibrationParams, FilterThresholds, Statistic,
                         TB_HEADER, TB_MAX_DEFAULT, VOLTAGE_HEADER, filter_tb,
                         parse_utc_timestamp, representative, session_from_text,
                         session_stats, session_text, write_session)
from .radiative import L_BAND_GHZ, TbPair, simulate_tb
from .retrieval import (CONSTANT_T_E, PRESET_NAMES, TAU_SCA_KINDS, SurfaceConfig,
                        load_preset, retrieve)
from .synth import SAMPLE_PERIOD_S
from .validation import metrics

logger = logging.getLogger(__name__)


def _read_input(path):
    """The UTF-8 text of an --input file, or of stdin for '-'."""
    if path in (None, "-"):
        # a text stream without a byte buffer has been decoded already
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
        return data if isinstance(data, str) else decode_text(data, "<stdin>")
    return read_text(path)


@contextlib.contextmanager
def _outputs(*paths):
    """A text file open for writing for each of `paths`: stdout for '-',
    None for None. Every file is opened before a regular file among them
    is emptied. When one cannot be opened, or two name the same regular
    file, the DataError leaves the files that existed as they were and
    removes the ones this call created. The files opened here are closed
    on leaving."""
    with contextlib.ExitStack() as stack:
        files, created, regular = [], [], {}
        try:
            for path in paths:
                if path is None or path == "-":
                    files.append(None if path is None else sys.stdout)
                    continue
                try:
                    try:
                        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                        created.append(path)
                    except FileExistsError:
                        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                except OSError as exc:
                    raise DataError(f"cannot write: {exc.strerror}", path=path) from None
                files.append(stack.enter_context(open(fd, "w", newline="", encoding="utf-8")))
                info = os.fstat(fd)
                if stat.S_ISREG(info.st_mode):
                    key = (info.st_dev, info.st_ino)
                    if key in regular:
                        raise DataError(f"same file as output {regular[key]}", path=path)
                    regular[key] = path
        except DataError:
            for path in created:
                with contextlib.suppress(OSError):
                    os.unlink(path)
            raise
        for fh in files:
            if fh not in (None, sys.stdout) and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
        yield files


def _write_rows(path, rows):
    """Write CSV `rows` to an --output path, or to stdout for '-'."""
    with _outputs(path) as (out,):
        csv.writer(out).writerows(rows)


def _body(path, expected_header, what):
    """The CSV text of an input after a header that must match."""
    header, body = split_header(_read_input(path))
    if header is None:
        raise DataError(f"empty {what} input")
    if header != expected_header:
        raise DataError(
            f"{what}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}")
    return body


def _read_records(path, expected_header, what, parse):
    """parse(fields) of each record of an input, in file order; the first
    bad record is a DataError naming its line."""
    body = _body(path, expected_header, what)
    try:
        return [value for _, value in csv_records(body, len(expected_header), parse)]
    except DataError as exc:
        raise DataError(f"{what}: {exc}") from None


def _read_session(path, expected_header, what, calibration=None):
    """Session columns of a timestamped TB or voltage stream."""
    body = _body(path, expected_header, what)
    try:
        return session_from_text(body, calibration)
    except DataError as exc:
        raise DataError(f"{what}: {exc}") from None


def _preset_and_surface(args, parser):
    """(algo, surface, t_e, frequency_ghz) of `retrieve` and `forward`: the
    preset for the site's land cover, the site surface and frequency of
    --config/--site or, without them, the --clay-fraction/--land-cover/
    --incidence surface with the preset's h and the --frequency,
    and the temperature the preset inverts at."""
    if not (np.isfinite(args.t_e) and args.t_e > 0.0):
        parser.error(f"--t-e must be finite and positive, got {args.t_e}")
    if args.preset not in PRESET_NAMES and not Path(args.preset).is_file():
        parser.error(f"unknown preset {args.preset!r}: expected one of "
                     f"{', '.join(PRESET_NAMES)} or an existing preset file")
    if args.config:
        if args.frequency is not None:
            parser.error("--frequency cannot be used with --config, whose "
                         "frequency_ghz applies")
        campaign = load_campaign(args.config)
        if not args.site:
            parser.error("--site is required with --config")
        surface = next((site.surface for site in campaign.sites if site.name == args.site),
                       None)
        if surface is None:
            parser.error(f"unknown site {args.site!r} in {args.config}")
        algo = load_preset(args.preset, surface.land_cover)
        frequency_ghz = campaign.frequency_ghz
    else:
        if args.clay_fraction is None:
            parser.error("either --config/--site or --clay-fraction is required")
        algo = load_preset(args.preset, args.land_cover)
        surface = SurfaceConfig(args.clay_fraction, args.land_cover, args.incidence, algo.h)
        frequency_ghz = L_BAND_GHZ if args.frequency is None else args.frequency
    return algo, surface, algo.t_e(args.t_e), frequency_ghz


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
    session = _read_session(args.input, VOLTAGE_HEADER, "calibrate", cal)
    with _outputs(args.output) as (out,):
        write_session(out, session)
    return 0


def cmd_filter(args, _parser):
    thresholds = FilterThresholds(tb_max=args.tb_max, tb_min_h=args.tb_min_h,
                                  tb_min_v=args.tb_min_v)
    session = _read_session(args.input, TB_HEADER, "filter")
    flags = filter_tb(session, thresholds)
    rejected = flags != 0
    with _outputs(args.output, args.rejected) as (out, rejected_out):
        write_session(out, session.select(~rejected))
        if rejected_out:
            write_session(rejected_out, session.select(rejected), flags[rejected])
    n_rejected = int(np.count_nonzero(rejected))
    logger.info("filter: %d accepted, %d rejected", len(session) - n_rejected, n_rejected)
    return 0


def cmd_represent(args, _parser):
    session = _read_session(args.input, TB_HEADER, "represent")
    rep = representative(session, Statistic(args.statistic))
    summary = session_stats(session)
    _write_rows(args.output, [
        ["tb_h", "tb_v", "n", "std_h", "std_v"],
        [f"{rep.tb_h:.6f}", f"{rep.tb_v:.6f}", len(session),
         f"{summary.stats_h.std:.6f}", f"{summary.stats_v.std:.6f}"]])
    return 0


def cmd_retrieve(args, parser):
    algo, surface, t_e, frequency_ghz = _preset_and_surface(args, parser)
    if algo.kind in TAU_SCA_KINDS and args.tau_sca is None:
        parser.error(f"preset {algo.name} requires --tau-sca")

    def invert(fields):
        return result_fields(retrieve(TbPair(*map(float, fields)), algo, surface, t_e,
                                      tau_sca=args.tau_sca, frequency_ghz=frequency_ghz))

    rows = _read_records(args.input, ("tb_h", "tb_v"), "retrieve", invert)
    _write_rows(args.output, [RESULT_COLUMNS, *rows])
    return 0


def cmd_forward(args, parser):
    if not 0.0 <= args.sm <= 1.0:
        parser.error(f"--sm must be in [0, 1], got {args.sm}")
    if not (np.isfinite(args.tau) and args.tau >= 0.0):
        parser.error(f"--tau must be finite and non-negative, got {args.tau}")
    if args.samples < 0:
        parser.error(f"--samples must be non-negative, got {args.samples}")
    if not (np.isfinite(args.noise_k) and args.noise_k >= 0.0):
        parser.error(f"--noise-k must be finite and non-negative, got {args.noise_k}")
    algo, surface, t_e, frequency_ghz = _preset_and_surface(args, parser)
    tb_h, tb_v = simulate_tb(args.sm, args.tau, algo.omega, algo.h,
                             surface.clay_fraction, surface.incidence_deg,
                             t_e, algo.dielectric, frequency_ghz)
    tb_h, tb_v = float(tb_h), float(tb_v)
    if not args.samples:
        _write_rows(args.output, [["tb_h", "tb_v"], [f"{tb_h:.6f}", f"{tb_v:.6f}"]])
        return 0
    rng = np.random.default_rng(args.seed)
    noise = rng.normal(0.0, args.noise_k, size=(args.samples, 2))
    try:    # a --start that does not parse, or samples past 9999-12-31
        t0 = parse_utc_timestamp(args.start)
        text = session_text(TB_HEADER, t0 + np.arange(args.samples) * SAMPLE_PERIOD_S,
                            map("{:.4f},{:.4f}".format, (tb_h + noise[:, 0]).tolist(),
                                (tb_v + noise[:, 1]).tolist()))
    except ValueError as exc:
        parser.error(f"--start: {exc}")
    with _outputs(args.output) as (out,):
        out.write(text)
    return 0


def cmd_metrics(args, _parser):
    pairs = _read_records(args.input, ("sm_obs", "sm_ref"), "metrics",
                          lambda fields: [float(field) for field in fields])
    report = metrics([obs for obs, _ in pairs], [ref for _, ref in pairs])
    _write_rows(args.output, [[*METRICS_COLUMNS, "n"],
                              [*metrics_fields(report), report.n]])
    return 0


def cmd_footprint(args, _parser):
    ellipse = footprint(args.height, args.incidence, args.beamwidth)
    _write_rows(args.output, [
        ["major_axis_m", "minor_axis_m", "center_offset_m"],
        [f"{ellipse.major_axis_m:.6f}", f"{ellipse.minor_axis_m:.6f}",
         f"{ellipse.center_offset_m:.6f}"]])
    return 0


def cmd_tau(args, parser):
    table = load_tau_coefficients(args.coefficients)
    if args.ndvi is not None:
        tau, clamped = ndvi_to_tau(args.ndvi, table, args.land_cover)
        rows = [["ndvi", "tau", "clamped"],
                [f"{args.ndvi:.6f}", f"{tau:.6f}", "true" if clamped else "false"]]
    elif args.input:
        rows = [["date", "ndvi", "tau"]]
        for day, value in daily_ndvi_series(load_reflectance_csv(args.input)).items():
            tau, _ = ndvi_to_tau(value, table, args.land_cover)
            rows.append([day.isoformat(), f"{value:.6f}", f"{tau:.6f}"])
    else:
        parser.error("tau requires either --ndvi or --input")
    _write_rows(args.output, rows)
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
    sub.add_argument("--t-e", type=float, default=CONSTANT_T_E, dest="t_e",
                     help="effective soil temperature, K")
    sub.add_argument("--frequency", type=float,
                     help=f"frequency, GHz, without --config (default {L_BAND_GHZ}); "
                          "with --config the campaign's frequency_ghz applies")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lbandsm",
        description="L-band soil moisture retrieval pipeline",
        epilog="Shipped presets: " + ", ".join(PRESET_NAMES)
               + ". SCAV/SCAH: single-channel V/H, look-up-table h and omega, "
                 "NDVI opacity, probe temperature. RDCA: dual-channel with "
                 "opacity regularization. DCA0: all parameters zero, constant "
                 "temperature, Topp dielectric. DCA1: DCA0 with the "
                 "spectroscopic dielectric. DCA2: DCA1 with probe temperature.")
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

    # long options match exactly, so a removed --h is a usage error, not --help
    sub = commands.add_parser("retrieve", help="invert representative TB pairs",
                              allow_abbrev=False)
    sub.add_argument("--preset", required=True, help="preset name or file")
    sub.add_argument("--tau-sca", type=float, dest="tau_sca",
                     help="opacity from the ndvi chain")
    _add_surface_args(sub)
    _add_io(sub)
    sub.set_defaults(func=cmd_retrieve)

    sub = commands.add_parser("forward", help="simulate brightness temperatures",
                              allow_abbrev=False)
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
