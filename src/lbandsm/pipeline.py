"""Batch orchestration: sessions in, report CSVs out.

For every site session the pipeline calibrates (when needed), screens
records against the quality predicates, reduces the survivors once to
their statistics, among them the representative brightness-temperature
pair, inverts that pair under every selected algorithm preset, and
finally scores each site/preset series against the reference probes.

The run reads sites by name, each site's session files by path and
presets by name. Each site's session rows sort once by (session time,
session name, session path), and each owns its retrievals in preset
order. So rows sort by site, session time, session name, session path,
then preset (metrics rows by site, then preset) whatever order the
campaign lists its inputs in, and with fixed number formatting reruns
are byte-identical:

    sessions.csv        per-session screening and statistics
    rejections.csv      per-session histogram of rejection flags
    retrievals.csv      one row per session x preset
    metrics.csv         one row per site x preset
    metrics.txt         metrics.csv as an aligned table
    plot_tb_series.csv  representative TB series with quartiles
    plot_sm_series.csv  retrieved vs reference moisture with a 2-sigma band
    run_warnings.txt    data errors, then warnings (PipelineReport.problems),
                        as `lbandsm run` prints them; removed when none

A site's session files are read by load_session in chunks of at most
CHUNK_BYTES: the canonical bodies of a chunk are parsed as one (one
np.loadtxt and one stamp decode), and each file is parsed alone when
that joint parse fails, so every file gets the Session or DataError it
gets alone. One chunk's sessions are screened and reduced before the
next chunk is read.

Each CSV row is one line of comma-joined cells: numbers by fixed format
specs, and the free-text cells (site, session, preset, error) exactly as
csv.writer quotes them. Every file is written to <name>.tmp before any
is renamed into place, so a failed write is a DataError that leaves the
previous artifacts whole.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .ancillary import daily_ndvi_series, load_reflectance_csv, ndvi_to_tau
from .errors import DataError, DomainError
from .preprocess import (FilterThresholds, QualityFlag, TB_MAX_DEFAULT,
                         filter_tb, format_utc_timestamps, load_session, mean_std,
                         min_threshold, rejection_counts, representative,
                         session_stats, sorted_median)
from .retrieval import CONSTANT_T_E, TAU_BOUNDS, retrieve
from .validation import metrics, nearest_reference, load_reference_csv

logger = logging.getLogger(__name__)

# Byte limit of a chunk of session files (about 2,500 records): past about
# 1,200 records one parse costs no less per record, and a chunk holds no
# more than one long session does.
CHUNK_BYTES = 128 * 1024

# fields of a RetrievalResult and of a MetricsReport, as both the report
# CSVs and the CLI's retrieve/metrics rows print them
RESULT_COLUMNS = ("sm", "tau", "cost", "converged", "boundary_hit", "evaluations")
METRICS_COLUMNS = ("bias", "rmse", "ubrmse", "r", "r_flag")


@dataclass
class SessionRow:
    site: str
    session_id: str
    t_mid: float            # None until the session has a record
    path: Path              # the session file as load_campaign resolved it
    n_total: int = 0
    n_accepted: int = 0
    flag_counts: Counter = field(default_factory=Counter)
    summary: object = None
    rep: object = None      # the TbPair that every preset inverts
    tb_min_h: float = None
    tb_min_v: float = None
    t_e_measured: float = None
    sm_ref: float = None
    sm_ref_std: float = None
    tau_sca: float = None
    error: str = None       # why the session has no retrievals
    warning: str = None     # a problem that leaves its retrievals to run
    retrievals: list = field(default_factory=list)   # RetrievalRow by preset name


@dataclass
class RetrievalRow:
    site: str
    session_id: str
    preset: str
    t_e_used: float = None
    result: object = None
    error: str = None


@dataclass
class MetricsRow:
    site: str
    preset: str
    n: int
    report: object = None   # MetricsReport when n >= 2


@dataclass
class PipelineReport:
    sessions: list
    metrics_rows: list
    warnings: list
    data_errors: list
    output_dir: Path

    @property
    def problems(self):
        """The run's errors, then its warnings, as run_warnings.txt lines."""
        return [f"error: {e}" for e in self.data_errors] + \
            [f"warning: {w}" for w in self.warnings]

    @property
    def retrievals(self):
        return [r for row in self.sessions for r in row.retrievals]


def _session_date(t_mid):
    return dt.datetime.fromtimestamp(t_mid, tz=dt.timezone.utc).date()


def _chunks(paths):
    """`paths` in order, cut into runs whose files sum to at most
    CHUNK_BYTES; a larger file is a run of its own."""
    chunk, size = [], 0
    for path in paths:
        try:
            n = os.stat(path).st_size
        except OSError:
            n = 0       # load_session names the fault
        if chunk and size + n > CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
        chunk.append(path)
        size += n
    if chunk:
        yield chunk


def _process_chunk(cfg, site, paths, references, ndvi_series, data_errors):
    """SessionRows of the session files `paths`, read by one load_session
    call; the DataError of a file, or of a session whose values leave a
    model's domain, goes to data_errors in file order."""
    rows = []
    for path, session in zip(paths, load_session(paths, calibration=cfg.calibration,
                                                 skip_leading=cfg.skip_leading)):
        if isinstance(session, DataError):
            data_errors.append(str(session))
            continue
        try:
            rows.append(_process_session(cfg, site, path, session, references, ndvi_series))
        except DomainError as exc:
            data_errors.append(str(DataError(exc, path=path)))
    return rows


def _process_session(cfg, site, session_path, session, references, ndvi_series):
    session_id = Path(session_path).stem
    row = SessionRow(site=site.name, session_id=session_id, t_mid=None, path=session_path)
    if not len(session):
        row.error = "empty session"
        return row
    row.n_total = len(session)
    row.t_mid = sorted_median(session.timestamp)   # time strictly increases

    reference = nearest_reference(references, row.t_mid, cfg.align_window_s) \
        if references else None
    if reference is not None:
        row.t_e_measured = reference.point_temperature_k
        # the spatial average and the probes' population spread, from one sum
        row.sm_ref, row.sm_ref_std = mean_std(reference.point_sm)

    t_floor = row.t_e_measured if row.t_e_measured is not None else CONSTANT_T_E
    row.tb_min_h, row.tb_min_v = min_threshold(site.surface, t_floor, cfg.frequency_ghz)
    thresholds = FilterThresholds(tb_max=TB_MAX_DEFAULT, tb_min_h=row.tb_min_h,
                                  tb_min_v=row.tb_min_v)
    flags = filter_tb(session, thresholds)
    accepted = session.select(flags == 0)
    row.n_accepted = len(accepted)
    row.flag_counts = rejection_counts(flags)
    if logger.isEnabledFor(logging.INFO):
        logger.info("site %s session %s: %d/%d accepted, rejections %s",
                    site.name, session_id, row.n_accepted, row.n_total,
                    {f.value: row.flag_counts.get(f, 0) for f in QualityFlag})
    if not row.n_accepted:
        row.error = "no valid observations in session"
        return row

    row.summary = session_stats(accepted)
    row.rep = representative(row.summary, cfg.statistic)

    entry = cfg.tau_table.entries.get(site.surface.land_cover)
    if entry is not None and entry.b == 0.0:
        row.tau_sca = 0.0
    elif ndvi_series is not None:
        value = ndvi_series.value_on(_session_date(row.t_mid))
        tau_sca, _ = ndvi_to_tau(value, cfg.tau_table, site.surface.land_cover)
        if tau_sca <= TAU_BOUNDS[1]:
            row.tau_sca = tau_sca
        else:   # the presets that read it report it missing
            row.warning = f"tau_sca {tau_sca:.6g} is outside the opacity box {TAU_BOUNDS}"
    return row


def _retrieve_session(cfg, site, session_row, algo):
    out = RetrievalRow(site=site.name, session_id=session_row.session_id,
                       preset=algo.name, t_e_used=algo.t_e(session_row.t_e_measured))
    if out.t_e_used is None:
        out.error = "no reference temperature within the alignment window"
        return out
    try:
        out.result = retrieve(session_row.rep, algo, site.surface, out.t_e_used,
                              tau_sca=session_row.tau_sca,
                              frequency_ghz=cfg.frequency_ghz)
    except DomainError as exc:
        out.error = str(exc)
    return out


def run_pipeline(cfg, output_dir=None):
    """Execute a campaign; returns a PipelineReport after writing all
    artifacts. Malformed files, and sessions whose values fall outside a
    model's domain, are recorded as data errors and the affected session
    or site skipped; everything else still runs. An output directory that
    cannot be made is a DataError before any site is read.
    """
    out_dir = Path(output_dir) if output_dir else cfg.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write: {exc.strerror}", path=out_dir) from None
    sessions, metrics_rows, warnings, data_errors = [], [], [], []

    for site in sorted(cfg.sites, key=lambda s: s.name):
        if not site.session_paths:
            warnings.append(f"site {site.name}: no session files configured")
        try:
            references = load_reference_csv(site.reference_path) \
                if site.reference_path else []
            ndvi_series = None
            if site.reflectance_path is not None:
                samples = load_reflectance_csv(site.reflectance_path)
                try:
                    ndvi_series = daily_ndvi_series(samples)
                except DomainError as exc:
                    raise DataError(str(exc), path=site.reflectance_path) from None
        except DataError as exc:
            data_errors.append(str(exc))
            continue

        site_rows = []
        for chunk in _chunks(sorted(site.session_paths)):
            site_rows += _process_chunk(cfg, site, chunk, references, ndvi_series, data_errors)
        warnings += (f"site {site.name} session {row.session_id}: {row.error or row.warning}"
                     for row in site_rows if row.error or row.warning)
        site_rows.sort(key=lambda r: (r.t_mid or 0.0, r.session_id, r.path))
        sessions += site_rows
        ready = [row for row in site_rows if not row.error]

        for algo in sorted(site.presets, key=lambda a: a.name):
            series_obs, series_ref = [], []
            for row in ready:
                rrow = _retrieve_session(cfg, site, row, algo)
                row.retrievals.append(rrow)
                if rrow.error:
                    warnings.append(f"site {site.name} session {row.session_id} "
                                    f"preset {algo.name}: {rrow.error}")
                elif row.sm_ref is not None:
                    series_obs.append(rrow.result.sm)
                    series_ref.append(row.sm_ref)
            report = metrics(series_obs, series_ref) if len(series_obs) >= 2 else None
            metrics_rows.append(MetricsRow(site=site.name, preset=algo.name,
                                           n=len(series_obs), report=report))

    report = PipelineReport(sessions=sessions, metrics_rows=metrics_rows, warnings=warnings,
                            data_errors=data_errors, output_dir=out_dir)
    write_artifacts(report)
    return report


# ----------------------------------------------------------------------
# Artifact writing
# ----------------------------------------------------------------------

def render_metrics_table(metrics_rows):
    """Human-readable companion to metrics.csv."""
    width = max([4] + [len(m.site) for m in metrics_rows])
    lines = [f"{'site':<{width}}  preset    n      bias      rmse    ubrmse        r"]
    for m in metrics_rows:
        rep = m.report
        if rep is None:
            lines.append(f"{m.site:<{width}}  {m.preset:<6} {m.n:>3}"
                         + "         -" * 4)
            continue
        r_text = f"{rep.r:>9.3f}" if not math.isnan(rep.r) else "        -"
        if rep.r_flag != "ok":
            r_text += f" ({rep.r_flag})"
        lines.append(f"{m.site:<{width}}  {m.preset:<6} {m.n:>3} "
                     f"{rep.bias:>9.4f} {rep.rmse:>9.4f} {rep.ubrmse:>9.4f}{r_text}")
    return lines


def _opt(value, spec):
    """`value` formatted by `spec`; empty for None."""
    return "" if value is None else format(value, spec)


def result_fields(result):
    """The RESULT_COLUMNS fields of a RetrievalResult; empty for None."""
    if result is None:
        return [""] * len(RESULT_COLUMNS)
    return [f"{result.sm:.6f}", _opt(result.tau, ".6f"), f"{result.cost:.6e}",
            "true" if result.converged else "false",
            "true" if result.boundary_hit else "false", f"{result.evaluations}"]


def metrics_fields(report):
    """The METRICS_COLUMNS fields of a MetricsReport; empty for None."""
    if report is None:
        return [""] * len(METRICS_COLUMNS)
    return [f"{report.bias:.6f}", f"{report.rmse:.6f}", f"{report.ubrmse:.6f}",
            "" if math.isnan(report.r) else f"{report.r:.6f}", report.r_flag]


def _text(cell):
    """A free-text cell as csv.writer writes it within a row: unchanged
    unless it holds a comma, a quote, a CR or an LF, and then as
    csv.writer writes it (which, with an LF line terminator, leaves a cell
    whose only such character is a CR unquoted)."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cell])
        return buf.getvalue()[:-1]
    return cell


def _write_set(out, files, stale=()):
    """Write the (name, text) `files` into directory `out` as one set: all
    to `<name>.tmp` as UTF-8 before any is renamed over `<name>`, then
    remove the `stale` names. On any failure the .tmp files are removed,
    and an OSError is a DataError naming the path."""
    path, written = out, []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            path = os.path.join(out, name)
            tmp = path + ".tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            written.append((tmp, path))
            try:
                data = memoryview(text.encode("utf-8"))
                while data:     # os.write may write less than it is given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        for tmp, path in written:
            os.replace(tmp, path)
        for name in stale:
            path = out / name
            path.unlink(missing_ok=True)
    except BaseException as exc:
        for tmp, _ in written:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write: {exc.strerror}", path=path) from None
        raise


def write_artifacts(report):
    """Write the report files in one pass over the sessions and the
    retrievals each one owns, formatting each value once. Each CSV row is
    one ",".join of its cells, the site, session, preset and error texts
    through _text, so each file holds the bytes that csv.writer would
    write for the same cells."""
    sessions = ["site,session,t_mid,n_total,n_accepted,"
                "n_max_exceeded,n_min_violated,n_pol_order_violated,"
                "tb_h_rep,tb_v_rep,mean_h,std_h,p25_h,p50_h,p75_h,"
                "mean_v,std_v,p25_v,p50_v,p75_v,tb_min_h,tb_min_v,"
                "t_e_measured,sm_ref,sm_ref_std,tau_sca,error"]
    rejections = ["site,session,flag,count"]
    tb_series = ["site,session,t_mid,tb_h_p25,tb_h_p50,tb_h_p75,tb_h_mean,"
                 "tb_v_p25,tb_v_p50,tb_v_p75,tb_v_mean"]
    retrievals = [",".join(["site", "session", "t_mid", "preset", "t_e_used", "tau_sca",
                            *RESULT_COLUMNS, "error"])]
    sm_series = ["site,session,t_mid,preset,sm_retrieved,sm_ref,sm_ref_lo,sm_ref_hi"]
    t_mids = iter(format_utc_timestamps([r.t_mid for r in report.sessions
                                         if r.t_mid is not None]))
    for r in report.sessions:
        key = f"{_text(r.site)},{_text(r.session_id)}"
        t_mid = "" if r.t_mid is None else next(t_mids)
        counts = [f"{r.flag_counts.get(f, 0)}" for f in QualityFlag]
        stats = [""] * 12
        s = r.summary
        if s is not None:
            h, v = ([f"{x:.4f}" for x in (c.mean, c.std, c.p25, c.p50, c.p75)]
                    for c in (s.stats_h, s.stats_v))
            stats = [f"{r.rep.tb_h:.4f}", f"{r.rep.tb_v:.4f}", *h, *v]
            tb_series.append(",".join([key, t_mid, *h[2:], h[0], *v[2:], v[0]]))
        sm_ref, tau_sca = _opt(r.sm_ref, ".6f"), _opt(r.tau_sca, ".6f")
        sessions.append(",".join([
            key, t_mid, f"{r.n_total}", f"{r.n_accepted}", *counts, *stats,
            _opt(r.tb_min_h, ".4f"), _opt(r.tb_min_v, ".4f"),
            _opt(r.t_e_measured, ".4f"), sm_ref, _opt(r.sm_ref_std, ".6f"),
            tau_sca, _text(r.error or "")]))
        rejections += (f"{key},{flag.value},{n}" for flag, n in zip(QualityFlag, counts))
        lo = hi = ""
        if r.sm_ref is not None:
            lo = f"{max(r.sm_ref - 2.0 * r.sm_ref_std, 0.0):.6f}"
            hi = f"{r.sm_ref + 2.0 * r.sm_ref_std:.6f}"
        for rr in r.retrievals:
            head = f"{key},{t_mid},{_text(rr.preset)}"
            fields = result_fields(rr.result)
            retrievals.append(",".join([head, _opt(rr.t_e_used, ".4f"), tau_sca, *fields,
                                        _text(rr.error or "")]))
            if rr.result is not None:
                sm_series.append(",".join([head, fields[0], sm_ref, lo, hi]))

    metrics_rows = [",".join(["site", "preset", "n", *METRICS_COLUMNS])]
    metrics_rows += (",".join([_text(m.site), _text(m.preset), f"{m.n}",
                               *metrics_fields(m.report)])
                     for m in report.metrics_rows)

    files = [(name, "\n".join(lines) + "\n") for name, lines in (
        ("sessions.csv", sessions), ("rejections.csv", rejections),
        ("retrievals.csv", retrievals), ("metrics.csv", metrics_rows),
        ("plot_tb_series.csv", tb_series), ("plot_sm_series.csv", sm_series))]
    files.append(("metrics.txt", "\n".join(render_metrics_table(report.metrics_rows)) + "\n"))
    lines = report.problems
    if lines:
        files.append(("run_warnings.txt", "\n".join(lines) + "\n"))
    _write_set(report.output_dir, files, stale=() if lines else ("run_warnings.txt",))
