#!/usr/bin/env python3
"""Campaign benchmark for lbandsm.

    python3 bench/run.py --workload ingest_screen --seed 20231111 --seconds 55 --trace 0

A run generates a workload's synthetic campaigns with
``synth.generate_campaign`` and times ``config.load_campaign`` followed
by ``pipeline.run_pipeline`` on each, which is what ``lbandsm run``
does. The loop is closed, with one client, in this one process and with
no extra threads; one untimed warm-up iteration comes first. Every
iteration is checked for correctness.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations of the same workload for the per-layer
numbers and the tracing overhead, then times the radiative kernel
directly on fixed inputs. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 1 when any correctness check failed. See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_run"

ALL_PRESETS = ("SCAV", "SCAH", "RDCA", "DCA0", "DCA1", "DCA2")
# A workload is n_campaigns campaigns of n_days sessions each. Cutting
# one long campaign into short ones keeps the soil moisture of every
# campaign near synth's starting value, so the solver's cost does not
# follow one seed's moisture walk, and it lets the host reference be
# timed between campaigns (see reference_s).
WORKLOADS = {
    # long streams, cheap inversions: ingest and screening dominate
    "ingest_screen": {"n_campaigns": 4, "n_days": 5, "n_samples": 6000,
                      "presets": ("SCAV", "SCAH")},
    # short streams, expensive dual-channel solves: inversion dominates
    "dual_inversion": {"n_campaigns": 8, "n_days": 5, "n_samples": 60,
                       "presets": ("RDCA", "DCA0", "DCA1", "DCA2")},
    # many small sessions: per-call costs and the O(n^2) scans show; not
    # in BENCHMARK.json (see bench/README.md), kept for manual runs
    "season": {"n_campaigns": 1, "n_days": 730, "n_samples": 60,
               "presets": ("SCAV", "SCAH")},
    # tiny campaign over every preset, for the benchmark's own test
    "smoke": {"n_campaigns": 1, "n_days": 2, "n_samples": 60, "presets": ALL_PRESETS},
}
DEFAULT_SEED = 20231111
SETUP_REPS = 3
IMPORT_REPS = 5
IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from lbandsm import config, pipeline, synth")
# sm_rmse_truth comes from this fixed campaign: the RMSE of a seed's own
# campaign varies by seed (by half between seeds on dual_inversion),
# which would hide a change in accuracy
ACCURACY_CAMPAIGN = {"seed": DEFAULT_SEED, "n_days": 10, "n_samples": 60}

OUTLIERS_PER_SESSION = 3     # synth injects one record per rejection flag
FLAGS = ("max_exceeded", "min_violated", "pol_order_violated")
SCA_PRESETS = ("SCAV", "SCAH")
SM_TRUTH_TOL = 1e-3          # acceptance criterion 1
DIGESTED = ("sessions.csv", "rejections.csv", "retrievals.csv", "metrics.csv")

# radiative direct pass: fixed surface, sm sweep sizes and repeats
KERNEL_SURFACE = (0.20, 40.0, 0.15)      # clay fraction, incidence deg, h
KERNEL_SCALAR_N = 20_000
KERNEL_VECTOR_N = 200_000
KERNEL_REPS = 5
KERNEL_AGREEMENT = 1e-12     # scalar and vector emissivities must agree

REFERENCE_STEPS = 160_000    # loop steps of the host speed reference, 15-30 ms

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "campaign_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sm_rmse_truth": "m3/m3",
}


def _preset_of(args):
    algo = args[1] if len(args) > 1 else None
    return getattr(getattr(algo, "kind", None), "value", None)


# lbandsm.pipeline attribute -> (span name, tag of the call)
PIPELINE_CALLS = {
    "load_reflectance_csv": ("ancillary.load_reflectance_csv", None),
    "daily_ndvi_series": ("ancillary.daily_ndvi_series", None),
    "ndvi_to_tau": ("ancillary.ndvi_to_tau", None),
    "load_session": ("preprocess.load_session", None),
    "min_threshold": ("preprocess.min_threshold", None),
    "filter_tb": ("preprocess.filter_tb", None),
    "session_stats": ("preprocess.session_stats", None),
    "representative": ("preprocess.representative", None),
    "retrieve": ("retrieval.retrieve", _preset_of),
    "load_reference_csv": ("validation.load_reference_csv", None),
    "nearest_reference": ("validation.nearest_reference", None),
    "metrics": ("validation.metrics", None),
    "write_artifacts": ("pipeline.write_artifacts", None),
}

# per-layer time metric -> span names whose self times it sums; together
# with the campaign span's own glue they cover the traced campaign time
LAYER_TIMES = {
    "config.load_campaign.s": ("config.load_campaign",),
    "preprocess.load_session.s": ("preprocess.load_session",),
    "preprocess.filter_tb.s": ("preprocess.filter_tb",),
    "preprocess.reduce.s": ("preprocess.session_stats", "preprocess.representative"),
    "preprocess.min_threshold.s": ("preprocess.min_threshold",),
    "retrieval.s": ("retrieval.retrieve",),
    "ancillary.s": ("ancillary.load_reflectance_csv", "ancillary.daily_ndvi_series",
                    "ancillary.ndvi_to_tau"),
    "validation.load_reference_csv.s": ("validation.load_reference_csv",),
    "validation.nearest_reference.s": ("validation.nearest_reference",),
    "validation.metrics.s": ("validation.metrics",),
    "pipeline.write_artifacts.s": ("pipeline.write_artifacts",),
    "pipeline.self_s": ("pipeline.run_pipeline",),
}

PER_LAYER_UNITS = {
    "config.load_campaign.s": "s",
    "preprocess.load_session.s": "s",
    "preprocess.load_session.records_per_s": "1/s",
    "preprocess.filter_tb.s": "s",
    "preprocess.filter_tb.records_per_s": "1/s",
    "preprocess.reduce.s": "s",
    "preprocess.min_threshold.s": "s",
    "preprocess.records": "count",
    "preprocess.accepted": "count",
    "preprocess.rejected.max_exceeded": "count",
    "preprocess.rejected.min_violated": "count",
    "preprocess.rejected.pol_order_violated": "count",
    "radiative.scalar.mironov.evals_per_s": "1/s",
    "radiative.scalar.topp.evals_per_s": "1/s",
    "radiative.vector.mironov.evals_per_s": "1/s",
    "radiative.vector.topp.evals_per_s": "1/s",
    "retrieval.s": "s",
    "retrieval.ms_p50": "ms",
    "retrieval.ms_tail": "ms",
    "retrieval.evals_mean": "count",
    "retrieval.evals_max": "count",
    "retrieval.nonconverged": "count",
    "retrieval.boundary_hits": "count",
    "retrieval.evals_total": "count",
    "retrieval.us_per_eval": "us",
    "ancillary.s": "s",
    "validation.load_reference_csv.s": "s",
    "validation.nearest_reference.s": "s",
    "validation.nearest_reference.calls": "count",
    "validation.metrics.s": "s",
    "pipeline.write_artifacts.s": "s",
    "pipeline.write_artifacts.bytes": "B",
    "pipeline.self_s": "s",
    "pipeline.warmup_s": "s",
    "trace.overhead_s": "s",
}


class Program:
    """The lbandsm modules under test, imported from this checkout."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import lbandsm
        from lbandsm import config, pipeline, synth
        location = Path(lbandsm.__file__).resolve()
        if SRC.resolve() not in location.parents:
            raise ImportError(f"lbandsm was imported from {location}, not from {SRC}")
        self.lbandsm, self.config, self.pipeline, self.synth = lbandsm, config, pipeline, synth


# ----------------------------------------------------------------------
# Set-up and correctness
# ----------------------------------------------------------------------

def make_campaign(program, root, presets, seed, n_days, n_samples):
    """Generate a synthetic campaign with the given presets selected;
    returns its campaign file and truth rows."""
    truth = program.synth.generate_campaign(root, seed=seed, n_days=n_days,
                                            n_samples=n_samples)
    cfg_path = root / "campaign.cfg"
    text = cfg_path.read_text(encoding="utf-8")
    text, n = re.subn(r"^presets = .*$", "presets = " + ", ".join(presets), text,
                      flags=re.MULTILINE)
    if n != 1:
        raise RuntimeError(f"{cfg_path}: expected one 'presets =' line, found {n}")
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path, truth


def import_times():
    """Wall time of a fresh interpreter that imports the lbandsm modules
    this benchmark uses, IMPORT_REPS times; the import in this process is
    one sample only, on a host whose speed drifts."""
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def campaign_seeds(seed, n):
    """Seeds of a workload's n campaigns: the first is `seed` itself, the
    others are drawn from it."""
    import numpy as np
    return [seed] + [int(s) for s in np.random.SeedSequence(seed).generate_state(n - 1)]


def set_up(program, workload, seed, run_dir):
    """Generate the workload's campaigns and load each once, SETUP_REPS
    times; returns the campaign files and truth rows of the last
    repetition and the time of each repetition."""
    seeds = campaign_seeds(seed, workload["n_campaigns"])
    times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        campaigns = []
        for k, campaign_seed in enumerate(seeds):
            cfg_path, truth = make_campaign(
                program, run_dir / f"setup{rep}" / f"campaign{k}", workload["presets"],
                campaign_seed, workload["n_days"], workload["n_samples"])
            program.config.load_campaign(cfg_path)
            campaigns.append((cfg_path, truth))
        times.append(time.perf_counter() - t0)
        if rep:
            shutil.rmtree(run_dir / f"setup{rep - 1}")
    return campaigns, times


def run_campaign(program, cfg_path):
    """What ``lbandsm run`` does."""
    return program.pipeline.run_pipeline(program.config.load_campaign(cfg_path))


def accuracy_check(program, workload, run_dir):
    """Check one run of the fixed accuracy campaign with the workload's
    presets; its sm RMSE against truth depends on the program only, not
    on the seed of the run."""
    cfg_path, truth = make_campaign(program, run_dir / "accuracy", workload["presets"],
                                    **ACCURACY_CAMPAIGN)
    checker = Checker(truth, workload["presets"])
    checker.check(run_campaign(program, cfg_path))
    return checker


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks each iteration's report and artifacts; counts every
    session x preset retrieval as attempted, and as failed when it has an
    error row, did not converge or fails a check."""

    def __init__(self, truth, presets):
        self.truth = {(t.site, t.session_id): t for t in truth}
        self.presets = presets
        self.digests = None
        self.sm_rmse = None
        self.attempted = self.failed = 0
        self.problems = []

    def problem(self, text):
        if text not in self.problems:
            self.problems.append(text)

    def check(self, report):
        if report.data_errors:
            self.problem(f"data errors: {report.data_errors[:3]}")
        bad_sessions = set()
        sessions = {(r.site, r.session_id): r for r in report.sessions}
        for key in self.truth:
            row = sessions.get(key)
            flags = {f.value: n for f, n in row.flag_counts.items()} if row else {}
            if (row is None or row.error
                    or row.n_accepted != row.n_total - OUTLIERS_PER_SESSION
                    or flags != {flag: 1 for flag in FLAGS}):
                bad_sessions.add(key)
                self.problem(f"session {key}: wrong screening result")

        rows = {(r.site, r.session_id, r.preset): r for r in report.retrievals}
        failed, sq_err = 0, []
        for key, truth in self.truth.items():
            for preset in self.presets:
                row = rows.get((*key, preset))
                res = row.result if row else None
                if res is not None:
                    sq_err.append((res.sm - truth.sm_true) ** 2)
                if res is None or row.error or not res.converged:
                    self.problem(f"retrieval {key} {preset}: missing, error or "
                                 "not converged")
                elif preset in SCA_PRESETS and abs(res.sm - truth.sm_true) >= SM_TRUTH_TOL:
                    self.problem(f"retrieval {key} {preset}: sm {res.sm} vs "
                                 f"truth {truth.sm_true}")
                elif key not in bad_sessions:
                    continue
                failed += 1
        attempted = len(self.truth) * len(self.presets)

        digests = {name: sha256_of(report.output_dir / name) for name in DIGESTED}
        if self.digests is None:
            self.digests = digests
            self.sm_rmse = (sum(sq_err) / len(sq_err)) ** 0.5 if sq_err else float("nan")
        elif digests != self.digests:
            self.problem("artifacts differ between iterations")
            failed = attempted
        self.attempted += attempted
        self.failed += failed


def check_all(checkers, reports):
    for checker, report in zip(checkers, reports):
        checker.check(report)


def merged(checkers):
    """One checker holding the counts and problems of all `checkers`,
    each problem labelled with its campaign."""
    total = Checker([], ())
    for k, checker in enumerate(checkers):
        total.attempted += checker.attempted
        total.failed += checker.failed
        for text in checker.problems:
            total.problem(f"campaign {k}: {text}")
    return total


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def tail_percentile(n):
    """Highest percentile of the ladder with at least TAIL_MIN_BEYOND of
    n samples beyond it; the median when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50


def percentile(values, p):
    import numpy as np
    return float(np.percentile(np.asarray(values), p))


def artifact_bytes(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def retrieval_counts(reports, presets):
    """Exact per-preset counters from the RetrievalResults."""
    counts = {}
    for preset in presets + ("all",):
        results = [r.result for report in reports for r in report.retrievals
                   if r.result is not None and preset in (r.preset, "all")]
        evals = [res.evaluations for res in results]
        counts[preset] = {
            "n": len(results),
            "evals_total": sum(evals),
            "evals_mean": sum(evals) / len(evals) if evals else 0.0,
            "evals_max": max(evals, default=0),
            "nonconverged": sum(not res.converged for res in results),
            "boundary_hits": sum(bool(res.boundary_hit) for res in results),
        }
    return counts


def timing_summary(durations_s, n_per_iteration):
    """Median and tail in ms of pooled per-call durations; the tail
    percentile is chosen from the calls in one iteration, so it does not
    depend on how many iterations the run fitted in."""
    p = tail_percentile(n_per_iteration)
    return {"ms_p50": 1e3 * percentile(durations_s, 50),
            "ms_tail": 1e3 * percentile(durations_s, p),
            "tail_percentile": p, "n_timed": len(durations_s)}


def radiative_pass():
    """Emissivity evaluations per second on fixed inputs, for both
    dielectric models, through the scalar closure and the vector path;
    returns the rates and the largest scalar/vector disagreement."""
    import numpy as np
    from lbandsm.radiative import (DielectricModel, emissivity_evaluator,
                                   soil_emissivity_pair)

    clay, incidence, h = KERNEL_SURFACE
    sweep = np.linspace(0.01, 0.70, KERNEL_SCALAR_N)
    sweep_list = sweep.tolist()
    grid = np.linspace(0.01, 0.70, KERNEL_VECTOR_N)
    rates, worst = {}, 0.0
    for model in (DielectricModel.MIRONOV, DielectricModel.TOPP):
        e_pair = emissivity_evaluator(clay, incidence, h, model)
        scalar = np.array([e_pair(sm) for sm in sweep_list])   # warm-up
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            [e_pair(sm) for sm in sweep_list]
            times.append(time.perf_counter() - t0)
        rates[f"radiative.scalar.{model.value}.evals_per_s"] = \
            KERNEL_SCALAR_N / statistics.median(times)

        soil_emissivity_pair(grid, clay, incidence, h, model)   # warm-up
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            soil_emissivity_pair(grid, clay, incidence, h, model)
            times.append(time.perf_counter() - t0)
        rates[f"radiative.vector.{model.value}.evals_per_s"] = \
            KERNEL_VECTOR_N / statistics.median(times)

        e_h, e_v = soil_emissivity_pair(sweep, clay, incidence, h, model)
        worst = max(worst, float(np.max(np.abs(scalar - np.column_stack([e_h, e_v])))))
    return rates, worst


def reference_s():
    """Time of a fixed pure-Python loop that lives in this file, so no
    change to lbandsm alters it. On a shared host the speed one process
    gets drifts by tens of percent within seconds and over minutes
    (co-tenants); a campaign's time divided by the time of this loop,
    taken right before and after the campaign, cancels most of that
    drift but not a change in lbandsm."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_STEPS):
        total += (i * 0.5) ** 0.5 if i % 3 else i / 7.0
    return time.perf_counter() - t0


def measure_untraced(program, cfg_paths, checkers, seconds):
    """Closed loop for `seconds`; an iteration runs every campaign of the
    workload, with the reference timed before the first campaign and
    after each. Returns each iteration's time in seconds and in
    reference units (the sum over its campaigns of each campaign's time
    over the mean of the reference times on either side of it), and
    every reference time."""
    times, rels, refs, units = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        gc.collect()
        refs.append(reference_s())
        total = rel = 0.0
        for cfg_path, checker in zip(cfg_paths, checkers):
            t0 = time.perf_counter()
            report = run_campaign(program, cfg_path)
            elapsed = time.perf_counter() - t0
            refs.append(reference_s())
            units.append(elapsed)
            total += elapsed
            rel += elapsed / (0.5 * (refs[-2] + refs[-1]))
            checker.check(report)
        times.append(total)
        rels.append(rel)
    return times, rels, refs, units


def measure_traced(program, cfg_paths, checkers, seconds, tracer):
    """Alternate untraced and traced iterations for `seconds`; returns
    the untraced and traced iteration times, per-iteration span
    summaries and the last traced reports."""
    plain, traced, summaries = [], [], []
    for attr in PIPELINE_CALLS:
        if not hasattr(program.pipeline, attr):
            print(f"bench: lbandsm.pipeline has no {attr}; its time counts as "
                  "pipeline.self_s", file=sys.stderr)
    load = tracer.wrap("config.load_campaign", program.config.load_campaign)
    run = tracer.wrap("pipeline.run_pipeline", program.pipeline.run_pipeline)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        reports = [run_campaign(program, cfg_path) for cfg_path in cfg_paths]
        plain.append(time.perf_counter() - t0)
        check_all(checkers, reports)

        gc.collect()
        tracer.run_id += 1
        reports = []
        with tracer.patched(program.pipeline, PIPELINE_CALLS):
            t0 = time.perf_counter()
            for cfg_path in cfg_paths:
                with tracer.span("campaign"):
                    reports.append(run(load(cfg_path)))
            traced.append(time.perf_counter() - t0)
        check_all(checkers, reports)
        summaries.append(tracer.summary(tracer.run_id))
    return plain, traced, summaries, reports


def untraced_run(program, workload, cfg_paths, checkers, args, run_dir, setup_s):
    times, rels, refs, units = measure_untraced(program, cfg_paths, checkers, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker = merged(checkers)
    accuracy = accuracy_check(program, workload, run_dir)
    checker.attempted += accuracy.attempted
    checker.failed += accuracy.failed
    for text in accuracy.problems:
        checker.problem(f"accuracy campaign: {text}")
    metrics = {
        "campaign_rel": statistics.median(rels),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        "sm_rmse_truth": accuracy.sm_rmse,
    }
    detail = {"campaign_s": summary_of(times),
              "reference_ms": summary_of([1e3 * r for r in refs]),
              "per_campaign_s": units,
              "failed_frac": checker.failed / checker.attempted,
              "sm_rmse_truth_of_seed": [c.sm_rmse for c in checkers]}
    return metrics, detail, checker


def traced_run(program, workload, cfg_paths, checkers, args, warmup_s):
    tracer = Tracer()
    plain, traced, summaries, reports = measure_traced(
        program, cfg_paths, checkers, args.seconds, tracer)
    tracer.write(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    kernel_rates, disagreement = radiative_pass()
    checker = merged(checkers)
    if disagreement > KERNEL_AGREEMENT:
        checker.problem(f"scalar and vector emissivities differ by {disagreement:.3g}")
    metrics, detail = per_layer_metrics(workload, summaries, reports, traced, plain,
                                        warmup_s, kernel_rates)
    detail["kernel_max_disagreement"] = disagreement
    return metrics, detail, checker


def per_layer_metrics(workload, summaries, reports, traced, plain,
                      warmup_s, kernel_rates):
    metrics = {}
    for name, span_names in LAYER_TIMES.items():
        metrics[name] = statistics.median(
            sum(self_s[s] for s in span_names) for self_s, _, _ in summaries)

    sessions = [r for report in reports for r in report.sessions]
    records = sum(r.n_total for r in sessions)
    metrics["preprocess.records"] = records
    metrics["preprocess.accepted"] = sum(r.n_accepted for r in sessions)
    for flag in FLAGS:
        metrics[f"preprocess.rejected.{flag}"] = sum(
            n for r in sessions for f, n in r.flag_counts.items() if f.value == flag)
    for stage in ("load_session", "filter_tb"):
        # a stage the pipeline no longer calls by this name has no span
        busy_s = metrics[f"preprocess.{stage}.s"]
        metrics[f"preprocess.{stage}.records_per_s"] = records / busy_s if busy_s else 0.0
    metrics.update(kernel_rates)

    counts = retrieval_counts(reports, workload["presets"])
    per_preset = {}
    for preset in workload["presets"] + ("all",):
        durations = [d for _, _, by_tag in summaries
                     for (name, tag), values in by_tag.items()
                     if name == "retrieval.retrieve" and preset in (tag, "all")
                     for d in values]
        per_preset[preset] = {**counts[preset],
                              **timing_summary(durations, counts[preset]["n"])}
    overall = per_preset["all"]
    for key in ("ms_p50", "ms_tail", "evals_mean", "evals_max", "nonconverged",
                "boundary_hits", "evals_total"):
        metrics[f"retrieval.{key}"] = overall[key]
    metrics["retrieval.us_per_eval"] = 1e6 * metrics["retrieval.s"] / overall["evals_total"]

    metrics["validation.nearest_reference.calls"] = \
        summaries[-1][1]["validation.nearest_reference"]
    metrics["pipeline.write_artifacts.bytes"] = sum(
        artifact_bytes(report.output_dir) for report in reports)
    metrics["pipeline.warmup_s"] = warmup_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}

    detail = {"per_preset": per_preset,
              "traced_campaign_s": summary_of(traced),
              "untraced_campaign_s": summary_of(plain),
              # campaign span time outside every layer span: the glue
              # between load_campaign and run_pipeline in this script,
              # summed over the iteration's campaigns
              "unattributed_s_max": max(self_s["campaign"] for self_s, _, _ in summaries)}
    return metrics, detail


def summary_of(values):
    p25, p50, p75 = quartiles(values)
    return {"median": p50, "p25": p25, "p75": p75, "n": len(values), "values": values}


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    package = SRC / "lbandsm"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(program, args, workload, checkers):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lbandsm": program.lbandsm.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in workload.items()},
        "seed": args.seed,
        "campaign_seeds": campaign_seeds(args.seed, workload["n_campaigns"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "import_reps": IMPORT_REPS,
        "output_sha256": [checker.digests for checker in checkers],
    }


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        program = Program()
    except ImportError as exc:
        print(f"bench: cannot import lbandsm from {SRC}: {exc}", file=sys.stderr)
        return 1
    import_reps = [] if args.trace else import_times()

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        campaigns, setup_times = set_up(program, workload, args.seed, run_dir)
        cfg_paths = [cfg_path for cfg_path, _ in campaigns]
        checkers = [Checker(truth, workload["presets"]) for _, truth in campaigns]

        gc.collect()
        t0 = time.perf_counter()
        reports = [run_campaign(program, cfg_path) for cfg_path in cfg_paths]
        warmup_s = time.perf_counter() - t0
        check_all(checkers, reports)

        if args.trace:
            metrics, detail, checker = traced_run(program, workload, cfg_paths, checkers,
                                                  args, warmup_s)
            units = PER_LAYER_UNITS
        else:
            metrics, detail, checker = untraced_run(
                program, workload, cfg_paths, checkers, args, run_dir,
                statistics.median(import_reps) + statistics.median(setup_times))
            detail["setup_s"] = {"import_reps_s": import_reps, "campaign_reps_s": setup_times}
            detail["warmup_s"] = warmup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not checker.problems
    detail["problems"] = checker.problems
    detail["provenance"] = provenance(program, args, workload, checkers)
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (WORK_DIR / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1) + "\n", encoding="utf-8")

    for problem in checker.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print_metrics(metrics, units)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
