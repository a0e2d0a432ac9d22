"""Synthetic campaign generation for end-to-end testing and demos.

Sessions are produced by running the forward emission model at known
moisture/opacity/temperature states, so inversion accuracy can be
checked against the written truth table. Each session also carries
injected bad records (above the 320 K ceiling, inverted polarization
order, below the physical floor) that the screening stage must drop.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ancillary import daily_ndvi_series, load_reflectance_csv, ndvi_to_tau
from .preprocess import TB_HEADER, VOLTAGE_HEADER, format_utc_timestamps, session_text
from .radiative import simulate_tb
from .retrieval import DEFAULT_INCIDENCE_DEG, load_preset, make_surface

SAMPLE_PERIOD_S = 0.069      # detector switch cadence
VOLTAGE_GAIN = 100.0         # K per volt for voltage-mode site files

# injected outlier patterns: (tb_h, tb_v) exercising each rejection flag
OUTLIER_MAX = (330.0, 340.0)
OUTLIER_POL = (250.0, 240.0)
OUTLIER_MIN = (40.0, 60.0)


@dataclass(frozen=True)
class TruthRow:
    site: str
    session_id: str
    t_mid: float
    sm_true: float
    tau_true: float
    t_e: float
    tb_h: float
    tb_v: float


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _session_text(t0, tb_h, tb_v, n_samples, as_voltage):
    """The session file: n_samples records from t0 at the sample period,
    each distinct value pair formatted once."""
    scale = 1.0 / VOLTAGE_GAIN if as_voltage else 1.0
    fmt = "{:.8f},{:.8f}" if as_voltage else "{:.4f},{:.4f}"
    values = [fmt.format(tb_h * scale, tb_v * scale)] * n_samples
    if n_samples >= 20:
        # spread the three bad patterns through the stream
        for k, (h, v) in ((5, OUTLIER_MAX), (n_samples // 2, OUTLIER_POL),
                          (n_samples - 7, OUTLIER_MIN)):
            values[k] = fmt.format(h * scale, v * scale)
    return session_text(VOLTAGE_HEADER if as_voltage else TB_HEADER, t0 + np.arange(n_samples) * SAMPLE_PERIOD_S, values)


def generate_campaign(root, seed=20231111, n_days=8, n_samples=120, voltage_site="bare"):
    """Write a ready-to-run synthetic campaign under `root`.

    Creates campaign.cfg, per-site session files (one per day at 14:00
    UTC), reference probe files, a reflectance file for the vegetated
    site, and truth.csv recording the generating states. Returns the
    truth rows. Fully deterministic for a given seed.
    """
    root = Path(root)
    (root / "sessions").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    day0 = dt.date(2023, 11, 11)

    sites = {
        "bare": make_surface(0.20, "bare_soil", DEFAULT_INCIDENCE_DEG),
        "grass": make_surface(0.13, "grassland", DEFAULT_INCIDENCE_DEG),
    }

    # reflectance knots spanning the campaign for the vegetated site
    knot_days = [day0 - dt.timedelta(days=3), day0 + dt.timedelta(days=4),
                 day0 + dt.timedelta(days=max(n_days, 9)),
                 day0 + dt.timedelta(days=max(n_days, 9) + 7)]
    red = [0.08, 0.075, 0.07, 0.072]
    nir = [0.22, 0.24, 0.27, 0.26]
    refl_path = root / "reflectance_grass.csv"
    _write_csv(refl_path, ("date", "red", "nir"),
               [[d.isoformat(), f"{r:.4f}", f"{n:.4f}"] for d, r, n in zip(knot_days, red, nir)])
    ndvi_series = daily_ndvi_series(load_reflectance_csv(refl_path))

    from .ancillary import load_tau_coefficients
    tau_table = load_tau_coefficients()

    truth = []
    for site_name, surface in sorted(sites.items()):
        scav = load_preset("SCAV", surface.land_cover)   # so SCAV/SCAH recover truth
        sm = 0.27
        ref_times, ref_rows = [], []
        for day_idx in range(n_days):
            day = day0 + dt.timedelta(days=day_idx)
            sm = float(np.clip(sm + rng.normal(0.0, 0.03), 0.15, 0.42))
            t_e = float(288.0 + rng.uniform(0.0, 6.0))
            if surface.land_cover == "bare_soil":
                tau = 0.0
            else:
                tau, _ = ndvi_to_tau(ndvi_series.value_on(day), tau_table,
                                     surface.land_cover)

            t0 = dt.datetime(day.year, day.month, day.day, 14, 0,
                             tzinfo=dt.timezone.utc).timestamp()
            tb_h, tb_v = simulate_tb(sm, tau, scav.omega, scav.h, surface.clay_fraction,
                                     surface.incidence_deg, t_e)
            tb_h, tb_v = float(tb_h), float(tb_v)

            session_id = f"{site_name}_{day.isoformat()}"
            (root / "sessions" / f"{session_id}.csv").write_text(
                _session_text(t0, tb_h, tb_v, n_samples, site_name == voltage_site),
                encoding="utf-8", newline="")

            points = np.clip(sm + rng.normal(0.0, 0.012, size=5), 0.0, 1.0)
            ref_times.append(t0 + 300.0)
            ref_rows.append([*(f"{p:.6f}" for p in points), f"{t_e:.6f}"])
            t_mid = t0 + (n_samples - 1) / 2.0 * SAMPLE_PERIOD_S
            truth.append(TruthRow(site_name, session_id, t_mid, sm, tau,
                                  t_e, tb_h, tb_v))

        _write_csv(root / f"ref_{site_name}.csv",
                   ("timestamp", "sm_1", "sm_2", "sm_3", "sm_4", "sm_5", "soil_temp_k"),
                   [[stamp, *row] for stamp, row in zip(format_utc_timestamps(ref_times),
                                                         ref_rows)])

    _write_csv(root / "truth.csv",
               ("site", "session", "t_mid", "sm_true", "tau_true", "t_e", "tb_h", "tb_v"),
               [[t.site, t.session_id, stamp,
                 f"{t.sm_true:.8f}", f"{t.tau_true:.8f}", f"{t.t_e:.6f}",
                 f"{t.tb_h:.6f}", f"{t.tb_v:.6f}"]
                for t, stamp in zip(truth, format_utc_timestamps([t.t_mid for t in truth]))])

    gain = VOLTAGE_GAIN
    config_text = [
        "# synthetic campaign (forward-generated sessions with injected outliers)",
        "output_dir = out",
        "presets = SCAV, SCAH, RDCA, DCA0, DCA1, DCA2",
        "frequency_ghz = 1.41",
        "statistic = median",
        f"calibration.gain_h = {gain}",
        f"calibration.gain_v = {gain}",
        "calibration.offset_h = 0.0",
        "calibration.offset_v = 0.0",
        "",
    ]
    for site_name, surface in sorted(sites.items()):
        prefix = f"site.{site_name}"
        config_text += [
            f"{prefix}.land_cover = {surface.land_cover}",
            f"{prefix}.clay_fraction = {surface.clay_fraction}",
            f"{prefix}.incidence_deg = {surface.incidence_deg}",
            f"{prefix}.sessions = sessions/{site_name}_*.csv",
            f"{prefix}.reference = ref_{site_name}.csv",
        ]
        if surface.land_cover != "bare_soil":
            config_text.append(f"{prefix}.reflectance = reflectance_grass.csv")
        config_text.append("")
    (root / "campaign.cfg").write_text("\n".join(config_text), encoding="utf-8")
    return truth

