"""Campaign configuration: sites, sessions, presets, calibration.

A campaign file is flat key-value text. Paths are resolved relative to
the file's own directory, and every referenced path is checked at load
time so batch runs fail fast.

    output_dir = out
    presets = SCAV, SCAH, RDCA, DCA0, DCA1, DCA2
    frequency_ghz = 1.41
    statistic = median
    skip_leading = 0
    align_window_s = 1800
    tau_coefficients = tau_coeffs.cfg        # optional, packaged defaults otherwise

    calibration.gain_h = 1.0                 # needed by voltage sessions only;
    calibration.offset_h = 0.0               # unset keys are 1 (gain) and 0 (offset)

    site.grass.land_cover = grassland
    site.grass.clay_fraction = 0.13
    site.grass.incidence_deg = 40.0
    site.grass.sessions = sessions/grass_*.csv
    site.grass.reference = ref_grass.csv     # optional
    site.grass.reflectance = refl_grass.csv  # needed for ndvi-based opacity
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from pathlib import Path

from .ancillary import TauCoefficients, load_tau_coefficients
from .errors import ConfigError
from .kvconfig import read_kv_file
from .preprocess import CalibrationParams, Statistic
from .retrieval import (PresetSpec, SurfaceConfig, TAU_SCA_KINDS, load_preset,
                        make_surface)
from .radiative import L_BAND_GHZ

CONFIG_ENV_VAR = "LBANDSM_CONFIG"
DEFAULT_ALIGN_WINDOW_S = 1800.0


@dataclass(frozen=True)
class SiteConfig:
    name: str
    surface: SurfaceConfig
    session_paths: tuple
    reference_path: Path = None
    reflectance_path: Path = None


@dataclass(frozen=True)
class CampaignConfig:
    base_dir: Path
    output_dir: Path
    presets: tuple            # PresetSpec, in selection order
    sites: tuple              # SiteConfig
    calibration: CalibrationParams   # None without a calibration.* key
    tau_table: TauCoefficients
    frequency_ghz: float = L_BAND_GHZ
    statistic: Statistic = Statistic.MEDIAN
    skip_leading: int = 0
    align_window_s: float = DEFAULT_ALIGN_WINDOW_S
    warnings: tuple = field(default=())


def _resolve_path(base_dir: Path, raw: str, *, must_exist: bool, what: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        path = base_dir / path
    if must_exist and not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _expand_sessions(base_dir: Path, items, site: str):
    paths = []
    for item in items:
        if any(ch in item for ch in "*?["):
            pattern = item if os.path.isabs(item) else str(base_dir / item)
            matches = sorted(glob.glob(pattern))
            if not matches:
                raise ConfigError(f"site {site}: session pattern matched nothing: {item}")
            paths.extend(Path(m) for m in matches)
        else:
            paths.append(_resolve_path(base_dir, item, must_exist=True,
                                       what=f"site {site} session file"))
    if not paths:
        return ()
    return tuple(paths)


def load_campaign(path) -> CampaignConfig:
    """Parse and validate a campaign file; all referenced inputs must be
    resolvable now."""
    path = Path(path)
    kv = read_kv_file(path)
    base_dir = path.parent.resolve()
    warnings = []

    preset_names = kv.get_list("presets")
    if not preset_names:
        raise ConfigError(f"{path}: no presets selected")
    presets = []
    for name in preset_names:
        # user presets may be file paths relative to the campaign file
        candidate = base_dir / name
        presets.append(load_preset(candidate if candidate.is_file() else name))

    tau_raw = kv.get_str("tau_coefficients")
    tau_table = load_tau_coefficients(
        _resolve_path(base_dir, tau_raw, must_exist=True, what="tau coefficient file")
        if tau_raw else None)

    cal_kv = kv.section("calibration")
    calibration = CalibrationParams(
        gain_h=cal_kv.get_float("gain_h", 1.0),
        gain_v=cal_kv.get_float("gain_v", 1.0),
        offset_h=cal_kv.get_float("offset_h", 0.0),
        offset_v=cal_kv.get_float("offset_v", 0.0),
    ) if cal_kv.keys() else None

    needs_tau = any(spec.kind in TAU_SCA_KINDS for spec in presets)
    sites = []
    for name in kv.group_names("site"):
        sv = kv.section(f"site.{name}")
        land_cover = sv.require("land_cover")
        clay = sv.get_float("clay_fraction")
        if clay is None:
            raise ConfigError(f"site {name}: missing clay_fraction")
        surface = make_surface(
            clay_fraction=clay,
            land_cover=land_cover,
            incidence_deg=sv.get_float("incidence_deg", 40.0),
            h=sv.get_float("h"),
            omega=sv.get_float("omega"),
        )
        session_paths = _expand_sessions(base_dir, sv.get_list("sessions"), name)
        if not session_paths:
            warnings.append(f"site {name}: no session files configured")

        ref_raw = sv.get_str("reference")
        reference_path = (_resolve_path(base_dir, ref_raw, must_exist=True,
                                        what=f"site {name} reference file")
                          if ref_raw else None)
        refl_raw = sv.get_str("reflectance")
        reflectance_path = (_resolve_path(base_dir, refl_raw, must_exist=True,
                                          what=f"site {name} reflectance file")
                            if refl_raw else None)

        if needs_tau:
            entry = tau_table.for_cover(land_cover)  # raises when missing
            if entry.b > 0.0 and reflectance_path is None:
                raise ConfigError(
                    f"site {name}: selected presets need ndvi-based opacity for "
                    f"{land_cover!r}; set site.{name}.reflectance")
        sites.append(SiteConfig(name=name, surface=surface,
                                session_paths=session_paths,
                                reference_path=reference_path,
                                reflectance_path=reflectance_path))
    if not sites:
        raise ConfigError(f"{path}: no sites configured")

    out_raw = kv.get_str("output_dir", "out")
    output_dir = Path(out_raw)
    if not output_dir.is_absolute():
        output_dir = base_dir / output_dir

    statistic_raw = kv.get_str("statistic", Statistic.MEDIAN.value)
    try:
        statistic = Statistic(statistic_raw.lower())
    except ValueError:
        raise ConfigError(f"{path}: unknown statistic {statistic_raw!r}") from None

    skip_leading = kv.get_int("skip_leading", 0)
    if skip_leading < 0:
        raise ConfigError(f"{path}: skip_leading must be >= 0")

    return CampaignConfig(
        base_dir=base_dir,
        output_dir=output_dir,
        presets=tuple(presets),
        sites=tuple(sites),
        calibration=calibration,
        tau_table=tau_table,
        frequency_ghz=kv.get_float("frequency_ghz", L_BAND_GHZ),
        statistic=statistic,
        skip_leading=skip_leading,
        align_window_s=kv.get_float("align_window_s", DEFAULT_ALIGN_WINDOW_S),
        warnings=tuple(warnings),
    )
