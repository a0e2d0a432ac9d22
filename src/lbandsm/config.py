"""Campaign configuration: sites, sessions, presets, calibration.

A campaign file is flat key-value text. Paths are resolved relative to
the file's own directory, and every referenced path is checked at load
time so batch runs fail fast. Each selected preset file is read once and
loaded per site for its land cover, so a preset that cannot serve a
site is a ConfigError here, not a fault in the middle of a run.

    output_dir = out
    presets = SCAV, SCAH, RDCA, DCA0, DCA1, DCA2
    frequency_ghz = 1.41
    statistic = median
    skip_leading = 0
    align_window_s = 1800
    # optional, packaged defaults otherwise
    tau_coefficients = tau_coeffs.cfg

    # needed by voltage sessions only; unset keys are 1 (gain) and 0 (offset)
    calibration.gain_h = 1.0
    calibration.offset_h = 0.0

    site.grass.land_cover = grassland
    site.grass.clay_fraction = 0.13
    site.grass.incidence_deg = 40.0
    site.grass.sessions = sessions/grass_*.csv
    # optional; SCAV's h for the land cover by default
    site.grass.h = 0.156
    site.grass.reference = ref_grass.csv
    # needed for ndvi-based opacity
    site.grass.reflectance = refl_grass.csv

A key that load_campaign does not read (a misspelled one, say) is a
ConfigError, as is a session file listed twice.
"""

from __future__ import annotations

import glob
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .ancillary import TauCoefficients, load_tau_coefficients
from .errors import ConfigError, DomainError
from .kvconfig import read_kv_file
from .preprocess import CalibrationParams, Statistic
from .retrieval import (SurfaceConfig, TAU_SCA_KINDS, make_surface, parse_preset,
                        read_preset)
from .radiative import L_BAND_GHZ, MIRONOV_FREQ_RANGE_GHZ
from .validation import ALIGN_WINDOW_S

CONFIG_ENV_VAR = "LBANDSM_CONFIG"


@dataclass(frozen=True)
class SiteConfig:
    name: str
    surface: SurfaceConfig
    presets: tuple            # AlgorithmConfig for the site's land cover, by name
    session_paths: tuple
    reference_path: Path = None
    reflectance_path: Path = None


@dataclass(frozen=True)
class CampaignConfig:
    output_dir: Path
    sites: tuple              # SiteConfig
    calibration: CalibrationParams   # None without a calibration.* key
    tau_table: TauCoefficients
    frequency_ghz: float = L_BAND_GHZ
    statistic: Statistic = Statistic.MEDIAN
    skip_leading: int = 0
    align_window_s: float = ALIGN_WINDOW_S
    warnings: tuple = field(default=())


def _resolve_path(base_dir: Path, raw: str, what: str) -> Path:
    if not raw:
        return None
    path = base_dir / raw    # an absolute raw path is kept as it is
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _expand_sessions(base_dir: Path, items):
    paths = {}   # normalized absolute path -> path as listed
    for item in items:
        if any(ch in item for ch in "*?["):
            matches = [Path(m) for m in sorted(glob.glob(str(base_dir / item)))]
            if not matches:
                raise ConfigError(f"session pattern matched nothing: {item}")
        else:
            matches = [_resolve_path(base_dir, item, "session file")]
        for path in matches:
            key = os.path.normpath(path)
            if key in paths:
                raise ConfigError(f"session file listed twice: {path}")
            paths[key] = path
    return tuple(paths.values())


def load_campaign(path) -> CampaignConfig:
    """Parse and validate a campaign file; all referenced inputs must be
    resolvable now."""
    path = Path(path)
    kv = read_kv_file(path)
    base_dir = path.parent.absolute()
    warnings = []

    preset_names = kv.get_list("presets")
    if not preset_names:
        raise ConfigError(f"{path}: no presets selected")
    preset_kvs = {}
    for name in preset_names:
        # user presets may be file paths relative to the campaign file
        candidate = base_dir / name
        preset_kv = read_preset(candidate if candidate.is_file() else name)
        stem = Path(preset_kv.source).stem     # the preset's name
        if stem in preset_kvs:
            raise ConfigError(f"{path}: preset {stem!r} selected twice")
        preset_kvs[stem] = preset_kv

    tau_table = load_tau_coefficients(
        _resolve_path(base_dir, kv.raw("tau_coefficients"), "tau coefficient file"))

    cal_kv = kv.section("calibration")
    try:
        calibration = CalibrationParams(
            gain_h=cal_kv.get_float("gain_h", 1.0),
            gain_v=cal_kv.get_float("gain_v", 1.0),
            offset_h=cal_kv.get_float("offset_h", 0.0),
            offset_v=cal_kv.get_float("offset_v", 0.0),
        ) if cal_kv.keys() else None
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    frequency_ghz = kv.get_float("frequency_ghz", L_BAND_GHZ)
    lo, hi = MIRONOV_FREQ_RANGE_GHZ   # the screening floor always uses Mironov
    if not lo <= frequency_ghz <= hi:
        raise ConfigError(f"{path}: frequency_ghz {frequency_ghz} outside {lo}-{hi} GHz")

    sites = []
    for name in kv.group_names("site"):
        # the site map's own errors name it: "<campaign>[site.<name>]: ..."
        sv = kv.section(f"site.{name}")
        land_cover = sv.require("land_cover")
        clay = sv.get_float("clay_fraction")
        incidence_deg = sv.get_float("incidence_deg", 40.0)
        h = sv.get_float("h")
        try:
            if clay is None:
                raise ConfigError("missing clay_fraction")
            surface = make_surface(clay, land_cover, incidence_deg, h=h)
            presets = [parse_preset(preset_kvs[stem], land_cover) for stem in sorted(preset_kvs)]
            session_paths = _expand_sessions(base_dir, sv.get_list("sessions"))
            reference_path = _resolve_path(base_dir, sv.raw("reference"), "reference file")
            reflectance_path = _resolve_path(base_dir, sv.raw("reflectance"), "reflectance file")
            # a reflectance file becomes opacity whatever the presets
            if reflectance_path or any(algo.kind in TAU_SCA_KINDS for algo in presets):
                entry = tau_table.for_cover(land_cover)  # raises when missing
                if entry.b > 0.0 and reflectance_path is None:
                    raise ConfigError(f"selected presets need ndvi-based opacity for "
                                      f"{land_cover!r}; set site.{name}.reflectance")
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"{path}: site {name}: {exc}") from None
        if not session_paths:
            warnings.append(f"site {name}: no session files configured")
        sites.append(SiteConfig(name=name, surface=surface, presets=tuple(presets),
                                session_paths=session_paths,
                                reference_path=reference_path,
                                reflectance_path=reflectance_path))
    if not sites:
        raise ConfigError(f"{path}: no sites configured")

    output_dir = base_dir / kv.raw("output_dir", "out")
    statistic = kv.get_enum("statistic", Statistic, Statistic.MEDIAN)
    skip_leading = kv.get_int("skip_leading", 0)
    if skip_leading < 0:
        raise ConfigError(f"{path}: skip_leading must be >= 0")

    align_window_s = kv.get_float("align_window_s", ALIGN_WINDOW_S)
    if not 0.0 <= align_window_s < math.inf:
        raise ConfigError(f"{path}: align_window_s must be finite and >= 0, "
                          f"got {align_window_s}")

    unknown = [key for key in kv.keys() if key not in kv.looked_up]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")

    return CampaignConfig(
        output_dir=output_dir,
        sites=tuple(sites),
        calibration=calibration,
        tau_table=tau_table,
        frequency_ghz=frequency_ghz,
        statistic=statistic,
        skip_leading=skip_leading,
        align_window_s=align_window_s,
        warnings=tuple(warnings),
    )
