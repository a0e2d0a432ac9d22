"""L-band passive microwave soil-moisture retrieval toolkit.

Brightness-temperature calibration and screening, the tau-omega forward
emission model with its dielectric/roughness submodels, single- and
dual-channel inversion under six operational presets, optical-index
canopy opacity estimation, and validation statistics against point
reference probes.
"""

from .errors import ConfigError, DataError, DomainError
from .geometry import FootprintEllipse, footprint
from .radiative import DielectricModel, TbPair, simulate_tb
from .preprocess import (CalibrationParams, FilterThresholds, QualityFlag,
                         Session, SessionSummary, Statistic, filter_tb,
                         load_session, min_threshold, representative,
                         session_stats)
from .ancillary import (LandCoverTau, NdviSeries, ReflectanceSample,
                        TauCoefficients, daily_ndvi_series,
                        interpolate_daily, load_tau_coefficients, ndvi,
                        ndvi_to_tau)
from .retrieval import (AlgorithmConfig, AlgorithmKind, RetrievalResult,
                        SurfaceConfig, TempSource, load_preset, make_surface,
                        retrieve)
from .validation import MetricsReport, ReferenceRecord, metrics

__version__ = "0.1.0"
