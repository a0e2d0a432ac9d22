"""L-band passive microwave soil-moisture retrieval toolkit.

Brightness-temperature calibration and screening, the tau-omega forward
emission model with its dielectric/roughness submodels, single- and
dual-channel inversion under six operational presets, optical-index
canopy opacity estimation, and validation statistics against point
reference probes. Import names from their modules; the package root
holds only `__version__`.
"""

__version__ = "0.1.0"
