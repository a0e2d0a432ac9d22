"""Forward simulation of L-band surface brightness temperatures.

The emission chain goes soil moisture -> complex permittivity (Mironov
spectroscopic model or Topp relation) -> smooth-surface Fresnel power
reflectivity -> exponential roughness correction -> zeroth-order
vegetation radiative transfer:

    tb_p = gamma * e_p * t_e
         + (1 - omega) * (1 - gamma) * t_e
         + gamma * (1 - e_p) * (1 - omega) * (1 - gamma) * t_e

with gamma = exp(-tau / cos(theta)) the canopy transmissivity, e_p the
rough-soil emissivity at polarization p, omega the effective scattering
albedo and t_e the effective soil temperature. Atmospheric, cosmic and
galactic terms are out of scope.

The soil part of the chain, sm -> (e_h, e_v), is written once and takes
its math functions as parameters: numpy's for arrays
(soil_emissivity_pair, which checks its inputs) and cmath/math/builtins
for scalar calls (emissivity_evaluator). For the optimizer the same
kernel also returns the analytic slope d(e_h, e_v)/dsm next to the value
(emissivity_slope_evaluator). The vegetation formula (tau_omega_tb) is
one expression for floats and arrays alike, so the seed grid and the
optimizer evaluate the same operations; its partials in e_p and gamma
(tau_omega_partials) sit beside it, and the optimizer's Jacobian chains
them with the emissivity slope and d gamma / d tau.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

VACUUM_PERMITTIVITY = 8.854e-12  # F/m
WATER_EPS_INF = 4.9              # high-frequency limit of the water Debye spectra
L_BAND_GHZ = 1.41

# Clay regressions of the mineralogy-based spectroscopic dielectric model
# (Mironov et al. 2009 style), rescaled so clay is a mass fraction in [0, 1]
# instead of a percentage. Valid for 1-2 GHz use here; the regression itself
# was fitted over a much wider microwave band.
MIRONOV_COEFFS = {
    "n_dry": (1.634, -0.539, 0.2748),    # dry soil refractive index, quadratic in clay
    "k_dry": (0.03952, -0.04038),        # dry soil normalized attenuation, linear in clay
    "mvt": (0.02863, 0.30673),           # bound-to-free water transition moisture
    "eps0_bound": (79.8, -85.4, 32.7),   # bound water static permittivity
    "tau_bound": (1.062e-11, 3.450e-12),  # bound water relaxation time, s
    "sigma_bound": (0.3112, 0.467),      # bound water conductivity, S/m
    "eps0_free": 100.0,                  # free water static permittivity
    "tau_free": 8.5e-12,                 # free water relaxation time, s
    "sigma_free": (0.3631, 1.217),       # free water conductivity, S/m
}
MIRONOV_FREQ_RANGE_GHZ = (0.3, 26.5)

# Volumetric moisture as a cubic in real permittivity (Topp et al. 1980),
# ascending powers.
TOPP_COEFFS = (-5.3e-2, 2.92e-2, -5.5e-4, 4.3e-6)
TOPP_EPS_RANGE = (1.0, 80.0)


def _topp_root_constants():
    """Constants of the closed-form Topp inversion.

    Dividing sm = c0 + c1 eps + c2 eps^2 + c3 eps^3 by c3 and shifting
    eps = t - a/3 (a = c2/c3, b = c1/c3) gives the depressed cubic
    t^3 + p t + q = 0 with p = b - a^2/3 and q = q0 - sm/c3. The cubic's
    derivative has a negative discriminant, so p > 0 and the one real root
    is t = -2 sqrt(p/3) sinh(asinh(3q/(2p) sqrt(3/p)) / 3), a form free of
    the cancellation in Cardano's sum of cube roots.
    Returns (q0, 1/c3, 3/(2p) sqrt(3/p), 2 sqrt(p/3), a/3).
    """
    c0, c1, c2, c3 = TOPP_COEFFS
    a, b = c2 / c3, c1 / c3
    p = b - a * a / 3.0
    q0 = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c0 / c3
    return (q0, 1.0 / c3, 1.5 / p * math.sqrt(3.0 / p), 2.0 * math.sqrt(p / 3.0),
            a / 3.0)


_TOPP_Q0, _TOPP_INV_C3, _TOPP_ASINH_SCALE, _TOPP_SINH_SCALE, _TOPP_SHIFT = \
    _topp_root_constants()


def _topp_root(sm, sinh, asinh):
    """Topp permittivity at moisture sm; sinh/asinh come from numpy for
    arrays and from math for the scalar optimizer path."""
    q = _TOPP_Q0 - sm * _TOPP_INV_C3
    return -_TOPP_SINH_SCALE * sinh(asinh(_TOPP_ASINH_SCALE * q) / 3.0) - _TOPP_SHIFT


class DielectricModel(str, Enum):
    MIRONOV = "mironov"
    TOPP = "topp"


@dataclass(frozen=True)
class TbPair:
    """Dual-polarization brightness temperatures in kelvin."""

    tb_h: float
    tb_v: float

    def is_finite(self):
        return math.isfinite(self.tb_h) and math.isfinite(self.tb_v)


# ----------------------------------------------------------------------
# Dielectric kernels
# ----------------------------------------------------------------------

def _debye_refraction(eps0, tau_s, sigma, freq_hz):
    """Refractive index n and normalized attenuation k of a Debye liquid
    with an added conductivity loss term."""
    om_tau = 2.0 * math.pi * freq_hz * tau_s
    eps_r = WATER_EPS_INF + (eps0 - WATER_EPS_INF) / (1.0 + om_tau**2)
    eps_i = (eps0 - WATER_EPS_INF) * om_tau / (1.0 + om_tau**2) \
        + sigma / (2.0 * math.pi * VACUUM_PERMITTIVITY * freq_hz)
    mag = np.hypot(eps_r, eps_i)
    return np.sqrt((mag + eps_r) / 2.0), np.sqrt((mag - eps_r) / 2.0)


def _mironov_mixing_params(clay_fraction, frequency_ghz):
    """Clay/frequency-dependent constants of the spectroscopic model as
    plain floats: (n_dry, k_dry, mvt, n_bound, k_bound, n_free, k_free)."""
    if not 0.0 <= clay_fraction <= 1.0:
        raise DomainError("clay_fraction must be in [0, 1]")
    lo, hi = MIRONOV_FREQ_RANGE_GHZ
    if not lo <= frequency_ghz <= hi:
        raise DomainError(f"frequency_ghz {frequency_ghz} outside supported range {lo}-{hi}")
    clay = np.float64(clay_fraction)
    co = MIRONOV_COEFFS
    n_dry = co["n_dry"][0] + co["n_dry"][1] * clay + co["n_dry"][2] * clay**2
    k_dry = co["k_dry"][0] + co["k_dry"][1] * clay
    mvt = co["mvt"][0] + co["mvt"][1] * clay
    freq_hz = frequency_ghz * 1e9
    n_b, k_b = _debye_refraction(
        co["eps0_bound"][0] + co["eps0_bound"][1] * clay + co["eps0_bound"][2] * clay**2,
        co["tau_bound"][0] + co["tau_bound"][1] * clay,
        co["sigma_bound"][0] + co["sigma_bound"][1] * clay,
        freq_hz,
    )
    n_u, k_u = _debye_refraction(
        co["eps0_free"], co["tau_free"],
        co["sigma_free"][0] + co["sigma_free"][1] * clay,
        freq_hz,
    )
    return (float(n_dry), float(k_dry), float(mvt),
            float(n_b), float(k_b), float(n_u), float(k_u))


def _mironov_mixer(params, minimum, maximum):
    """Function sm -> (eps_real, eps_imag): refractive mixing of dry soil,
    bound water and free water with the constants `params`."""
    n_dry, k_dry, mvt, n_b, k_b, n_u, k_u = params
    n_b1, n_u1 = n_b - 1.0, n_u - 1.0

    def eps_of_sm(sm):
        m_bound = minimum(sm, mvt)
        m_free = maximum(sm - mvt, 0.0)
        n = n_dry + n_b1 * m_bound + n_u1 * m_free
        k = k_dry + k_b * m_bound + k_u * m_free
        return n * n - k * k, 2.0 * n * k

    return eps_of_sm


def topp_sm_of_eps(eps_real):
    """Raw (unclamped) Topp cubic evaluated at a real permittivity."""
    c0, c1, c2, c3 = TOPP_COEFFS
    eps = np.asarray(eps_real, dtype=float)
    return c0 + eps * (c1 + eps * (c2 + eps * c3))


# moisture at the top of the Topp cubic's invertible branch
TOPP_SM_MAX = float(topp_sm_of_eps(TOPP_EPS_RANGE[1]))


def _checked_sm(sm, dielectric):
    """sm as a float array after the range checks of a dielectric model."""
    sm = np.asarray(sm, dtype=float)
    # fmin/fmax skip NaN, as elementwise comparisons do
    lo = np.fmin.reduce(sm, axis=None, initial=np.inf)
    hi = np.fmax.reduce(sm, axis=None, initial=-np.inf)
    if lo < 0.0 or hi > 1.0:
        raise DomainError("sm must be in [0, 1]")
    if dielectric == DielectricModel.TOPP and hi > TOPP_SM_MAX:
        raise DomainError(
            f"sm above {TOPP_SM_MAX:.4f} is outside the invertible branch of the Topp cubic")
    return sm


def mironov_eps(sm, clay_fraction, frequency_ghz=L_BAND_GHZ):
    """Moist-soil permittivity from the clay-parameterized spectroscopic
    model. Returns (eps_real, eps_imag) elementwise in sm."""
    sm = _checked_sm(sm, DielectricModel.MIRONOV)
    return _mironov_mixer(_mironov_mixing_params(clay_fraction, frequency_ghz),
                          np.minimum, np.maximum)(sm)


def topp_eps(sm):
    """Real permittivity for a given moisture: the single real root of the
    Topp cubic, which is strictly increasing on eps in [1, 80]."""
    return _topp_root(_checked_sm(sm, DielectricModel.TOPP), np.sinh, np.arcsinh)


# ----------------------------------------------------------------------
# Surface and canopy kernels
# ----------------------------------------------------------------------

def _fresnel(eps, cos_t, sin2, sqrt):
    """Amplitude reflection coefficients (rho_h, rho_v) of a smooth half
    space and the root sqrt(eps - sin^2 th) that both share."""
    root = sqrt(eps - sin2)
    eps_cos = eps * cos_t
    return (cos_t - root) / (cos_t + root), (eps_cos - root) / (eps_cos + root), root


def fresnel_power(eps_real, eps_imag, incidence_deg):
    """Smooth half-space power reflectivities.

        r_h = |(cos th - sqrt(eps - sin^2 th)) / (cos th + sqrt(eps - sin^2 th))|^2
        r_v = |(eps cos th - sqrt(eps - sin^2 th)) / (eps cos th + sqrt(eps - sin^2 th))|^2

    The principal complex square root keeps Im(sqrt) >= 0 for lossy media,
    i.e. the transmitted wave decays into the soil.
    """
    eps = np.asarray(eps_real, dtype=float) + 1j * np.asarray(eps_imag, dtype=float)
    theta = math.radians(incidence_deg)
    rho_h, rho_v, _ = _fresnel(eps, math.cos(theta), math.sin(theta) ** 2, np.sqrt)
    return abs(rho_h) ** 2, abs(rho_v) ** 2


def canopy_transmissivity(tau_nadir, incidence_deg):
    """Slant-path canopy transmissivity gamma = exp(-tau / cos th)."""
    theta = math.radians(incidence_deg)
    return np.exp(-np.asarray(tau_nadir, dtype=float) / math.cos(theta))


def tau_omega_tb(e_p, gamma, omega, t_e):
    """Zeroth-order vegetation-over-soil emission for one polarization.

    Pure arithmetic; works unchanged for floats and broadcastable arrays.
    """
    veg = (1.0 - omega) * (1.0 - gamma) * t_e
    return gamma * e_p * t_e + veg + gamma * (1.0 - e_p) * veg


def tau_omega_partials(e_p, gamma, omega, t_e):
    """(d tb_p / d e_p, d tb_p / d gamma) of tau_omega_tb, for floats and
    broadcastable arrays alike."""
    w = 1.0 - omega
    return (gamma * t_e * (1.0 - w * (1.0 - gamma)),
            t_e * (e_p - w + (1.0 - e_p) * w * (1.0 - 2.0 * gamma)))


# (sqrt, minimum, maximum, sinh, asinh, complex) of the emission kernel;
# complex() keeps a numpy-scalar sm in Python complex arithmetic, whose
# division rounds differently from numpy's
_ARRAY_MATH = (np.sqrt, np.minimum, np.maximum, np.sinh, np.arcsinh,
               lambda real, imag: real + 1j * imag)
_SCALAR_MATH = (cmath.sqrt, min, max, math.sinh, math.asinh, complex)


@functools.lru_cache(maxsize=64)
def _emissivity_kernel(clay_fraction, incidence_deg, h, dielectric, frequency_ghz,
                       math_fns, slope=False):
    """The chain sm -> eps -> smooth (r_h, r_v) -> rough (e_h, e_v) as one
    function of sm, with the exponential roughness damping
    r_rough = r_smooth exp(-h cos^2 th) and no cross-polarization mixing.

    With slope=True (scalar math only) the function returns
    ((e_h, e_v), (de_h/dsm, de_v/dsm)): the chain rule through the same
    steps, de_p/dsm = -2 exp(-h cos^2 th) Re(conj(rho_p) drho_p/deps
    deps/dsm)."""
    sqrt, minimum, maximum, sinh, asinh, to_complex = math_fns
    if dielectric == DielectricModel.MIRONOV:
        params = _mironov_mixing_params(clay_fraction, frequency_ghz)
        eps_of_sm = _mironov_mixer(params, minimum, maximum)
        _, _, mvt, n_b, k_b, n_u, k_u = params
        # d(n + ik)/dsm of bound water below mvt and of free water above
        slope_bound, slope_free = complex(n_b - 1.0, k_b), complex(n_u - 1.0, k_u)

        def eps_slope(sm, eps):
            # eps = (n + ik)^2, and n + ik is its principal root (n > 0)
            return 2.0 * sqrt(eps) * (slope_bound if sm < mvt else slope_free)
    elif dielectric == DielectricModel.TOPP:
        _, c1, c2, c3 = TOPP_COEFFS

        def eps_of_sm(sm):
            return _topp_root(sm, sinh, asinh), 0.0

        def eps_slope(sm, eps):
            # implicit derivative of sm = c0 + c1 eps + c2 eps^2 + c3 eps^3
            return 1.0 / (c1 + eps.real * (2.0 * c2 + 3.0 * c3 * eps.real))
    else:
        raise DomainError(f"unknown dielectric model {dielectric!r}")
    theta = math.radians(incidence_deg)
    cos_t = math.cos(theta)
    sin2 = math.sin(theta) ** 2
    att = math.exp(-h * cos_t ** 2)

    def e_pair(sm):
        eps_r, eps_i = eps_of_sm(sm)
        eps = to_complex(eps_r, eps_i)
        rho_h, rho_v, root = _fresnel(eps, cos_t, sin2, sqrt)
        e_hv = 1.0 - abs(rho_h) ** 2 * att, 1.0 - abs(rho_v) ** 2 * att
        if not slope:
            return e_hv
        # d|rho|^2 = 2 Re(conj(rho) drho/deps deps/dsm)
        d_eps = eps_slope(sm, eps) / root
        den_h, den_v = cos_t + root, eps * cos_t + root
        d_rho_h = -cos_t * d_eps / (den_h * den_h)
        d_rho_v = cos_t * (eps - 2.0 * sin2) * d_eps / (den_v * den_v)
        return e_hv, (-2.0 * att * (rho_h.conjugate() * d_rho_h).real,
                      -2.0 * att * (rho_v.conjugate() * d_rho_v).real)

    return e_pair


def soil_emissivity_pair(sm, clay_fraction, incidence_deg, h,
                         dielectric=DielectricModel.MIRONOV,
                         frequency_ghz=L_BAND_GHZ):
    """Rough-soil emissivities (e_h, e_v), elementwise in sm."""
    e_pair = _emissivity_kernel(clay_fraction, incidence_deg, h, dielectric,
                                frequency_ghz, _ARRAY_MATH)
    return e_pair(_checked_sm(sm, dielectric))


def emissivity_evaluator(clay_fraction, incidence_deg, h,
                         dielectric=DielectricModel.MIRONOV,
                         frequency_ghz=L_BAND_GHZ):
    """Closure sm -> (e_h, e_v) on Python floats for scalar inner loops:
    the kernel of soil_emissivity_pair without array dispatch or the sm
    range checks."""
    return _emissivity_kernel(clay_fraction, incidence_deg, h, dielectric,
                              frequency_ghz, _SCALAR_MATH)


def emissivity_slope_evaluator(clay_fraction, incidence_deg, h,
                               dielectric=DielectricModel.MIRONOV,
                               frequency_ghz=L_BAND_GHZ):
    """Closure sm -> ((e_h, e_v), (de_h/dsm, de_v/dsm)) on Python floats:
    emissivity_evaluator with the analytic slope in sm. Mironov's slope is
    one-sided at the bound/free water transition mvt, where it takes the
    free-water side."""
    return _emissivity_kernel(clay_fraction, incidence_deg, h, dielectric,
                              frequency_ghz, _SCALAR_MATH, slope=True)


def simulate_tb(sm, tau_nadir, omega, h, clay_fraction, incidence_deg, t_e,
                dielectric=DielectricModel.MIRONOV, frequency_ghz=L_BAND_GHZ):
    """Vectorized emission chain; returns (tb_h, tb_v) elementwise in sm
    and tau_nadir (mutually broadcastable)."""
    e_h, e_v = soil_emissivity_pair(sm, clay_fraction, incidence_deg, h,
                                    dielectric, frequency_ghz)
    gamma = canopy_transmissivity(tau_nadir, incidence_deg)
    return tau_omega_tb(e_h, gamma, omega, t_e), tau_omega_tb(e_v, gamma, omega, t_e)
