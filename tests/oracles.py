"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written on a different computational route
than the library code (mpmath complex arithmetic, impedance-form Fresnel,
polynomial root extraction, brute-force sorts) so fixture values and live
comparisons do not share code with the functions under test.

Run as a script to print the frozen fixture values:

    python tests/oracles.py
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50

EPS_VACUUM = mp.mpf("8.854e-12")
EPS_WATER_INF = mp.mpf("4.9")


# ----------------------------------------------------------------------
# Dielectric models
# ----------------------------------------------------------------------

def mironov_eps_complex(sm, clay_fraction, frequency_ghz):
    """Mineralogy-based spectroscopic soil permittivity, complex route.

    Debye spectra of bound and free soil water are kept as complex numbers
    throughout; refractive indices come from complex square roots.
    """
    c = mp.mpf(clay_fraction)
    f = mp.mpf(frequency_ghz) * mp.mpf("1e9")
    sm = mp.mpf(sm)

    n_dry = mp.mpf("1.634") - mp.mpf("0.539") * c + mp.mpf("0.2748") * c**2
    k_dry = mp.mpf("0.03952") - mp.mpf("0.04038") * c
    mvt = mp.mpf("0.02863") + mp.mpf("0.30673") * c

    def water_index(eps0, tau, sigma):
        om_tau = 2 * mp.pi * f * tau
        eps = EPS_WATER_INF + (eps0 - EPS_WATER_INF) / (1 - 1j * om_tau) \
            + 1j * sigma / (2 * mp.pi * EPS_VACUUM * f)
        return mp.sqrt(eps)

    n_bound = water_index(
        mp.mpf("79.8") - mp.mpf("85.4") * c + mp.mpf("32.7") * c**2,
        mp.mpf("1.062e-11") + mp.mpf("3.450e-12") * c,
        mp.mpf("0.3112") + mp.mpf("0.467") * c,
    )
    n_free = water_index(
        mp.mpf("100"),
        mp.mpf("8.5e-12"),
        mp.mpf("0.3631") + mp.mpf("1.217") * c,
    )

    m_b = min(sm, mvt)
    m_u = max(sm - mvt, mp.mpf(0))
    n_soil = (n_dry + 1j * k_dry) + (n_bound - 1) * m_b + (n_free - 1) * m_u
    eps = n_soil**2
    return eps


TOPP_COEFFS = ("-5.3e-2", "2.92e-2", "-5.5e-4", "4.3e-6")  # ascending powers


def topp_sm_of_eps(eps):
    c0, c1, c2, c3 = (mp.mpf(c) for c in TOPP_COEFFS)
    eps = mp.mpf(eps)
    return c0 + c1 * eps + c2 * eps**2 + c3 * eps**3


def topp_eps_of_sm(sm):
    """Invert the cubic by locating its roots numerically (polynomial root
    finding, not the library's closed-form root)."""
    c0, c1, c2, c3 = (mp.mpf(c) for c in TOPP_COEFFS)
    roots = mp.polyroots([c3, c2, c1, c0 - mp.mpf(sm)])
    real = [mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf("1e-30")]
    in_range = sorted(r for r in real if 1 <= r <= 80)
    if not in_range:
        raise ValueError(f"no real root in [1, 80] for sm={sm}")
    return in_range[0]


# ----------------------------------------------------------------------
# Fresnel via wave impedances (Snell refraction route)
# ----------------------------------------------------------------------

def fresnel_impedance(eps, theta_deg):
    """Power reflectivities from transverse wave impedances of both media."""
    eps = mp.mpc(eps)
    theta = mp.mpf(theta_deg) * mp.pi / 180
    sin_t = mp.sin(theta) / mp.sqrt(eps)        # Snell, complex angle
    cos_t = mp.sqrt(1 - sin_t**2)
    eta1, eta2 = mp.mpf(1), 1 / mp.sqrt(eps)    # relative intrinsic impedances

    z1_h, z2_h = eta1 / mp.cos(theta), eta2 / cos_t
    z1_v, z2_v = eta1 * mp.cos(theta), eta2 * cos_t
    r_h = abs((z2_h - z1_h) / (z2_h + z1_h)) ** 2
    r_v = abs((z2_v - z1_v) / (z2_v + z1_v)) ** 2
    return r_h, r_v


def forward_tb_chain(sm, clay, tau, omega, h, t_e, theta_deg,
                     frequency_ghz=1.41, dielectric="mironov"):
    """Full emission chain composed from the oracle submodels."""
    if dielectric == "mironov":
        eps = mironov_eps_complex(sm, clay, frequency_ghz)
    elif dielectric == "topp":
        eps = mp.mpc(topp_eps_of_sm(sm))
    else:
        raise ValueError(dielectric)
    r_h, r_v = fresnel_impedance(eps, theta_deg)
    theta = mp.mpf(theta_deg) * mp.pi / 180
    att = mp.e ** (-mp.mpf(h) * mp.cos(theta) ** 2)
    gamma = mp.e ** (-mp.mpf(tau) / mp.cos(theta))
    out = []
    for r in (r_h, r_v):
        e_p = 1 - r * att
        tb = (gamma * e_p * t_e
              + (1 - omega) * (1 - gamma) * t_e
              + gamma * (1 - e_p) * (1 - omega) * (1 - gamma) * t_e)
        out.append(tb)
    return tuple(out)


# ----------------------------------------------------------------------
# Brute-force statistics
# ----------------------------------------------------------------------

def sort_median(values):
    s = sorted(values)
    n = len(s)
    mid = n // 2
    if n % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2.0


def sort_percentile(values, q):
    """Linear interpolation between closest order statistics."""
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def direct_metrics(obs, ref):
    """Elementwise-loop evaluation of the four comparison statistics."""
    n = len(obs)
    mean_o = sum(obs) / n
    mean_r = sum(ref) / n
    bias = mean_o - mean_r
    mse = sum((o - r) ** 2 for o, r in zip(obs, ref)) / n
    rmse = math.sqrt(mse)
    ub = math.sqrt(max(mse - bias * bias, 0.0))
    var_o = sum((o - mean_o) ** 2 for o in obs) / n
    var_r = sum((r - mean_r) ** 2 for r in ref) / n
    cov = sum((o - mean_o) * (r - mean_r) for o, r in zip(obs, ref)) / n
    r = cov / math.sqrt(var_o * var_r) if var_o > 0 and var_r > 0 else float("nan")
    return bias, rmse, ub, r


# ----------------------------------------------------------------------
# Exhaustive grid minimization
# ----------------------------------------------------------------------

def grid_min_1d(cost, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    costs = np.array([cost(x) for x in xs])
    i = int(np.argmin(costs))
    return xs[i], costs[i]


def grid_min_2d(cost, lo1, hi1, lo2, hi2, n1, n2):
    xs = np.linspace(lo1, hi1, n1)
    ys = np.linspace(lo2, hi2, n2)
    best = (None, None, math.inf)
    for x in xs:
        for y in ys:
            c = cost(x, y)
            if c < best[2]:
                best = (x, y, c)
    return best


def footprint_trig(height_m, incidence_deg, beamwidth_deg):
    th = math.radians(incidence_deg)
    half = math.radians(beamwidth_deg) / 2.0
    major = height_m * (math.tan(th + half) - math.tan(th - half))
    minor = 2.0 * (height_m / math.cos(th)) * math.tan(half)
    center = height_m * (math.tan(th + half) + math.tan(th - half)) / 2.0
    return major, minor, center


def _fmt(x, digits=17):
    return mp.nstr(mp.mpf(x), digits)


if __name__ == "__main__":
    print("# Mironov permittivity (f=1.41 GHz)")
    for sm, clay in [(0.0, 0.20), (0.10, 0.20), (0.30, 0.20), (1.0, 0.20),
                     (0.10, 0.0), (0.10, 1.0), (0.30, 0.13)]:
        eps = mironov_eps_complex(sm, clay, 1.41)
        print(f"sm={sm} clay={clay}: eps' = {_fmt(mp.re(eps))}  eps'' = {_fmt(mp.im(eps))}")
    nd = mp.mpf("1.634") - mp.mpf("0.539") * mp.mpf("0.20") + mp.mpf("0.2748") * mp.mpf("0.04")
    print(f"dry refractive-index square at clay=0.20: {_fmt(nd ** 2)}")

    print("\n# Topp permittivity roots")
    for sm in (0.0, 0.30):
        print(f"sm={sm}: eps = {_fmt(topp_eps_of_sm(sm))}")
    print(f"sm(eps=1) raw = {_fmt(topp_sm_of_eps(1))}")
    print(f"sm(eps=80) = {_fmt(topp_sm_of_eps(80))}")

    print("\n# Roughness / transmissivity arithmetic")
    print("1 - 0.3*exp(-0.15*cos^2 40deg) =",
          _fmt(1 - mp.mpf("0.3") * mp.e ** (-mp.mpf("0.15") * mp.cos(mp.radians(40)) ** 2)))
    print("exp(-0.12/cos 40deg) =", _fmt(mp.e ** (-mp.mpf("0.12") / mp.cos(mp.radians(40)))))

    print("\n# Forward emission chain (Mironov)")
    tb = forward_tb_chain(0.30, 0.20, 0.0, 0.0, 0.15, mp.mpf("292.15"), 40)
    print(f"sm=0.30 clay=0.20 tau=0 omega=0 h=0.15 te=292.15 th=40:"
          f" tb_h = {_fmt(tb[0])}  tb_v = {_fmt(tb[1])}")
    tb = forward_tb_chain(1.0, 0.20, 0.0, 0.0, 0.0, mp.mpf("292.15"), 40)
    print(f"floor sm=1 bare smooth: tb_h = {_fmt(tb[0])}  tb_v = {_fmt(tb[1])}")
    tb = forward_tb_chain(0.25, 0.20, 0.10, 0.0, 0.0, mp.mpf("292.15"), 40, dielectric="topp")
    print(f"topp sm=0.25 tau=0.10 bare: tb_h = {_fmt(tb[0])}  tb_v = {_fmt(tb[1])}")

    print("\n# Fresnel spot checks")
    r_h, r_v = fresnel_impedance(mp.mpc(15, 3), 40)
    print(f"eps=15+3j th=40: r_h = {_fmt(r_h)}  r_v = {_fmt(r_v)}")

    print("\n# Opacity from vegetation index (grassland fixture coefficients)")
    vwc = mp.mpf("1.9134") * mp.mpf("0.25") - mp.mpf("0.3215") * mp.mpf("0.5")
    print(f"ndvi=0.5: vwc = {_fmt(vwc)}  tau = {_fmt(mp.mpf('0.13') * vwc)}")

    print("\n# Footprint trigonometry")
    print(footprint_trig(1.14, 40.0, 37.0))
