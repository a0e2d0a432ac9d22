"""Forward-model chain against independently derived values.

Frozen numbers were computed ahead of the implementation with
tests/oracles.py (mpmath complex arithmetic, impedance-form Fresnel,
polynomial root extraction) and are asserted here as literals.
"""

import math

import numpy as np
import pytest

from lbandsm import radiative as ra
from lbandsm.errors import DomainError
from lbandsm.retrieval import SM_BOUNDS, make_surface

import oracles

F = ra.L_BAND_GHZ


# ----------------------------------------------------------------------
# Dielectric models
# ----------------------------------------------------------------------

def test_mironov_dry_soil_matches_refractive_polynomial():
    eps_r, eps_i = ra.mironov_eps(0.0, 0.20, F)
    # frozen oracle values, complex-arithmetic route
    assert eps_r == pytest.approx(2.361970519728, rel=1e-12)
    assert eps_i == pytest.approx(0.096670930496, rel=1e-12)
    # the real part is the dry refractive-index square minus the small
    # attenuation-square term
    n_dry = 1.634 - 0.539 * 0.20 + 0.2748 * 0.20**2
    assert eps_r == pytest.approx(n_dry**2, abs=1.5e-3)
    assert eps_i == pytest.approx(0.0, abs=0.1)


@pytest.mark.parametrize("sm,clay,want_re,want_im", [
    (0.10, 0.20, 5.0828385363987469, 0.45550975939436355),
    (0.30, 0.20, 16.396419198460813, 2.0239159697410049),
    (1.00, 0.20, 106.68516132956155, 15.935079796582309),
    (0.10, 0.00, 6.251815913254017, 0.49582055405968689),
    (0.10, 1.00, 3.2283205378328337, 0.42585698717838092),
])
def test_mironov_frozen_fixtures(sm, clay, want_re, want_im):
    eps_r, eps_i = ra.mironov_eps(sm, clay, F)
    assert eps_r == pytest.approx(want_re, rel=1e-12)
    assert eps_i == pytest.approx(want_im, rel=1e-12)


def test_mironov_moisture_ordering():
    wet, _ = ra.mironov_eps(0.30, 0.20, F)
    dry, _ = ra.mironov_eps(0.10, 0.20, F)
    assert wet > dry


def test_mironov_clay_extremes_stay_physical():
    for clay in (0.0, 1.0):
        eps_r, eps_i = ra.mironov_eps(0.10, clay, F)
        assert eps_r >= 1.0
        assert eps_i >= 0.0


@pytest.mark.parametrize("clay", [0.0, 0.2, 0.5])
def test_mironov_real_part_strictly_increasing_in_moisture(clay):
    sms = np.linspace(0.0, 0.6, 61)
    eps_r, _ = ra.mironov_eps(sms, clay, F)
    assert np.all(np.diff(eps_r) > 0.0)


def test_mironov_matches_complex_route_oracle():
    for sm in (0.0, 0.05, 0.17, 0.33, 0.52):
        for clay in (0.05, 0.28, 0.60):
            want = oracles.mironov_eps_complex(sm, clay, F)
            got_r, got_i = ra.mironov_eps(sm, clay, F)
            assert got_r == pytest.approx(float(want.real), rel=1e-12)
            assert got_i == pytest.approx(float(want.imag), rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(sm=-0.1, clay_fraction=0.2),
    dict(sm=1.1, clay_fraction=0.2),
    dict(sm=0.2, clay_fraction=-0.01),
    dict(sm=0.2, clay_fraction=1.01),
    dict(sm=0.2, clay_fraction=0.2, frequency_ghz=0.1),
])
def test_mironov_domain_errors(kwargs):
    with pytest.raises(DomainError):
        ra.mironov_eps(**kwargs)


def test_topp_round_trip_recovers_permittivity():
    for eps in (5.0, 15.0, 25.0):
        sm = float(ra.topp_sm_of_eps(eps))
        assert 0.0 <= sm <= 1.0
        assert float(ra.topp_eps(sm)) == pytest.approx(eps, abs=1e-9)


@pytest.mark.parametrize("sm,want_eps", [
    (0.30, 16.611629929626029),   # frozen root-extraction oracle
    (0.00, 1.8807119164791253),
])
def test_topp_permittivity_frozen_roots(sm, want_eps):
    assert float(ra.topp_eps(sm)) == pytest.approx(want_eps, abs=1e-9)


def test_topp_permittivity_matches_root_oracle():
    for sm in (0.02, 0.11, 0.26, 0.44, 0.61):
        want = float(oracles.topp_eps_of_sm(sm))
        assert float(ra.topp_eps(sm)) == pytest.approx(want, abs=1e-9)


def test_topp_outside_invertible_branch():
    with pytest.raises(DomainError):
        ra.topp_eps(0.99)


def test_topp_eps_domain_checks():
    with pytest.raises(DomainError, match=r"^sm must be in \[0, 1\]$"):
        ra.topp_eps(np.array([0.2, -0.1]))
    with pytest.raises(DomainError, match=r"^sm must be in \[0, 1\]$"):
        ra.topp_eps(np.array([np.nan, 1.5]))   # NaN does not hide the bad value
    with pytest.raises(DomainError, match="sm above 0.9646 is outside the invertible branch"):
        ra.topp_eps(np.array([0.2, 0.99]))
    assert ra.topp_eps(np.array([])).shape == (0,)
    assert np.isnan(ra.topp_eps(np.array([np.nan, 0.3]))[0])
    assert float(ra.topp_eps(ra.TOPP_SM_MAX)) == pytest.approx(80.0, abs=1e-9)


# ----------------------------------------------------------------------
# Fresnel, roughness, canopy
# ----------------------------------------------------------------------

def test_fresnel_vacuum_interface_reflects_nothing():
    r_h, r_v = ra.fresnel_power(1.0, 0.0, 37.0)
    assert r_h == pytest.approx(0.0, abs=1e-15)
    assert r_v == pytest.approx(0.0, abs=1e-15)


def test_fresnel_normal_incidence_symmetry():
    for eps_r, eps_i in ((4.0, 0.0), (20.0, 3.0)):
        r_h, r_v = ra.fresnel_power(eps_r, eps_i, 0.0)
        assert abs(r_h - r_v) < 1e-12


def test_fresnel_brewster_null():
    for eps_r in (2.0, 4.0, 9.0, 25.0):
        theta_b = math.degrees(math.atan(math.sqrt(eps_r)))
        _, r_v = ra.fresnel_power(eps_r, 0.0, theta_b)
        assert r_v < 1e-12


def test_fresnel_frozen_lossy_fixture():
    r_h, r_v = ra.fresnel_power(15.0, 3.0, 40.0)
    assert r_h == pytest.approx(0.44927549119295256, rel=1e-12)
    assert r_v == pytest.approx(0.2567062920724293, rel=1e-12)


def test_fresnel_matches_impedance_oracle():
    for eps in (complex(3.2, 0.1), complex(12.0, 2.4), complex(35.0, 8.0)):
        for theta in (10.0, 40.0, 70.0):
            want_h, want_v = oracles.fresnel_impedance(eps, theta)
            got_h, got_v = ra.fresnel_power(eps.real, eps.imag, theta)
            assert float(got_h) == pytest.approx(float(want_h), rel=1e-12)
            assert float(got_v) == pytest.approx(float(want_v), rel=1e-12)


def test_fresnel_reflectivities_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        eps_r = rng.uniform(1.0, 60.0)
        eps_i = rng.uniform(0.0, 15.0)
        theta = rng.uniform(0.0, 89.0)
        r_h, r_v = ra.fresnel_power(eps_r, eps_i, theta)
        assert 0.0 <= r_h <= 1.0
        assert 0.0 <= r_v <= 1.0
        assert r_v <= r_h + 1e-15


def _rough_emissivity(r_smooth, h):
    """Emissivity 1 - r exp(-h cos^2 th) of a smooth reflectivity r at
    40 deg, from the damping soil_emissivity_pair applies."""
    smooth = np.array(ra.soil_emissivity_pair(0.2, 0.2, 40.0, 0.0))
    rough = np.array(ra.soil_emissivity_pair(0.2, 0.2, 40.0, h))
    return 1.0 - r_smooth * (1.0 - rough) / (1.0 - smooth)


def test_rough_emissivity_no_roughness_identity():
    assert _rough_emissivity(0.3, 0.0) == pytest.approx(0.7)


def test_rough_emissivity_frozen_value():
    got = _rough_emissivity(0.3, 0.15)
    assert got[0] == pytest.approx(0.72527822415417691, rel=1e-12)
    assert got[1] == pytest.approx(0.72527822415417691, rel=1e-12)


def test_rough_emissivity_increases_with_roughness():
    assert np.all(_rough_emissivity(0.3, 0.4) > _rough_emissivity(0.3, 0.1))


def test_vegetation_transmissivity():
    assert ra.canopy_transmissivity(0.0, 40.0) == 1.0
    got = ra.canopy_transmissivity(0.12, 40.0)
    assert got == pytest.approx(0.85500421971371823, rel=1e-12)
    taus = np.linspace(0.0, 3.0, 40)
    gammas = ra.canopy_transmissivity(taus, 40.0)
    assert np.all(np.diff(gammas) < 0.0)


def test_tau_omega_tb_split_keeps_the_bits():
    # on arrays and on floats, tau_omega_tb must round exactly like the
    # formula written out, so the seed grid and the optimizer agree
    rng = np.random.default_rng(23)
    e_p = rng.uniform(0.3, 1.0, (50, 1))
    gamma = ra.canopy_transmissivity(rng.uniform(0.0, 3.0, (1, 40)), 40.0)
    for omega, t_e in [(0.0, 292.15), (0.0608, 271.3), (0.2, 310.05)]:
        veg = (1.0 - omega) * (1.0 - gamma) * t_e
        want = gamma * e_p * t_e + veg + gamma * (1.0 - e_p) * veg
        assert np.array_equal(ra.tau_omega_tb(e_p, gamma, omega, t_e), want)
        for e, g in zip(e_p[:, 0].tolist(), gamma[0].tolist()):
            veg = (1.0 - omega) * (1.0 - g) * t_e
            assert ra.tau_omega_tb(e, g, omega, t_e) == g * e * t_e + veg + g * (1.0 - e) * veg


# ----------------------------------------------------------------------
# Forward emission
# ----------------------------------------------------------------------

def _forward(sm, tau=0.0, omega=0.0, h=0.0, clay=0.20, t_e=292.15):
    tb_h, tb_v = ra.simulate_tb(sm, tau, omega, h, clay, 40.0, t_e)
    return float(tb_h), float(tb_v)


def test_forward_bare_smooth_reduces_to_fresnel_emissivity():
    eps_r, eps_i = ra.mironov_eps(0.22, 0.20, F)
    r_h, r_v = ra.fresnel_power(eps_r, eps_i, 40.0)
    tb_h, tb_v = _forward(0.22)
    assert tb_h == pytest.approx((1.0 - r_h) * 292.15, rel=1e-14)
    assert tb_v == pytest.approx((1.0 - r_v) * 292.15, rel=1e-14)


def test_forward_frozen_composition_fixture():
    tb_h, tb_v = _forward(0.30, h=0.15)
    assert tb_h == pytest.approx(168.42616521111214, rel=1e-12)
    assert tb_v == pytest.approx(220.02487460420339, rel=1e-12)
    assert tb_v > tb_h


def test_forward_opaque_canopy_limit():
    for omega in (0.0, 0.05, 0.12):
        tb_h, tb_v = _forward(0.30, tau=50.0, omega=omega)
        want = (1.0 - omega) * 292.15
        assert abs(tb_h - want) < 1e-6 * 292.15
        assert abs(tb_v - want) < 1e-6 * 292.15


def test_forward_emission_never_exceeds_temperature():
    rng = np.random.default_rng(11)
    for _ in range(300):
        sm, clay = rng.uniform(0, 1), rng.uniform(0, 1)
        tau, omega = rng.uniform(0, 3), rng.uniform(0, 0.2)
        tb_h, tb_v = _forward(sm, tau, omega, rng.uniform(0, 0.5), clay)
        assert 0.0 < tb_h <= 292.15
        assert 0.0 < tb_v <= 292.15


def test_forward_polarization_order_off_nadir():
    sms = np.arange(0.0, 0.601, 0.05)
    for theta in (10.0, 40.0, 70.0):
        tb_h, tb_v = ra.simulate_tb(sms, 0.0, 0.0, 0.1, 0.2, theta, 292.15)
        assert np.all(tb_v >= tb_h)


def test_forward_monotone_decreasing_in_moisture():
    sms = np.arange(0.05, 0.551, 0.05)
    for diel in (ra.DielectricModel.MIRONOV, ra.DielectricModel.TOPP):
        tb_h, tb_v = ra.simulate_tb(sms, 0.1, 0.05, 0.15, 0.2, 40.0, 292.15, diel)
        assert np.all(np.diff(tb_h) < 0.0)
        assert np.all(np.diff(tb_v) < 0.0)


def test_forward_matches_chain_oracle():
    want = oracles.forward_tb_chain(0.18, 0.31, 0.07, 0.04, 0.22, 290.5, 40.0)
    tb_h, tb_v = _forward(0.18, tau=0.07, omega=0.04, h=0.22, clay=0.31, t_e=290.5)
    assert tb_h == pytest.approx(float(want[0]), rel=1e-12)
    assert tb_v == pytest.approx(float(want[1]), rel=1e-12)


def test_soil_emissivity_pair_domain_checks():
    for kwargs, message in [
        (dict(sm=[0.2, 1.1]), r"^sm must be in \[0, 1\]$"),
        (dict(clay_fraction=1.2), "clay_fraction must be in"),
        (dict(frequency_ghz=0.1), "frequency_ghz 0.1 outside"),
        (dict(sm=0.99, dielectric=ra.DielectricModel.TOPP), "invertible branch"),
        (dict(dielectric="debye"), "unknown dielectric model"),
    ]:
        args = dict(sm=0.2, clay_fraction=0.2, incidence_deg=40.0, h=0.1) | kwargs
        with pytest.raises(DomainError, match=message):
            ra.soil_emissivity_pair(**args)
    with pytest.raises(DomainError, match="unknown dielectric model"):
        ra.emissivity_evaluator(0.2, 40.0, 0.1, "debye")


# Worst |scalar - array| emissivity over the sweep below, as measured:
# numpy's complex sqrt (Mironov) and sinh/arcsinh (Topp) differ from
# cmath's and math's in the last bits.
SCALAR_ARRAY_DISAGREEMENT = {ra.DielectricModel.MIRONOV: 2 * 2.0**-52,
                             ra.DielectricModel.TOPP: 6 * 2.0**-52}


def test_scalar_evaluator_matches_array_path():
    sms = np.linspace(0.0, 0.7, 7001)
    for diel, bound in SCALAR_ARRAY_DISAGREEMENT.items():
        evaluate = ra.emissivity_evaluator(0.2, 40.0, 0.15, diel)
        fast = np.array([evaluate(float(sm)) for sm in sms]).T
        slow = ra.soil_emissivity_pair(sms, 0.2, 40.0, 0.15, diel)
        assert np.max(np.abs(fast - slow)) <= bound, diel


@pytest.mark.parametrize("diel", list(ra.DielectricModel))
@pytest.mark.parametrize("clay", [0.13, 0.20])
def test_analytic_slope_matches_central_difference(diel, clay):
    # Mironov's slope jumps at mvt, so the sweep keeps a step away from it
    # and must cover both sides; Topp's runs to the top of the sm box
    step = 1e-6
    mvt = ra._mironov_mixing_params(clay, F)[2]
    evaluate = ra.emissivity_evaluator(clay, 40.0, 0.15, diel)
    with_slope = ra.emissivity_slope_evaluator(clay, 40.0, 0.15, diel)
    sms = [sm for sm in np.linspace(SM_BOUNDS[0] + step, SM_BOUNDS[1] - step, 139).tolist()
           if abs(sm - mvt) > 2 * step] + [SM_BOUNDS[1] - step]
    assert min(sms) < mvt < max(sms)
    for sm in sms:
        e_hv, slope = with_slope(sm)
        assert e_hv == evaluate(sm)
        up, down = evaluate(sm + step), evaluate(sm - step)
        for k in (0, 1):
            central = (up[k] - down[k]) / (2 * step)
            assert slope[k] == pytest.approx(central, rel=1e-6), (diel, clay, sm, k)


@pytest.mark.parametrize("omega", [0.0, 0.05, 0.0608])
def test_tau_omega_partials_match_central_difference(omega):
    # tau_omega_tb is linear in e and quadratic in gamma, so a central
    # difference is exact up to rounding; floats take the same operations
    # as arrays, bit for bit
    step, t_e = 1e-4, 290.0
    e = np.linspace(0.0, 1.0, 21)[:, None]
    gamma = np.linspace(0.05, 1.0, 20)[None, :]
    # d tb / d e does not depend on e, so it broadcasts over gamma only
    per_e, per_gamma = np.broadcast_arrays(*ra.tau_omega_partials(e, gamma, omega, t_e))
    assert per_gamma.shape == (21, 20)
    central_e = (ra.tau_omega_tb(e + step, gamma, omega, t_e)
                 - ra.tau_omega_tb(e - step, gamma, omega, t_e)) / (2 * step)
    central_gamma = (ra.tau_omega_tb(e, gamma + step, omega, t_e)
                     - ra.tau_omega_tb(e, gamma - step, omega, t_e)) / (2 * step)
    np.testing.assert_allclose(per_e, central_e, rtol=1e-9, atol=1e-7)
    np.testing.assert_allclose(per_gamma, central_gamma, rtol=1e-9, atol=1e-7)
    for i, j in ((0, 0), (7, 3), (20, 19), (13, 11)):
        scalar = ra.tau_omega_partials(float(e[i, 0]), float(gamma[0, j]), omega, t_e)
        assert all(type(value) is float for value in scalar)
        assert scalar == (per_e[i, j], per_gamma[i, j])


# ----------------------------------------------------------------------
# Type invariants
# ----------------------------------------------------------------------

def test_type_invariants_rejected():
    with pytest.raises(DomainError):
        make_surface(0.2, "bare_soil", 90.0)
