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

import oracles

F = ra.L_BAND_GHZ


# ----------------------------------------------------------------------
# Dielectric models
# ----------------------------------------------------------------------

def test_mironov_dry_soil_matches_refractive_polynomial():
    eps = ra.mironov_permittivity(0.0, 0.20, F)
    # frozen oracle values, complex-arithmetic route
    assert eps.real == pytest.approx(2.361970519728, rel=1e-12)
    assert eps.imag == pytest.approx(0.096670930496, rel=1e-12)
    # the real part is the dry refractive-index square minus the small
    # attenuation-square term
    n_dry = 1.634 - 0.539 * 0.20 + 0.2748 * 0.20**2
    assert eps.real == pytest.approx(n_dry**2, abs=1.5e-3)
    assert eps.imag == pytest.approx(0.0, abs=0.1)


@pytest.mark.parametrize("sm,clay,want_re,want_im", [
    (0.10, 0.20, 5.0828385363987469, 0.45550975939436355),
    (0.30, 0.20, 16.396419198460813, 2.0239159697410049),
    (1.00, 0.20, 106.68516132956155, 15.935079796582309),
    (0.10, 0.00, 6.251815913254017, 0.49582055405968689),
    (0.10, 1.00, 3.2283205378328337, 0.42585698717838092),
])
def test_mironov_frozen_fixtures(sm, clay, want_re, want_im):
    eps = ra.mironov_permittivity(sm, clay, F)
    assert eps.real == pytest.approx(want_re, rel=1e-12)
    assert eps.imag == pytest.approx(want_im, rel=1e-12)


def test_mironov_moisture_ordering():
    wet = ra.mironov_permittivity(0.30, 0.20, F)
    dry = ra.mironov_permittivity(0.10, 0.20, F)
    assert wet.real > dry.real


def test_mironov_clay_extremes_stay_physical():
    for clay in (0.0, 1.0):
        eps = ra.mironov_permittivity(0.10, clay, F)
        assert eps.real >= 1.0
        assert eps.imag >= 0.0


@pytest.mark.parametrize("clay", [0.0, 0.2, 0.5])
def test_mironov_real_part_strictly_increasing_in_moisture(clay):
    sms = np.linspace(0.0, 0.6, 61)
    eps_r, _ = ra.mironov_eps(sms, clay, F)
    assert np.all(np.diff(eps_r) > 0.0)


def test_mironov_matches_complex_route_oracle():
    for sm in (0.0, 0.05, 0.17, 0.33, 0.52):
        for clay in (0.05, 0.28, 0.60):
            want = oracles.mironov_eps_complex(sm, clay, F)
            got = ra.mironov_permittivity(sm, clay, F)
            assert got.real == pytest.approx(float(want.real), rel=1e-12)
            assert got.imag == pytest.approx(float(want.imag), rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(sm=-0.1, clay_fraction=0.2),
    dict(sm=1.1, clay_fraction=0.2),
    dict(sm=0.2, clay_fraction=-0.01),
    dict(sm=0.2, clay_fraction=1.01),
    dict(sm=0.2, clay_fraction=0.2, frequency_ghz=0.1),
])
def test_mironov_domain_errors(kwargs):
    with pytest.raises(DomainError):
        ra.mironov_permittivity(**kwargs)


def test_topp_round_trip_recovers_permittivity():
    for eps in (5.0, 15.0, 25.0):
        sm, clamped = ra.topp_moisture(eps)
        assert not clamped
        back = ra.topp_permittivity(sm)
        assert back.real == pytest.approx(eps, abs=1e-9)
        assert back.imag == 0.0


@pytest.mark.parametrize("sm,want_eps", [
    (0.30, 16.611629929626029),   # frozen root-extraction oracle
    (0.00, 1.8807119164791253),
])
def test_topp_permittivity_frozen_roots(sm, want_eps):
    assert ra.topp_permittivity(sm).real == pytest.approx(want_eps, abs=1e-9)


def test_topp_permittivity_matches_root_oracle():
    for sm in (0.02, 0.11, 0.26, 0.44, 0.61):
        want = float(oracles.topp_eps_of_sm(sm))
        assert float(ra.topp_eps(sm)) == pytest.approx(want, abs=1e-9)


def test_topp_moisture_clamps_below_zero():
    sm, clamped = ra.topp_moisture(1.0)
    assert sm == 0.0
    assert clamped
    # raw polynomial value at eps=1 (direct coefficient evaluation)
    raw = -5.3e-2 + 2.92e-2 - 5.5e-4 + 4.3e-6
    assert raw == pytest.approx(-0.0243457, abs=1e-7)


def test_topp_moisture_upper_range():
    sm, clamped = ra.topp_moisture(80.0)
    assert sm == pytest.approx(0.9646, abs=1e-4)
    assert not clamped


def test_topp_moisture_monotone():
    assert ra.topp_moisture(25.0)[0] > ra.topp_moisture(10.0)[0]


def test_topp_outside_invertible_branch():
    with pytest.raises(DomainError):
        ra.topp_permittivity(0.99)
    with pytest.raises(DomainError):
        ra.topp_moisture(0.5)


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
    geom = ra.ViewGeometry(37.0)
    r_h, r_v = ra.fresnel_reflectivity(ra.ComplexPermittivity(1.0, 0.0), geom)
    assert r_h == pytest.approx(0.0, abs=1e-15)
    assert r_v == pytest.approx(0.0, abs=1e-15)


def test_fresnel_normal_incidence_symmetry():
    geom = ra.ViewGeometry(0.0)
    for eps in (ra.ComplexPermittivity(4.0, 0.0), ra.ComplexPermittivity(20.0, 3.0)):
        r_h, r_v = ra.fresnel_reflectivity(eps, geom)
        assert abs(r_h - r_v) < 1e-12


def test_fresnel_brewster_null():
    for eps_r in (2.0, 4.0, 9.0, 25.0):
        theta_b = math.degrees(math.atan(math.sqrt(eps_r)))
        _, r_v = ra.fresnel_reflectivity(ra.ComplexPermittivity(eps_r, 0.0),
                                         ra.ViewGeometry(theta_b))
        assert r_v < 1e-12


def test_fresnel_frozen_lossy_fixture():
    r_h, r_v = ra.fresnel_reflectivity(ra.ComplexPermittivity(15.0, 3.0),
                                       ra.ViewGeometry(40.0))
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


def test_rough_emissivity_no_roughness_identity():
    geom = ra.ViewGeometry(40.0)
    assert ra.rough_emissivity(0.3, ra.SurfaceRoughness(0.0), geom) == pytest.approx(0.7)


def test_rough_emissivity_frozen_value():
    got = ra.rough_emissivity(0.3, ra.SurfaceRoughness(0.15), ra.ViewGeometry(40.0))
    assert got == pytest.approx(0.72527822415417691, rel=1e-12)


def test_rough_emissivity_increases_with_roughness():
    geom = ra.ViewGeometry(40.0)
    e_small = ra.rough_emissivity(0.3, ra.SurfaceRoughness(0.1), geom)
    e_large = ra.rough_emissivity(0.3, ra.SurfaceRoughness(0.4), geom)
    assert e_large > e_small


def test_vegetation_transmissivity():
    geom = ra.ViewGeometry(40.0)
    assert ra.vegetation_transmissivity(ra.VegetationState(0.0), geom) == 1.0
    got = ra.vegetation_transmissivity(ra.VegetationState(0.12), geom)
    assert got == pytest.approx(0.85500421971371823, rel=1e-12)
    taus = np.linspace(0.0, 3.0, 40)
    gammas = ra.canopy_transmissivity(taus, 40.0)
    assert np.all(np.diff(gammas) < 0.0)


# ----------------------------------------------------------------------
# Forward emission
# ----------------------------------------------------------------------

def _state(sm, tau=0.0, omega=0.0, h=0.0, clay=0.20, t_e=292.15):
    return (ra.SoilState(sm, clay, t_e), ra.VegetationState(tau, omega),
            ra.SurfaceRoughness(h), ra.ViewGeometry(40.0), t_e)


def test_forward_bare_smooth_reduces_to_fresnel_emissivity():
    soil, veg, rough, geom, t_e = _state(0.22)
    eps = ra.mironov_permittivity(0.22, 0.20, F)
    r_h, r_v = ra.fresnel_reflectivity(eps, geom)
    pair = ra.forward_tb(soil, veg, rough, geom, t_e)
    assert pair.tb_h == pytest.approx((1.0 - r_h) * t_e, rel=1e-14)
    assert pair.tb_v == pytest.approx((1.0 - r_v) * t_e, rel=1e-14)


def test_forward_frozen_composition_fixture():
    soil, veg, rough, geom, t_e = _state(0.30, h=0.15)
    pair = ra.forward_tb(soil, veg, rough, geom, t_e)
    assert pair.tb_h == pytest.approx(168.42616521111214, rel=1e-12)
    assert pair.tb_v == pytest.approx(220.02487460420339, rel=1e-12)
    assert pair.tb_v > pair.tb_h


def test_forward_opaque_canopy_limit():
    for omega in (0.0, 0.05, 0.12):
        soil, _, rough, geom, t_e = _state(0.30)
        pair = ra.forward_tb(soil, ra.VegetationState(50.0, omega), rough, geom, t_e)
        want = (1.0 - omega) * t_e
        assert abs(pair.tb_h - want) < 1e-6 * t_e
        assert abs(pair.tb_v - want) < 1e-6 * t_e


def test_forward_emission_never_exceeds_temperature():
    rng = np.random.default_rng(11)
    geom = ra.ViewGeometry(40.0)
    for _ in range(300):
        soil = ra.SoilState(rng.uniform(0, 1), rng.uniform(0, 1), 292.15)
        veg = ra.VegetationState(rng.uniform(0, 3), rng.uniform(0, 0.2))
        rough = ra.SurfaceRoughness(rng.uniform(0, 0.5))
        pair = ra.forward_tb(soil, veg, rough, geom, 292.15)
        assert 0.0 < pair.tb_h <= 292.15
        assert 0.0 < pair.tb_v <= 292.15


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
    soil = ra.SoilState(0.18, 0.31, 290.5)
    pair = ra.forward_tb(soil, ra.VegetationState(0.07, 0.04),
                         ra.SurfaceRoughness(0.22), ra.ViewGeometry(40.0), 290.5)
    assert pair.tb_h == pytest.approx(float(want[0]), rel=1e-12)
    assert pair.tb_v == pytest.approx(float(want[1]), rel=1e-12)


def test_effective_temperature():
    assert ra.effective_temperature(290.0, 294.0, 1.0) == 290.0
    assert ra.effective_temperature(290.0, 294.0, 0.0) == 294.0
    assert ra.effective_temperature(290.0, 294.0, 0.25) == pytest.approx(293.0)
    with pytest.raises(DomainError):
        ra.effective_temperature(-1.0, 294.0, 0.5)
    with pytest.raises(DomainError):
        ra.effective_temperature(290.0, 294.0, 1.5)


def test_scalar_evaluator_matches_array_path():
    for diel in (ra.DielectricModel.MIRONOV, ra.DielectricModel.TOPP):
        evaluate = ra.emissivity_evaluator(0.2, 40.0, 0.15, diel)
        for sm in np.linspace(0.0, 0.7, 71):
            fast = evaluate(float(sm))
            slow = ra.soil_emissivity_pair(float(sm), 0.2, 40.0, 0.15, diel)
            assert fast[0] == pytest.approx(float(slow[0]), abs=1e-14)
            assert fast[1] == pytest.approx(float(slow[1]), abs=1e-14)


# ----------------------------------------------------------------------
# Type invariants
# ----------------------------------------------------------------------

def test_type_invariants_rejected():
    with pytest.raises(DomainError):
        ra.ComplexPermittivity(0.5, 0.0)
    with pytest.raises(DomainError):
        ra.ComplexPermittivity(2.0, -0.1)
    with pytest.raises(DomainError):
        ra.SoilState(1.2, 0.2, 290.0)
    with pytest.raises(DomainError):
        ra.VegetationState(-0.1)
    with pytest.raises(DomainError):
        ra.VegetationState(0.1, 1.0)
    with pytest.raises(DomainError):
        ra.SurfaceRoughness(-0.01)
    with pytest.raises(DomainError):
        ra.ViewGeometry(90.0)
