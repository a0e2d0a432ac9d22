"""Footprint ellipse geometry."""

import math

import pytest

from lbandsm.errors import DomainError
from lbandsm.geometry import FootprintEllipse, footprint

import oracles


def test_nadir_footprint_is_circular():
    fp = footprint(2.0, 0.0, 37.0)
    want = 2.0 * 2.0 * math.tan(math.radians(18.5))
    assert fp.major_axis_m == pytest.approx(want, rel=1e-12)
    assert fp.minor_axis_m == pytest.approx(want, rel=1e-12)
    assert fp.center_offset_m == pytest.approx(0.0, abs=1e-12)


def test_reference_setup_major_axis():
    fp = footprint(1.14, 40.0, 37.0)
    assert 1.35 <= fp.major_axis_m <= 1.45


def test_matches_trigonometric_oracle():
    for height, theta, beam in [(1.14, 40.0, 37.0), (2.5, 30.0, 20.0),
                                (0.8, 55.0, 15.0)]:
        want = oracles.footprint_trig(height, theta, beam)
        fp = footprint(height, theta, beam)
        assert fp.major_axis_m == pytest.approx(want[0], abs=1e-12)
        assert fp.minor_axis_m == pytest.approx(want[1], abs=1e-12)
        assert fp.center_offset_m == pytest.approx(want[2], abs=1e-12)


def test_outputs_scale_linearly_with_height():
    base = footprint(1.0, 40.0, 37.0)
    scaled = footprint(3.7, 40.0, 37.0)
    assert scaled.major_axis_m == pytest.approx(3.7 * base.major_axis_m, rel=1e-12)
    assert scaled.minor_axis_m == pytest.approx(3.7 * base.minor_axis_m, rel=1e-12)
    assert scaled.center_offset_m == pytest.approx(3.7 * base.center_offset_m, rel=1e-12)


def test_axis_ratio_independent_of_height():
    r1 = footprint(1.0, 40.0, 37.0)
    r2 = footprint(9.0, 40.0, 37.0)
    assert r1.major_axis_m / r1.minor_axis_m == \
        pytest.approx(r2.major_axis_m / r2.minor_axis_m, rel=1e-12)


def test_beam_reaching_horizon_rejected():
    with pytest.raises(DomainError, match="horizon"):
        footprint(1.14, 75.0, 37.0)


def test_input_validation():
    with pytest.raises(DomainError):
        footprint(0.0, 40.0, 37.0)
    with pytest.raises(DomainError):
        footprint(1.0, -1.0, 37.0)
    with pytest.raises(DomainError):
        footprint(1.0, 40.0, 0.0)


def test_ellipse_invariants():
    with pytest.raises(DomainError):
        FootprintEllipse(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        FootprintEllipse(1.0, 0.0, 0.0)
