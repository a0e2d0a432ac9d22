"""Ground footprint of a downward-looking conical antenna beam.

The footprint is the intersection of the half-power (3 dB) beam cone
with a flat ground plane: an ellipse whose along-look major axis, cross-
look minor axis and center offset from the nadir point follow directly
from the mounting height, incidence angle and full beamwidth.
"""

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class FootprintEllipse:
    major_axis_m: float     # along the look direction
    minor_axis_m: float     # across the look direction
    center_offset_m: float  # ground distance from nadir to ellipse center

    def __post_init__(self):
        if not self.minor_axis_m > 0.0:
            raise DomainError(f"minor axis must be positive, got {self.minor_axis_m}")
        if self.major_axis_m < self.minor_axis_m:
            raise DomainError("major axis cannot be shorter than minor axis")


def footprint(height_m, incidence_deg, beamwidth_deg):
    """Footprint ellipse of a cone of full width `beamwidth_deg` tilted
    `incidence_deg` from nadir at `height_m` above flat ground.

        major  = height * (tan(th + b/2) - tan(th - b/2))
        minor  = 2 * (height / cos th) * tan(b/2)
        center = height * (tan(th + b/2) + tan(th - b/2)) / 2
    """
    if not height_m > 0.0:
        raise DomainError(f"height_m must be positive, got {height_m}")
    if not beamwidth_deg > 0.0:
        raise DomainError(f"beamwidth_deg must be positive, got {beamwidth_deg}")
    if not 0.0 <= incidence_deg < 90.0:
        raise DomainError(f"incidence_deg must be in [0, 90), got {incidence_deg}")
    if incidence_deg + beamwidth_deg / 2.0 >= 90.0:
        raise DomainError(
            f"beam edge at {incidence_deg + beamwidth_deg / 2.0} deg reaches the horizon")

    theta = math.radians(incidence_deg)
    half = math.radians(beamwidth_deg) / 2.0
    t_far = math.tan(theta + half)
    t_near = math.tan(theta - half)
    return FootprintEllipse(
        major_axis_m=height_m * (t_far - t_near),
        minor_axis_m=2.0 * (height_m / math.cos(theta)) * math.tan(half),
        center_offset_m=height_m * (t_far + t_near) / 2.0,
    )
