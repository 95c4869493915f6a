"""Scalar geometry references for the tests.

One point and one link at a time, independent of the vectorised UE x tag
arrays in ``ambcsim.channel.effective_gains``.  Each function takes any
object with ``x``, ``y`` and ``z`` attributes: a ``Position`` here or one
element of an ``ambcsim.channel.positions`` record array.
"""

import math
from typing import NamedTuple

from ambcsim.channel import ChannelParams, a2g_path_loss


class Position(NamedTuple):
    """Point in cell coordinates; z is height above ground in meters."""

    x: float
    y: float
    z: float


def elevation_angle(ue, uav) -> float:
    """Elevation of the UAV as seen from the UE, in radians.

    Returns arctan(height difference / horizontal distance), pi/2 when
    the UAV is directly overhead.
    """
    dx, dy = uav.x - ue.x, uav.y - ue.y
    dz = uav.z - ue.z
    horizontal = math.hypot(dx, dy)
    if horizontal == 0.0 and dz == 0.0:
        raise ValueError("UE and UAV positions coincide")
    if dz <= 0.0:
        raise ValueError("UAV must be above the UE")
    return math.atan2(dz, horizontal)


def _hop_geometry(p, q):
    """(distance, elevation-style angle) of the p -> q hop."""
    horizontal = math.hypot(q.x - p.x, q.y - p.y)
    dz = abs(q.z - p.z)
    return math.hypot(horizontal, dz), math.atan2(dz, horizontal)


def cascaded_backscatter_gain(ue, tag, uav, params: ChannelParams) -> float:
    """Linear power gain of the UE -> tag -> UAV reflection path."""
    d1, a1 = _hop_geometry(ue, tag)
    d2, a2 = _hop_geometry(tag, uav)
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError("tag must be distinct from UE and UAV")
    g1 = 10.0 ** (-a2g_path_loss(d1, a1, params) / 10.0)
    g2 = 10.0 ** (-a2g_path_loss(d2, a2, params) / 10.0)
    return params.reflection_coeff * g1 * g2
