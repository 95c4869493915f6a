"""Geometry references for the tests.

The scalar functions take one point and one link at a time, independent
of the vectorised UE x tag arrays in ``ambcsim.channel.effective_gains``.
Each takes any object with ``x``, ``y`` and ``z`` attributes: a
``Position`` here or one element of an ``ambcsim.channel.positions``
record array.  ``full_block_gains`` evaluates the exact cascaded gain of
every UE-tag pair and takes the argmax, the computation that
``effective_gains`` narrows with a distance bound to the pairs that the
bound cannot rule out, re-checked with the exact formula.
"""

import math
from typing import NamedTuple

import numpy as np

from ambcsim.channel import ChannelParams, ChannelState, a2g_path_loss


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


def full_block_gains(deployment, params: ChannelParams,
                     ambc_enabled: bool = True) -> ChannelState:
    """``effective_gains`` evaluated exactly over the whole UE x tag block."""
    ues = deployment.ue_positions
    uav = deployment.uav_position

    horiz = np.hypot(uav["x"] - ues["x"], uav["y"] - ues["y"])
    dz = uav["z"] - ues["z"]
    dist = np.hypot(horiz, dz)
    angle = np.arctan2(dz, horiz)
    direct = 10.0 ** (-a2g_path_loss(dist, angle, params) / 10.0)

    n = ues.size
    backscatter = np.zeros(n)
    best = np.full(n, -1)

    tags = deployment.tag_positions
    if ambc_enabled and tags.size and params.reflection_coeff > 0.0:
        # hop 1: UE -> tag, (n_ue, n_tag)
        d1h = np.hypot(ues["x"][:, None] - tags["x"][None, :],
                       ues["y"][:, None] - tags["y"][None, :])
        d1z = np.abs(ues["z"][:, None] - tags["z"][None, :])
        d1 = np.hypot(d1h, d1z)
        g1 = 10.0 ** (-a2g_path_loss(d1, np.arctan2(d1z, d1h), params) / 10.0)
        # hop 2: tag -> UAV, (n_tag,)
        d2h = np.hypot(uav["x"] - tags["x"], uav["y"] - tags["y"])
        d2z = np.abs(uav["z"] - tags["z"])
        d2 = np.hypot(d2h, d2z)
        g2 = 10.0 ** (-a2g_path_loss(d2, np.arctan2(d2z, d2h), params) / 10.0)

        cascaded = params.reflection_coeff * g1 * g2[None, :]
        best = np.argmax(cascaded, axis=1)  # ties -> lowest index
        backscatter = cascaded[np.arange(n), best]

    effective = direct + backscatter
    return ChannelState(direct, backscatter, effective, best)
