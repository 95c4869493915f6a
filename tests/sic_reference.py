"""Scalar SIC power references for the tests.

Plain loops over the SIC recursion, independent of the vectorised ladder
in ``ambcsim.power``.
"""

import numpy as np


def min_power_single(gamma, noise, gain):
    """Closed-form power for an interference-free UE."""
    if gain <= 0 or noise <= 0 or gamma < 0:
        raise ValueError("require gain > 0, noise > 0, gamma >= 0")
    return gamma * noise / gain


def sic_order(gains):
    """Decode order: non-increasing gain, ties by UE index ascending."""
    g = np.asarray(gains, dtype=float)
    return sorted(range(g.size), key=lambda i: (-g[i], i))


def closed_form_cluster_powers(gains, gammas, noise):
    """Exact minimum powers under SIC, without any budget clamping.

    Recursion from the weakest (interference-free) UE upward.
    """
    g = np.asarray(gains, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    p = np.zeros(g.size)
    interference = 0.0
    for i in reversed(sic_order(g)):  # weakest first
        p[i] = gam[i] * (noise + interference) / g[i]
        interference += p[i] * g[i]
    return p
