"""Scalar SIC power references for the tests.

Plain loops over the SIC recursion, independent of the vectorised ladder
in ``ambcsim.power``.
"""

import itertools
import math

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


def achieved_rates(powers, gains, bandwidth, noise):
    """Shannon rate of every UE under SIC, in bits/s: each UE sees the
    weaker UEs, decoded after it, as interference.  A UE with zero power
    has rate 0."""
    p = np.asarray(powers, dtype=float)
    g = np.asarray(gains, dtype=float)
    rates = np.zeros(g.size)
    interference = 0.0
    for i in reversed(sic_order(g)):  # weakest first
        received = p[i] * g[i]
        rates[i] = bandwidth * math.log2(1.0 + received
                                         / (noise + interference))
        interference += received
    return rates


def max_admission(gains, gamma, noise, p_max):
    """Brute force over every subset: the largest set of UEs whose SIC
    powers all fit under p_max.  Among the largest sets, the first one
    whose membership, read weakest first (sic_order reversed, so equal
    gains go by descending index), admits a UE the others leave out.
    Returns (powers, outage)."""
    g = np.asarray(gains, dtype=float)
    weakest_first = sic_order(g)[::-1]
    best = []
    # (True, ...) comes first, so the first largest set found wins ties.
    for picks in itertools.product((True, False), repeat=g.size):
        # Ascending index, so the subset keeps the tie order of gains.
        members = sorted(i for i, pick in zip(weakest_first, picks) if pick)
        powers = closed_form_cluster_powers(g[members],
                                            [gamma] * len(members), noise)
        if len(members) > len(best) and np.all(powers <= p_max):
            best, best_powers = members, powers
    p = np.zeros(g.size)
    outage = np.ones(g.size, dtype=bool)
    if best:
        p[best] = best_powers
        outage[best] = False
    return p, outage
