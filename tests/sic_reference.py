"""Scalar SIC power references for the tests.

Plain loops over the SIC recursion, independent of the vectorised ladder
in ``ambcsim.power``, and ``gather_and_divide``, the numpy form of that
ladder's admission scan, which ``ambcsim.power`` must match bit for bit.
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


def gather_and_divide(gains, gamma, noise, p_max):
    """The weakest-first admission scan with its powers recomputed in
    numpy: the scan picks the UEs on Python floats, then their rungs and
    gains are gathered and divided again.  Returns (powers, outage)."""
    gains = np.asarray(gains, dtype=float)
    n = gains.size
    order = np.argsort(-gains, kind="stable")[::-1]
    with np.errstate(over="ignore"):
        rungs = gamma * noise * (1.0 + gamma) ** np.arange(n)
    rung = rungs.tolist()
    admitted = []
    for i, g in zip(order.tolist(), gains[order].tolist()):
        if rung[len(admitted)] / g <= p_max:
            admitted.append(i)
    ladder = np.array(admitted, dtype=np.intp)
    p = np.zeros(n)
    p[ladder] = rungs[:ladder.size] / gains[ladder]
    outage = np.ones(n, dtype=bool)
    outage[ladder] = False
    return p, outage
