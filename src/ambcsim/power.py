"""Uplink NOMA power allocation with SIC and energy-efficiency accounting.

Within a cluster the receiver decodes the strongest-gain UE first, so the
weakest UE is interference-free and each stronger UE sees the weaker,
still-undecoded UEs as interference.  With a common SINR target gamma,
the minimum received powers form an exact ladder: the served UE of rank
r (0 = weakest) is received at gamma N (1 + gamma)^r, so it transmits
that over its gain.  Admission control is one scan from the weakest UE
up: a UE is served iff its power at the next free rank fits the budget,
otherwise it is in outage.  The scan serves the largest number of UEs
any feasible set can serve.
"""

from dataclasses import dataclass

import numpy as np

MAX_SPECTRAL_EFFICIENCY = 60.0  # bits/s/Hz guard against exponent overflow


class InfeasibleDemandError(ValueError):
    """Rate demand exceeds the supported spectral-efficiency range."""


@dataclass
class PowerSolution:
    """Per-cluster allocation outcome (arrays indexed like the input)."""

    power: np.ndarray          # watts, 0 for outage UEs
    outage: np.ndarray         # bool
    # Always 1: the scan solves the ladder once.  Kept because the
    # benchmark's power.fixed_point_sweeps_per_trial metric reads it.
    iterations: int


def sinr_gamma(required_rate, cluster_bandwidth):
    """Shannon-inverted SINR target: 2^(rate/B) - 1."""
    if cluster_bandwidth <= 0:
        raise ValueError("cluster_bandwidth must be > 0")
    se = required_rate / cluster_bandwidth
    if se > MAX_SPECTRAL_EFFICIENCY:
        raise InfeasibleDemandError(
            f"demand of {se:.1f} bits/s/Hz exceeds the supported range")
    return 2.0 ** se - 1.0


def iterative_power_allocation(cluster_gains, gamma, noise, p_max):
    """Minimum-power allocation for one cluster at SINR target gamma
    (see sinr_gamma) and noise floor noise, with admission control.

    The UEs are scanned weakest first, and a UE is admitted iff it fits
    at the next free rank r: rungs[r] / g <= p_max.  A later
    admission is stronger, so it never changes an admitted UE's rank and
    the admitted set is feasible.  The scan serves the most UEs: by an
    exchange argument, on every weakest-first prefix it has admitted at
    least as many UEs as any feasible set holds there.  A power that
    overflows is infinite and never fits.

    Tie rule: among the largest feasible sets the scan takes the one
    that admits the weaker UE first, and among equal gains the higher
    index, because the weakest-first order reverses ascending index.
    """
    gains = np.asarray(cluster_gains, dtype=float)
    n = gains.size
    if n == 0:
        raise ValueError("cluster must contain at least one UE")
    if p_max <= 0:
        raise ValueError("p_max must be > 0")

    # Weakest first: strongest first with ties by ascending index, reversed.
    order = (-gains).argsort(kind="stable")[::-1]
    with np.errstate(over="ignore"):
        # Received power at served rank r = 0, 1, ... (0 = weakest).
        rungs = gamma * noise * (1.0 + gamma) ** np.arange(n)
    # Python floats divide with numpy's IEEE rounding; p is the power
    rung = rungs.tolist()
    power, outage = [0.0] * n, [True] * n
    r = 0
    for i, g in zip(order.tolist(), gains[order].tolist()):
        p = rung[r] / g
        if p <= p_max:
            power[i], outage[i] = p, False
            r += 1
    return PowerSolution(np.array(power), np.array(outage), iterations=1)


def compute_ee(solutions, data_bits, frame_duration, circuit_power):
    """Bits per joule over one frame, 0 when nothing is served; outage
    UEs contribute nothing."""
    served = 0
    tx_power = 0.0
    for sol in solutions:
        served_mask = ~sol.outage
        served += int(np.count_nonzero(served_mask))
        tx_power += float(np.add.reduce(sol.power[served_mask]))
    if served == 0:
        return 0.0
    return data_bits * served / (frame_duration
                                 * (tx_power + circuit_power * served))
