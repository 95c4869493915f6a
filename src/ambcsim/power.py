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


@dataclass(frozen=True)
class RateDemand:
    """Per-UE traffic: fixed payload per frame."""

    data_bits: float
    frame_duration: float = 1.0  # seconds

    def __post_init__(self):
        if self.data_bits <= 0:
            raise ValueError("data_bits must be > 0")
        if self.frame_duration <= 0:
            raise ValueError("frame_duration must be > 0")

    @property
    def required_rate(self) -> float:
        return self.data_bits / self.frame_duration


@dataclass
class PowerSolution:
    """Per-cluster allocation outcome (arrays indexed like the input)."""

    power: np.ndarray          # watts, 0 for outage UEs
    outage: np.ndarray         # bool
    # Always 1: the scan solves the ladder once.  Kept because the
    # benchmark's power.fixed_point_sweeps_per_trial metric reads it.
    iterations: int


@dataclass
class EeBreakdown:
    total_bits: float
    total_energy: float        # joules
    ee: float                  # bits/joule, 0 when nothing is served
    served_count: int
    outage_count: int


def sinr_gamma(required_rate, cluster_bandwidth):
    """Shannon-inverted SINR target: 2^(rate/B) - 1."""
    if cluster_bandwidth <= 0:
        raise ValueError("cluster_bandwidth must be > 0")
    se = required_rate / cluster_bandwidth
    if se > MAX_SPECTRAL_EFFICIENCY:
        raise InfeasibleDemandError(
            f"demand of {se:.1f} bits/s/Hz exceeds the supported range")
    return 2.0 ** se - 1.0


def iterative_power_allocation(cluster_gains, demand: RateDemand,
                               cluster_bandwidth, noise, p_max):
    """Minimum-power allocation for one cluster with admission control.

    The UEs are scanned weakest first, and a UE is admitted iff it fits
    at the next free rank: rungs[len(admitted)] / g <= p_max.  A later
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

    gamma = sinr_gamma(demand.required_rate, cluster_bandwidth)
    # Weakest first: strongest first with ties by ascending index, reversed.
    order = np.argsort(-gains, kind="stable")[::-1]
    with np.errstate(over="ignore"):
        # Received power at served rank r = 0, 1, ... (0 = weakest).
        rungs = gamma * noise * (1.0 + gamma) ** np.arange(n)
    # Python floats divide with the same IEEE rounding as numpy, so the
    # test matches the powers computed below bit for bit.
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
    return PowerSolution(power=p, outage=outage, iterations=1)


def compute_ee(solutions, demand: RateDemand, circuit_power):
    """Bits-per-joule over one frame; outage UEs contribute nothing."""
    served = 0
    outage = 0
    tx_power = 0.0
    for sol in solutions:
        served_mask = ~sol.outage
        served += int(served_mask.sum())
        outage += int(sol.outage.sum())
        tx_power += float(sol.power[served_mask].sum())

    total_bits = demand.data_bits * served
    total_energy = demand.frame_duration * (tx_power + circuit_power * served)
    ee = total_bits / total_energy if served > 0 else 0.0
    return EeBreakdown(total_bits=total_bits, total_energy=total_energy,
                       ee=ee, served_count=served, outage_count=outage)
