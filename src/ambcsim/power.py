"""Uplink NOMA power allocation with SIC and energy-efficiency accounting.

Within a cluster the receiver decodes the strongest-gain UE first, so the
weakest UE is interference-free and each stronger UE sees the weaker,
still-undecoded UEs as interference.  With a common SINR target gamma,
the minimum received powers form an exact ladder: the served UE of rank
r (0 = weakest) is received at gamma N (1 + gamma)^r, so it transmits
that over its gain.  UEs whose power would exceed the budget are dropped
(outage) one at a time and the ladder is re-solved over the rest.
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
    achieved_rate: np.ndarray  # bits/s, 0 for outage UEs
    outage: np.ndarray         # bool
    iterations: int            # ladder solves: 1 + the UEs dropped


@dataclass
class EeBreakdown:
    total_bits: float
    total_energy: float        # joules
    ee: float                  # bits/joule, 0 when nothing is served
    circuit_power: float       # watts per served UE
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

    Each round solves the served set on the SIC ladder.  While the
    largest served power exceeds p_max, that UE (the lowest index on
    ties) is dropped and the next round re-ranks the rest.  A power that
    overflows is infinite and is dropped like any other.
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
    served = np.ones(n, dtype=bool)
    solves = 0
    with np.errstate(over="ignore"):
        # Received power at served rank r = 0, 1, ... (0 = weakest).
        rungs = gamma * noise * (1.0 + gamma) ** np.arange(n)
        while True:
            solves += 1
            ladder = order[served[order]]
            p = np.zeros(n)
            p[ladder] = rungs[:ladder.size] / gains[ladder]
            worst = int(np.argmax(np.where(served, p, -np.inf)))
            if ladder.size == 0 or p[worst] <= p_max:
                break
            served[worst] = False

    # Achieved rates from the returned powers, each UE interfered with by
    # the weaker UEs that are decoded after it.
    received = p[ladder] * gains[ladder]
    interference = np.concatenate(([0.0], np.cumsum(received)[:-1]))
    rates = np.zeros(n)
    rates[ladder] = cluster_bandwidth * np.log2(
        1.0 + received / (noise + interference))
    return PowerSolution(power=p, achieved_rate=rates, outage=~served,
                         iterations=solves)


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
                       ee=ee, circuit_power=circuit_power,
                       served_count=served, outage_count=outage)
