"""Scenario configuration with case-study defaults."""

import functools
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (NODE_BYTES, PAIR_BYTES, ChannelParams, ConfigError,
                      a2g_path_loss, check_finite_reals, noise_power)
from .clustering import dp_bytes

UE_HEIGHT = 1.5   # m, handset
TAG_HEIGHT = 1.0  # m
# Bytes that one trial may take.  4 GiB admits n_ues <= 13100 at
# k_max = 10, and up to 17821440 tags for one UE and 375827 for 100.
MEMORY_BUDGET = 1 << 32


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@functools.lru_cache(maxsize=8)
def _cell_gains(params: ChannelParams, coverage_radius: float,
                uav_altitude: float):
    """(edge loss, direct, hop1, hop2): the worst direct path loss in dB
    of any UE, and upper bounds on the direct gain and the two hop gains.

    The farthest UE is at the cell edge, and P_LoS is monotone in the
    elevation, which lies between the edge's and 90 deg, so the larger
    loss of those two angles bounds every UE's.  No UE is nearer the UAV
    than uav_altitude - UE_HEIGHT, no tag nearer a UE than UE_HEIGHT -
    TAG_HEIGHT or the UAV than uav_altitude - TAG_HEIGHT, and no excess
    loss is below eta_los, the loss at P_LoS = 1 (plos_a = 0).  A bound
    that overflows is inf.
    """
    height = uav_altitude - UE_HEIGHT
    edge = math.hypot(coverage_radius, height)
    nearest = np.array([height, UE_HEIGHT - TAG_HEIGHT,
                        uav_altitude - TAG_HEIGHT])
    with np.errstate(over="ignore", divide="ignore"):
        edge_loss = float(a2g_path_loss(
            np.array([edge, edge]),
            np.array([math.atan2(height, coverage_radius), math.pi / 2.0]),
            params).max())
        loss = a2g_path_loss(nearest, np.zeros(3), replace(params, plos_a=0.0))
        return (edge_loss, *(10.0 ** (-loss / 10.0)).tolist())


@dataclass(frozen=True)
class SimConfig:
    coverage_radius: float = 300.0   # m
    n_subcarriers: int = 128
    bandwidth: float = 1e6           # Hz
    p_max: float = 0.2               # W, per-UE uplink budget
    uav_altitude: float = 100.0      # m
    circuit_power: float = 5.0       # dBm per served UE
    data_bits: float = 60_000.0      # bits per UE per frame
    n_ues: int = 70
    n_tags: int = 10
    frame_duration: float = 1.0      # s
    k_max: int = 10
    n_trials: int = 100
    seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self):
        # Also runs on dataclasses.replace, so every sweep point is checked.
        check_finite_reals(self, FLOAT_FIELDS)
        if not isinstance(self.channel, ChannelParams):
            raise ConfigError(f"channel must be a ChannelParams, got "
                              f"{self.channel!r}")
        positive = ["coverage_radius", "bandwidth", "p_max", "data_bits",
                    "frame_duration"]
        for key in positive:
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0")
        if not self.uav_altitude > max(UE_HEIGHT, TAG_HEIGHT):
            raise ConfigError(f"uav_altitude must be above the UE and tag "
                              f"heights ({UE_HEIGHT} m, {TAG_HEIGHT} m)")
        # Where the worst direct loss of any UE underflows as a gain, a
        # UE's gain may be 0.  An FSPL that overflows is an infinite loss;
        # one whose log10 argument underflows is -inf, an infinite gain,
        # refused below.
        loss, direct, hop1, hop2 = _cell_gains(
            self.channel, self.coverage_radius, self.uav_altitude)
        if loss > 0.0 and 10.0 ** (-loss / 10.0) == 0.0:
            raise ConfigError(f"coverage_radius, uav_altitude and "
                              f"channel.carrier_freq give a cell-edge path "
                              f"loss of {loss:.6g} dB (channel.eta_los and "
                              f"eta_nlos included), whose linear gain "
                              f"underflows to 0")
        for key in INT_FIELDS:
            value = getattr(self, key)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ["n_subcarriers", "n_ues", "k_max", "n_trials"]:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be an integer >= 1")
        if self.n_tags < 0:
            raise ConfigError("n_tags must be an integer >= 0")
        # A cluster's noise floor is noise_power over 1 to n_subcarriers
        # subcarriers, and it grows with the width.  Below the smallest
        # normal float, gamma times the noise can underflow to 0, and
        # 0 times a power ladder rung (1 + gamma)^r that overflows is NaN.
        psd = self.channel.noise_psd
        subcarrier_bw = self.bandwidth / self.n_subcarriers
        try:
            lowest, _ = [noise_power(bw, psd) if bw > 0 else 0.0 for bw in
                         (subcarrier_bw, self.n_subcarriers * subcarrier_bw)]
        except OverflowError:
            raise ConfigError("channel.noise_psd and bandwidth give a noise "
                              "floor over the full band that overflows")
        if not lowest >= sys.float_info.min:
            raise ConfigError(f"channel.noise_psd, bandwidth and "
                              f"n_subcarriers give a noise floor of "
                              f"{lowest:.6g} W on one subcarrier, below "
                              f"the smallest normal float")
        # Beside the grouping DP a trial holds up to 192 bytes per UE and
        # 56 per tag (its rows, links, gains and features, and the first
        # mode's results) and two 64 KiB ufunc buffers; the channel's
        # figures count the nodes on their own.  A trial needs the larger
        # count, and a refusal names the keys of that one.  In Python
        # ints, where a numpy integer count would wrap.
        n, m, k_max, n_sub = map(operator.index, (
            self.n_ues, self.n_tags, self.k_max, self.n_subcarriers))
        size, keys = max(
            (dp_bytes(n, k_max, n_sub) + 192 * n + 56 * m + (1 << 17),
             "n_ues, n_tags, k_max and n_subcarriers"),
            (PAIR_BYTES * n * m + NODE_BYTES * (n + m), "n_ues and n_tags"))
        if size > MEMORY_BUDGET:
            raise ConfigError(f"{keys} would need {size} bytes, over the "
                              f"{MEMORY_BUDGET}-byte memory budget")
        beta = self.channel.reflection_coeff
        peak = direct
        if self.n_tags > 0 and beta > 0.0:
            peak += beta * hop1 * hop2
        if not math.isfinite(peak):
            raise ConfigError(f"channel.carrier_freq and uav_altitude give "
                              f"a peak gain that overflows (direct path "
                              f"{direct:.6g})")
        # EE = data_bits served / (frame_duration (tx + circuit served)),
        # tx >= 0 and 1 <= served <= n_ues, is at most this, in floats too
        try:
            ee = self.data_bits * n / (self.frame_duration
                                       * dbm_to_watts(self.circuit_power))
        except (OverflowError, ZeroDivisionError):
            ee = math.inf
        if not ee < math.inf:
            raise ConfigError("circuit_power overflows in watts, or with "
                              "data_bits and frame_duration gives an EE "
                              "bound that overflows")


# The keys of each field kind, in field order, the order of the checks
FLOAT_FIELDS = tuple(f.name for f in fields(SimConfig) if f.type is float)
INT_FIELDS = tuple(f.name for f in fields(SimConfig) if f.type is int)
