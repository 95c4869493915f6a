"""Scenario configuration with case-study defaults."""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import ChannelParams, a2g_path_loss

UE_HEIGHT = 1.5   # m, handset
TAG_HEIGHT = 1.0  # m


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending key."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
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
    ambc_enabled: bool = True
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self):
        # Also runs on dataclasses.replace, so every sweep point is checked.
        self.validate()

    def validate(self):
        for key in (f.name for f in fields(self) if f.type is float):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        positive = ["coverage_radius", "bandwidth", "p_max", "data_bits",
                    "frame_duration"]
        for key in positive:
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0")
        if not self.uav_altitude > max(UE_HEIGHT, TAG_HEIGHT):
            raise ConfigError(f"uav_altitude must be above the UE and tag "
                              f"heights ({UE_HEIGHT} m, {TAG_HEIGHT} m)")
        # Worst direct loss of any UE: the farthest one is at the cell edge,
        # and P_LoS is monotone in the elevation, which lies between the
        # edge's and 90 deg, so the larger loss of those two angles bounds
        # every UE's.  Where its gain underflows, a UE's gain may be 0.
        # An FSPL that overflows is an infinite loss.
        height = self.uav_altitude - UE_HEIGHT
        edge = math.hypot(self.coverage_radius, height)
        with np.errstate(over="ignore"):
            loss = float(a2g_path_loss(
                np.array([edge, edge]),
                np.array([math.atan2(height, self.coverage_radius),
                          math.pi / 2.0]), self.channel).max())
        if loss > 0.0 and 10.0 ** (-loss / 10.0) == 0.0:
            raise ConfigError(f"coverage_radius, uav_altitude and "
                              f"channel.carrier_freq give a cell-edge path "
                              f"loss of {loss:.6g} dB, whose linear gain "
                              f"underflows to 0")
        for key in (f.name for f in fields(self) if f.type is int):
            value = getattr(self, key)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ["n_subcarriers", "n_ues", "k_max", "n_trials"]:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be an integer >= 1")
        if self.n_tags < 0:
            raise ConfigError("n_tags must be an integer >= 0")
        return self

    def to_dict(self):
        return asdict(self)
