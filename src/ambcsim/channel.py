"""Air-to-ground channel model with passive backscatter assistance.

Mean path loss follows the probabilistic LoS/NLoS urban model

    PL(d, theta) = FSPL(d, f) + P_LoS(theta) * eta_los
                   + (1 - P_LoS(theta)) * eta_nlos

with FSPL(d, f) = 20 log10(4 pi d f / c) and the logistic LoS probability
P_LoS(theta) = 1 / (1 + a exp(-b (theta_deg - a))).  The model is
deterministic: it evaluates the mean path loss, no fading is drawn.

A backscatter tag contributes the cascaded two-hop gain
beta * g(ue -> tag) * g(tag -> uav).  Only the best tag per UE is kept
and its gain is power-summed with the direct path (non-coherent
combining).  The best tag is picked by a dB screen of every UE-tag pair;
the exact cascaded gain is evaluated only on the screen's winners (see
effective_gains).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# Window, in dB above each UE's best screen score, of the tags that
# effective_gains re-checks with the exact formula.
SCREEN_TOL_DB = 1e-6

# Points in cell coordinates; z is height above ground in meters.  The
# element type is np.record, so one point reads as p.x, p.y, p.z, and a
# whole column as a["x"].
XYZ = np.dtype((np.record, [("x", float), ("y", float), ("z", float)]))


def positions(x, y, z):
    """XYZ record array of the points (x, y, z), broadcast together.

    Every coordinate must be finite and every height z >= 0.
    """
    out = np.empty(np.broadcast(x, y, z).shape, dtype=XYZ)
    out["x"], out["y"], out["z"] = x, y, z
    if not all(np.isfinite(out[f]).all() for f in "xyz"):
        raise ValueError("position coordinates must be finite")
    if np.any(out["z"] < 0):
        raise ValueError("height z must be >= 0")
    return out


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants (urban defaults, all overridable)."""

    carrier_freq: float = 2e9      # Hz
    plos_a: float = 9.61           # LoS-probability logistic constants
    plos_b: float = 0.16
    eta_los: float = 1.0           # excess loss under LoS, dB
    eta_nlos: float = 20.0         # excess loss under NLoS, dB
    noise_psd: float = -174.0      # dBm/Hz
    reflection_coeff: float = 0.5  # tag power reflection fraction beta

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be > 0")
        if self.plos_a < 0:
            # keeps the LoS probability 1 / (1 + a exp(...)) in (0, 1]
            raise ValueError("plos_a must be >= 0")
        if not 0.0 <= self.reflection_coeff <= 1.0:
            raise ValueError("reflection_coeff must be in [0, 1]")
        if not self.eta_nlos >= self.eta_los >= 0.0:
            raise ValueError("require eta_nlos >= eta_los >= 0")


@dataclass
class ChannelState:
    """Per-UE linear power gains to the UAV for one deployment;
    best_tag_index is -1 where no tag is used."""

    direct_gain: np.ndarray
    backscatter_gain: np.ndarray
    effective_gain: np.ndarray
    best_tag_index: np.ndarray


def linear_to_db(lin):
    return 10.0 * np.log10(np.asarray(lin, dtype=float))


def a2g_path_loss(distance, angle, params: ChannelParams):
    """Mean air-to-ground path loss in dB; accepts scalars or arrays."""
    d = np.asarray(distance, dtype=float)
    if (d <= 0.0).any():
        raise ValueError("distance must be > 0")
    theta_deg = np.degrees(np.asarray(angle, dtype=float))
    a, b = params.plos_a, params.plos_b
    p_los = 1.0 / (1.0 + a * np.exp(-b * (theta_deg - a)))
    fspl = 20.0 * np.log10(4.0 * np.pi * d * params.carrier_freq / SPEED_OF_LIGHT)
    loss = fspl + p_los * params.eta_los + (1.0 - p_los) * params.eta_nlos
    return float(loss) if np.isscalar(distance) else loss


def noise_power(bandwidth: float, noise_psd: float) -> float:
    """Thermal noise floor in watts over the given bandwidth (Hz)."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    return 10.0 ** ((noise_psd + 10.0 * math.log10(bandwidth) - 30.0) / 10.0)


def _link_loss(dx, dy, dz, params: ChannelParams):
    """a2g_path_loss of links with coordinate offsets (dx, dy, dz)."""
    horiz = np.hypot(dx, dy)
    return a2g_path_loss(np.hypot(horiz, dz), np.arctan2(dz, horiz), params)


def effective_gains(deployment, params: ChannelParams,
                    ambc_enabled: bool = True) -> ChannelState:
    """Per-UE direct, backscatter, and combined gains for one deployment.

    The backscatter term is the best-tag cascaded gain; tag-index ties
    break toward the lowest index.  With backscatter disabled (or no
    tags, or beta = 0) the effective gain reduces to the direct gain.

    A screen scores every UE-tag pair in dB: each hop scores
    10 log10(d^2) + (eta_los - eta_nlos) P_LoS(theta), its path loss
    less a constant, and the pair scores the sum of its two hops.  The
    exact cascaded gain is then evaluated only on the pairs within
    SCREEN_TOL_DB of their UE's best score, all other pairs count as 0,
    and the argmax is taken.  The screen's rounding error (under 2e-13 dB
    on sampled deployments) is far inside that window, so the result is
    bit-identical to the argmax of the exact gains over the whole block;
    a UE whose gains all underflow picks tag 0.
    """
    ues = deployment.ue_positions
    if ues.size == 0:
        raise ValueError("deployment must contain at least one UE")
    ax, ay, az = deployment.uav_position.item()
    direct = 10.0 ** (-_link_loss(ax - ues["x"], ay - ues["y"],
                                  az - ues["z"], params) / 10.0)

    n = ues.size
    backscatter = np.zeros(n)
    best = np.full(n, -1)

    tags = deployment.tag_positions
    if ambc_enabled and tags.size and params.reflection_coeff > 0.0:
        # contiguous coordinate rows x, y, z: the UEs then the UAV, the tags
        u = np.empty((3, n + 1))
        u[:, :n] = ues["x"], ues["y"], ues["z"]
        u[:, n] = ax, ay, az
        t = np.array([tags["x"], tags["y"], tags["z"]])
        a, b = params.plos_a, params.plos_b
        # screen, in place over (3, n_ue + 1, n_tag); a squared distance
        # past the float range scores inf, a point on a tag -inf (then
        # rejected by the exact re-check)
        with np.errstate(over="ignore", divide="ignore"):
            sq = u[:, :, None] - t[:, None, :]
            sq *= sq
            h, score, dz = sq                 # dx^2, dy^2, dz^2 to start
            h += score                        # horizontal^2
            np.add(h, dz, out=score)          # d^2
            np.sqrt(sq[::2], out=sq[::2])     # horizontal, |dz|
            # h becomes (eta_los - eta_nlos) P_LoS(theta)
            np.arctan2(dz, h, out=h)
            h *= -b * 180.0 / np.pi
            h += a * b
            np.exp(h, out=h)
            h *= a
            h += 1.0
            np.divide(params.eta_los - params.eta_nlos, h, out=h)
            np.log10(score, out=score)
            score *= 10.0
            score += h
            score = score[:n] + score[n]      # hop 1 + hop 2 (UAV row)
        i, j = (score <= score.min(axis=1, keepdims=True)
                + SCREEN_TOL_DB).nonzero()
        # exact gains of both hops of every candidate, hop 2 from the UAV
        k = i.size
        dx, dy, dz = (u[:, np.concatenate((i, np.full(k, n)))]
                      - t[:, np.concatenate((j, j))])
        g = 10.0 ** (-_link_loss(dx, dy, np.abs(dz), params) / 10.0)
        cascaded = np.zeros((n, tags.size))
        cascaded[i, j] = params.reflection_coeff * g[:k] * g[k:]
        best = cascaded.argmax(axis=1)  # ties -> lowest index
        backscatter = cascaded[np.arange(n), best]

    effective = direct + backscatter
    return ChannelState(direct, backscatter, effective, best)
