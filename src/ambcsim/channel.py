"""Air-to-ground channel model with passive backscatter assistance.

Mean path loss follows the probabilistic LoS/NLoS urban model

    PL(d, theta) = FSPL(d, f) + P_LoS(theta) * eta_los
                   + (1 - P_LoS(theta)) * eta_nlos

with FSPL(d, f) = 20 log10(4 pi d f / c) and the logistic LoS probability
P_LoS(theta) = 1 / (1 + a exp(-b (theta_deg - a))) (Al-Hourani, Kandeepan
and Jamalipour, IEEE GLOBECOM 2014; Al-Hourani, Kandeepan and Lardner,
"Optimal LAP altitude for maximum coverage", IEEE WCL 3(6), 2014, whose
urban set is the default).  The model is deterministic: it evaluates the
mean path loss, no fading is drawn.

A backscatter tag contributes the cascaded two-hop gain
beta * g(ue -> tag) * g(tag -> uav).  Only the best tag per UE is kept
and its gain is power-summed with the direct path (non-coherent
combining).  A bound in the linear domain, h = (s + z_hi^2) / g2 from
each pair's squared horizontal distance s and the tag's exact hop-2
gain g2, rules out nearly every UE-tag pair.  One 4-term matmul builds h
for the whole UE x tag block; its rounding error is bounded and allowed
for, and the exact cascaded gain is evaluated only on the pairs the
bound keeps, so the matmul's bits never reach a result (see _best_tags).
"""

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# A UE-tag pair whose horizontal distance exceeds z_hi / FAR_TAN, z_hi
# bounding the UE-tag height gaps, is "far": its elevation is at most
# atan(FAR_TAN) (see _best_tags).
FAR_TAN = 0.05
# Relative slack of the best-tag bound test, far above the rounding error
# of the exact path (about 1e-13 relative).
BOUND_SLACK = 1e-9
# gamma_10 = 10 u / (1 - 10 u), u the unit roundoff of float64: the
# relative error bound of a result rounded at most 10 times
_GAMMA_10 = 10 * 2.0 ** -53 / (1.0 - 10 * 2.0 ** -53)
# Largest rounding allowance delta of the best-tag bound (see _best_tags)
DELTA_MAX = 1e-6


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending key."""


def check_finite_reals(obj, keys):
    """Refuse the first of obj's keys whose value is not a finite real
    number; a bool is not one."""
    for key in keys:
        value = getattr(obj, key)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")


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
        check_finite_reals(self, CHANNEL_FIELDS)
        if self.carrier_freq <= 0:
            raise ConfigError("carrier_freq must be > 0")
        if self.plos_a < 0:
            # keeps the LoS probability 1 / (1 + a exp(...)) in (0, 1]
            raise ConfigError("plos_a must be >= 0")
        if not abs(self.plos_b) * (90.0 + self.plos_a) < math.inf:
            # the LoS exponent b (a - theta), theta in [-90, 90] deg
            raise ConfigError("plos_b times (90 + plos_a) overflows")
        if not 0.0 <= self.reflection_coeff <= 1.0:
            raise ConfigError("reflection_coeff must be in [0, 1]")
        if not self.eta_nlos >= self.eta_los >= 0.0:
            raise ConfigError("require eta_nlos >= eta_los >= 0")

    @functools.cached_property
    def far_ratio(self) -> float:
        """Bound on how far a far pair's gain can exceed its lower bound
        1 / h, h = (s + z_hi^2) / g2, relative to any pair's (see
        _best_tags)."""
        p0, p_far, p90 = _los_probability(
            np.array([0.0, math.degrees(math.atan(FAR_TAN)), 90.0]), self)
        # largest LoS factor of a far pair over the smallest of any pair
        los = 10.0 ** ((self.eta_nlos - self.eta_los)
                       * (max(p0, p_far) - min(p0, p90)) / 10.0)
        return los * (1.0 + FAR_TAN * FAR_TAN)


# Every ChannelParams field is a float
CHANNEL_FIELDS = tuple(f.name for f in fields(ChannelParams))


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
    if np.count_nonzero(d <= 0.0):
        raise ValueError("distance must be > 0")
    p_los = _los_probability(np.degrees(np.asarray(angle, dtype=float)),
                             params)
    fspl = 20.0 * np.log10(4.0 * np.pi * d * params.carrier_freq / SPEED_OF_LIGHT)
    return fspl + p_los * params.eta_los + (1.0 - p_los) * params.eta_nlos


def _los_probability(theta_deg, params: ChannelParams):
    """Logistic LoS probability at elevation theta_deg in [-90, 90] deg."""
    a, b = params.plos_a, params.plos_b
    if a == 0.0:
        # a exp(...) would be 0 * inf = nan where exp overflows
        return np.ones_like(theta_deg)
    # a exp(b (a - theta)) overflows, meaning P_LoS = 0, only where
    # log(a) + b (a - theta) passes about 709; errstate (about 2 us a
    # call) is entered only if that can happen
    exponent = -b * (theta_deg - a)
    if math.log(a) + a * b + 90.0 * abs(b) > 700.0:
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + a * np.exp(exponent))
    return 1.0 / (1.0 + a * np.exp(exponent))


def noise_power(bandwidth: float, noise_psd: float) -> float:
    """Thermal noise floor in watts over the given bandwidth (Hz)."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    return 10.0 ** ((noise_psd + 10.0 * math.log10(bandwidth) - 30.0) / 10.0)


def _link_gain(d, params: ChannelParams):
    """Linear gain of links with (3, P) coordinate offsets d: x, y, z."""
    dx, dy, dz = d
    horiz = np.hypot(dx, dy)
    loss = a2g_path_loss(np.hypot(horiz, dz), np.arctan2(dz, horiz), params)
    return 10.0 ** (loss / -10.0)


class Deployment:
    """The nodes of one trial as one read-only (3, n_ues + n_tags + 1)
    block xyz of coordinate rows x, y and z: the UEs, then the tags, then
    the UAV.  It keeps a copy of the given rows, refused unless every
    coordinate is finite and every height z >= 0, the non-finite first.

    One link pass serves both modes of a trial: uav_links computes every
    node's link to the UAV once per ChannelParams and caches it here,
    which the read-only copy keeps true to the positions.  ue_positions,
    tag_positions and uav_position are read-only x, y, z records of the
    rows, built when first read, for the benchmark's checks.
    """

    def __init__(self, xyz, n_ues):
        xyz = np.array(xyz, dtype=float)
        if not np.isfinite(xyz).all():
            raise ValueError("position coordinates must be finite")
        if (xyz[2] < 0).any():
            raise ValueError("height z must be >= 0")
        xyz.flags.writeable = False
        self.xyz, self.n_ues, self._links = xyz, n_ues, None

    ue_positions = functools.cached_property(
        lambda self: _view(self.xyz[:, :self.n_ues]))
    tag_positions = functools.cached_property(
        lambda self: _view(self.xyz[:, self.n_ues:-1]))
    uav_position = functools.cached_property(
        lambda self: _view(self.xyz[:, -1:])[0])

    def uav_links(self, params: ChannelParams):
        """(xyz, g): the coordinate rows x, y, z of the UEs, then of the
        tags if beta > 0, and the linear gain of each one's link to the
        UAV, computed once per params."""
        links = self._links
        if links is None or links[0] != params:
            n = self.n_ues
            xyz = self.xyz[:, :-1 if params.reflection_coeff > 0.0 else n]
            # the UEs' direct paths and the tags' hop 2 in one pass
            d = self.xyz[:, -1:] - xyz
            np.abs(d[2, n:], out=d[2, n:])
            g = _link_gain(d, params)
            g.flags.writeable = False
            links = self._links = (params, xyz, g)
        return links[1:]


def _view(rows):
    """Read-only x, y, z records of a copy of the coordinate rows, in a
    third of the time that np.rec.fromarrays takes."""
    records = np.dtype((np.record, [(c, float) for c in "xyz"]))
    view = rows.T.copy().view(records)[:, 0]
    view.flags.writeable = False
    return view


def effective_gains(deployment, params: ChannelParams,
                    ambc_enabled: bool = True) -> ChannelState:
    """Per-UE direct, backscatter, and combined gains for one deployment.

    The backscatter term is the best-tag cascaded gain; tag-index ties
    break toward the lowest index.  With backscatter disabled (or no
    tags, or beta = 0) the effective gain is the read-only direct-gain
    array itself.

    The exact cascaded gain is evaluated only on the UE-tag pairs that a
    bound cannot rule out (see _best_tags); all other pairs count as 0
    and the argmax is taken.  The result is bit-identical to the argmax
    of the exact gains over the whole block; a UE whose gains all
    underflow picks tag 0.

    Both modes read the direct gains from the deployment's one link pass
    (see Deployment.uav_links), which with beta > 0 also covers the tags,
    so a tag at the UAV is refused in either mode.
    """
    n = deployment.n_ues
    if n == 0:
        raise ValueError("deployment must contain at least one UE")
    xyz, g = deployment.uav_links(params)
    direct = g[:n]
    if ambc_enabled and g.size > n:
        best, backscatter = _best_tags(xyz, g[n:], params)
        return ChannelState(direct, backscatter, direct + backscatter, best)
    # every gain is >= 0, so direct + 0 would give the same bits
    return ChannelState(direct, np.zeros(n), direct, np.full(n, -1))


# Most bytes a trial holds in a triad channel call where numpy reuses no
# temporary: per UE-tag pair, 9 in the bound (entry, keep mask) and up to
# 104 in the exact pass (flat and j 16, offsets 24, horizontal distance,
# distance, elevation 24, five path-loss temporaries 40); per node, its
# rows (24) and 88 of those kinds in the link pass, 16 spare.
PAIR_BYTES, NODE_BYTES = 113, 128


def _best_tags(xyz, g2, params: ChannelParams):
    """(best tag index, its cascaded gain) of every UE, given the
    coordinate rows xyz of the UEs then the tags and the exact hop-2 gain
    g2 of every tag.

    A pair's cascaded gain is beta g2 (c / 4 pi f)^2 / d^2 times the LoS
    factor 10^-((eta_nlos + (eta_los - eta_nlos) P_LoS) / 10).  Let s be
    the squared horizontal distance and z_hi a bound on the UE-tag height
    gaps, so d^2 lies in [s, s + z_hi^2].  P_LoS is monotone in the
    elevation, which lies in [0, 90 deg], and in [0, atan(FAR_TAN)] for
    a far pair, one with s > R^2, R = z_hi / FAR_TAN; a far pair also has
    s + z_hi^2 < (1 + FAR_TAN^2) s.  So, up to a factor common to all
    pairs, every pair's gain is at least 1 / h, h = (s + z_hi^2) / g2,
    and a far pair's at most params.far_ratio / h.  A far pair whose h
    exceeds far_ratio times its UE's least h, by more than BOUND_SLACK
    for the rounding of the exact path, cannot win; every other pair gets
    the exact formula.

    One (n, 4) @ (4, m) matmul gives k = -h / 2 of every pair, as the dot
    product of the UE row [u_x, u_y, -1/2, |u|^2] and the tag row
    [t_x, t_y, |t|^2 + z_hi^2, -1/2] / g2.  Each of its four terms is
    rounded at most 7 times, in the entries, the product and the sums in
    any order, so the computed k is within gamma_7 times the terms'
    magnitudes, ((|u| + |t|)^2 + z_hi^2) / 2 g2, of k (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1).  With rho^2 = max x^2 +
    max y^2 over the block and |k| >= z_hi^2 / 2 g2, that is a relative
    error of at most delta = gamma_10 (4 rho^2 + z_hi^2) / z_hi^2, the
    spare roundings covering delta's own.  So a pair is kept if its
    computed k is at least -(R^2 + z_hi^2) / 2 g2 (1 + BOUND_SLACK)
    (1 + delta), which every near pair meets, or at least far_ratio
    (1 + BOUND_SLACK)(1 + delta) / (1 - delta) times its UE's largest
    computed k.  z_hi^2 is the largest height gap squared, floored at
    4 rho^2 gamma_10 / (DELTA_MAX - gamma_10), so delta <= DELTA_MAX
    however wide the cell.  Where an entry or sum of the matmul could
    overflow (x^2 overflowing, a hop-2 gain of 0 or one whose reciprocal
    overflows), or z_hi = 0 (every UE and tag at one point), every pair
    gets the exact formula.

    This holds wherever the winning exact gain is 0 or above about
    5e-315, below which subnormal rounding could make a ruled-out pair
    tie the winner, and wherever no product in the matmul underflows,
    which takes a nonzero coordinate below about 1e-154 m or a hop-2 gain
    above about 1e150.
    """
    m = g2.size
    n = xyz.shape[1] - m
    (x_hi, y_hi, z_hi), (x_lo, y_lo, z_lo) = (
        np.maximum.reduce(xyz, axis=1).tolist(),
        np.minimum.reduce(xyz, axis=1).tolist())
    x_abs, y_abs = max(x_hi, -x_lo), max(y_hi, -y_lo)
    rho2 = x_abs * x_abs + y_abs * y_abs
    z2 = max((z_hi - z_lo) * (z_hi - z_lo),
             4.0 * rho2 * _GAMMA_10 / (DELTA_MAX - _GAMMA_10))
    # bounds (|u| + |t|)^2 + z_hi^2, and 1 + |every entry| of the matmul
    big = 4.0 * rho2 + z2
    g_lo = float(np.minimum.reduce(g2))
    delta = _GAMMA_10 * big / z2 if z2 > 0.0 else math.inf
    if delta < 1.0 and g_lo > 0.0 and 2.0 * (big + 1.0) / g_lo < math.inf:
        # k = -h / 2: the UE rows x, y, -1/2, |u|^2 by the tag rows
        # x, y, |t|^2 + z_hi^2, -1/2 over g2
        w = np.empty((4, n + m))
        w[:2] = xyz[:2]
        np.multiply(w[:2], w[:2], out=w[2:])
        np.add(w[2], w[3], out=w[3])
        w[2, :n] = -0.5
        np.add(w[3, n:], z2, out=w[2, n:])
        w[3, n:] = -0.5
        t = w[:, n:]
        t /= g2
        k = w[:, :n].T @ t
        tol = (1.0 + BOUND_SLACK) * (1.0 + delta)
        keep = k >= t[3] * (z2 * (1.0 + FAR_TAN ** -2) * tol)
        far = np.maximum.reduce(k, axis=1)
        far *= params.far_ratio * tol / (1.0 - delta)
        keep |= k >= far[:, None]
    else:
        k = np.empty((n, m))
        keep = np.ones((n, m), dtype=bool)
    # flat indices beat 2-d ones (nonzero by ~10x on large blocks)
    flat = keep.ravel().nonzero()[0]
    j = flat % m
    # no row index but j stays live through _link_gain, the pass's peak
    d = xyz.take(flat // m, axis=1) - xyz.take(j + n, axis=1)
    np.abs(d[2], out=d[2])
    g1 = _link_gain(d, params)
    cascaded = k
    cascaded.fill(0.0)
    cascaded.put(flat, params.reflection_coeff * g1 * g2.take(j))
    best = cascaded.argmax(axis=1)  # ties -> lowest index
    return best, cascaded.take(best + np.arange(0, n * m, m))
