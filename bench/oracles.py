"""Independent oracles for the benchmark's output checks.

Each oracle recomputes one quantity from its defining formula, without
importing ambcsim, so a check never compares the program with itself.
"""

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_watts(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_watts(bandwidth_hz, noise_psd_dbm_hz):
    """Thermal noise over a band: N0 [dBm/Hz] + 10 log10(B), in watts."""
    return dbm_to_watts(noise_psd_dbm_hz + 10.0 * math.log10(bandwidth_hz))


def a2g_path_loss_db(ue, uav, carrier_freq, plos_a, plos_b, eta_los,
                     eta_nlos):
    """Mean air-to-ground path loss (dB) of the ue -> uav link.

    FSPL(d) + P_LoS * eta_LoS + (1 - P_LoS) * eta_NLoS, where P_LoS is
    the logistic 1 / (1 + a exp(-b (theta_deg - a))) of the elevation
    angle theta seen from the UE.  ``ue`` and ``uav`` are (x, y, z).
    """
    horizontal = math.hypot(uav[0] - ue[0], uav[1] - ue[1])
    dz = uav[2] - ue[2]
    distance = math.hypot(horizontal, dz)
    theta_deg = math.degrees(math.atan2(dz, horizontal))
    p_los = 1.0 / (1.0 + plos_a * math.exp(-plos_b * (theta_deg - plos_a)))
    fspl = 20.0 * math.log10(4.0 * math.pi * distance * carrier_freq
                             / SPEED_OF_LIGHT)
    return fspl + p_los * eta_los + (1.0 - p_los) * eta_nlos


def optimal_wcss(features, k_max):
    """Globally optimal 1-D k-means WCSS for k = 1..k_max.

    On sorted data optimal clusters are contiguous, so a dynamic program
    over prefix sums is exact: D[k][j] = min_i D[k-1][i] + cost(i, j),
    where cost(i, j) is the squared deviation of x[i:j] from its mean.
    Returns a list whose entry k-1 is the optimum with k clusters.
    """
    x = np.sort(np.asarray(features, dtype=float).ravel())
    n = x.size
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must be in [1, {n}]")
    # Centre first so the prefix-sum difference does not cancel badly.
    x = x - x.mean()
    s1 = np.concatenate(([0.0], np.cumsum(x)))
    s2 = np.concatenate(([0.0], np.cumsum(x * x)))

    def cost(starts, end):  # x[starts:end] for each start
        m = end - starts
        return np.maximum((s2[end] - s2[starts])
                          - (s1[end] - s1[starts]) ** 2 / m, 0.0)

    prev = np.concatenate(
        ([0.0], cost(np.zeros(n, dtype=int), np.arange(1, n + 1))))
    out = [float(prev[n])]
    for k in range(2, k_max + 1):
        cur = np.full(n + 1, np.inf)
        for j in range(k, n + 1):
            starts = np.arange(k - 1, j)
            cur[j] = np.min(prev[starts] + cost(starts, j))
        out.append(float(cur[n]))
        prev = cur
    return out


def decode_order(gains):
    """SIC decode order: strongest gain first, equal gains by index."""
    g = np.asarray(gains, dtype=float)
    return sorted(range(g.size), key=lambda i: (-g[i], i))


def sic_min_powers(gains, gamma, noise):
    """Minimum transmit powers meeting SINR = gamma for every UE under SIC.

    Solves the SINR-equality system (I - gamma F) q = gamma N for the
    received powers q, where F[i, j] = 1 when UE j is decoded after UE i
    (so j still interferes with i), and returns p = q / g.  The system is
    set up in decode order, where it is upper triangular, so the solve
    needs no pivoting and sums only positive terms.
    """
    g = np.asarray(gains, dtype=float)
    n = g.size
    order = decode_order(g)
    later = np.triu(np.ones((n, n)), k=1)
    q = np.linalg.solve(np.eye(n) - gamma * later, np.full(n, gamma * noise))
    p = np.empty(n)
    p[order] = q / g[order]
    return p


def sic_sinr(powers, gains, noise):
    """Per-UE SINR under SIC when all the given UEs transmit."""
    p = np.asarray(powers, dtype=float)
    g = np.asarray(gains, dtype=float)
    sinr = np.zeros(p.size)
    interference = 0.0
    for i in reversed(decode_order(g)):  # weakest is decoded last
        sinr[i] = p[i] * g[i] / (noise + interference)
        interference += p[i] * g[i]
    return sinr


def energy_efficiency(served_powers, data_bits, frame_duration,
                      circuit_power_w):
    """Bits per joule of one frame: D |S| / (T (sum p + P_c |S|))."""
    p = np.asarray(served_powers, dtype=float)
    served = p.size
    if served == 0:
        return 0.0
    energy = frame_duration * (float(p.sum()) + circuit_power_w * served)
    return data_bits * served / energy
