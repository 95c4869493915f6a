"""Tests of the benchmark's oracles against hand values and brute force."""

import itertools
import math

import numpy as np
import pytest

import oracles


def test_fspl_only_path_loss_matches_hand_value():
    # With eta_LoS = eta_NLoS = 0 only free-space loss remains:
    # 20 log10(4 pi 100 m 2 GHz / c) = 78.4684 dB.
    loss = oracles.a2g_path_loss_db((0.0, 0.0, 0.0), (60.0, 80.0, 0.0),
                                    2e9, 9.61, 0.16, 0.0, 0.0)
    assert loss == pytest.approx(78.4684, abs=1e-4)


def test_path_loss_excess_follows_logistic_los_probability():
    # 45 degrees elevation: P_LoS = 1 / (1 + 9.61 exp(-0.16 (45 - 9.61))).
    ue, uav = (0.0, 0.0, 0.0), (100.0, 0.0, 100.0)
    fspl = oracles.a2g_path_loss_db(ue, uav, 2e9, 9.61, 0.16, 0.0, 0.0)
    p_los = 1.0 / (1.0 + 9.61 * math.exp(-0.16 * (45.0 - 9.61)))
    loss = oracles.a2g_path_loss_db(ue, uav, 2e9, 9.61, 0.16, 1.0, 20.0)
    assert loss - fspl == pytest.approx(p_los + 20.0 * (1.0 - p_los),
                                        rel=1e-12)


def test_overhead_link_is_almost_pure_los():
    loss = oracles.a2g_path_loss_db((0.0, 0.0, 0.0), (0.0, 0.0, 100.0),
                                    2e9, 9.61, 0.16, 1.0, 20.0)
    assert loss - 78.4684 == pytest.approx(1.0, abs=1e-3)


def brute_force_wcss(x, k):
    """Minimum WCSS over every assignment of the points to k clusters."""
    best = math.inf
    for labels in itertools.product(range(k), repeat=x.size):
        labels = np.array(labels)
        if np.unique(labels).size != k:
            continue
        wcss = sum(float(((x[labels == c] - x[labels == c].mean()) ** 2)
                         .sum()) for c in range(k))
        best = min(best, wcss)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_dp_wcss_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(-90.0, 8.0, size=int(rng.integers(3, 8)))
    k_max = min(3, x.size)
    dp = oracles.optimal_wcss(x, k_max)
    for k in range(1, k_max + 1):
        assert dp[k - 1] == pytest.approx(brute_force_wcss(x, k),
                                          rel=1e-9, abs=1e-9)


def test_dp_wcss_with_ties_and_one_cluster_per_point():
    x = np.array([1.0, 1.0, 5.0, 5.0, 9.0])
    dp = oracles.optimal_wcss(x, 5)
    assert dp[2] == pytest.approx(0.0, abs=1e-12)
    assert dp[4] == pytest.approx(0.0, abs=1e-12)
    assert dp[0] == pytest.approx(float(((x - x.mean()) ** 2).sum()))


def test_dp_wcss_rejects_too_many_clusters():
    with pytest.raises(ValueError):
        oracles.optimal_wcss([1.0, 2.0], 3)


def test_sic_powers_follow_the_received_power_ladder():
    # Weakest-first, the j-th weakest UE is received at
    # gamma N (1 + gamma)^(j - 1).
    gains = np.array([4e-10, 1e-9, 2e-10, 8e-10])
    gamma, noise = 3.0, 1e-15
    p = oracles.sic_min_powers(gains, gamma, noise)
    weakest_first = np.argsort(gains)
    ladder = gamma * noise * (1.0 + gamma) ** np.arange(gains.size)
    assert p[weakest_first] * gains[weakest_first] == pytest.approx(
        ladder, rel=1e-12)


def test_sic_powers_meet_sinr_target_exactly():
    rng = np.random.default_rng(3)
    gains = 10.0 ** rng.uniform(-11, -8, size=6)
    p = oracles.sic_min_powers(gains, 200.0, 3e-17)
    assert oracles.sic_sinr(p, gains, 3e-17) == pytest.approx(
        np.full(6, 200.0), rel=1e-12)


def test_equal_gains_decode_lower_index_first():
    assert oracles.decode_order([1e-9, 3e-9, 3e-9, 2e-9]) == [1, 2, 3, 0]
    p = oracles.sic_min_powers([2e-9, 2e-9], 1.0, 1e-15)
    # UE 1 is decoded last, so it is interference-free.
    assert p[1] == pytest.approx(1e-15 / 2e-9, rel=1e-12)
    assert p[0] == pytest.approx(2e-15 / 2e-9, rel=1e-12)


def test_energy_efficiency_hand_value():
    # 2 UEs, 60 kbit each, 1 s frame, 1 uW + 3 uW transmit, 3.162 mW
    # circuit each.
    pc = oracles.dbm_to_watts(5.0)
    ee = oracles.energy_efficiency([1e-6, 3e-6], 60_000.0, 1.0, pc)
    assert ee == pytest.approx(120_000.0 / (4e-6 + 2 * pc), rel=1e-12)
    assert oracles.energy_efficiency([], 60_000.0, 1.0, pc) == 0.0


def test_noise_floor_of_one_hertz_is_minus_174_dbm():
    assert oracles.noise_watts(1.0, -174.0) == pytest.approx(
        10.0 ** (-20.4), rel=1e-12)
