import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambcsim.power import (InfeasibleDemandError, compute_ee,
                           iterative_power_allocation, sinr_gamma)
from sic_reference import (achieved_rates, closed_form_cluster_powers,
                           gather_and_divide, max_admission, min_power_single,
                           sic_order)


def random_feasible_cluster(rng, max_size=6):
    """Gains, SINR target and noise for which all closed-form powers stay
    under 0.2 W."""
    while True:
        n = int(rng.integers(1, max_size + 1))
        gains = 10.0 ** rng.uniform(-10.5, -8.0, size=n)
        bw = float(rng.uniform(5e4, 5e5))
        rate = float(rng.uniform(5e3, 6e4))
        noise = 10.0 ** ((-174.0 + 10 * math.log10(bw) - 30) / 10.0)
        gamma = sinr_gamma(rate, bw)
        powers = closed_form_cluster_powers(gains, np.full(n, gamma), noise)
        if np.all(powers <= 0.2):
            return gains, gamma, noise, powers


class TestSinrGamma:
    def test_one_bit_per_hz(self):
        assert sinr_gamma(1e6, 1e6) == pytest.approx(1.0)

    def test_zero_demand(self):
        assert sinr_gamma(0.0, 1e6) == 0.0

    def test_subcarrier_operating_point(self):
        assert sinr_gamma(60_000.0, 7812.5) == pytest.approx(204.2, rel=1e-3)

    def test_overflow_guard(self):
        with pytest.raises(InfeasibleDemandError):
            sinr_gamma(61.0, 1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError,
                           match="^cluster_bandwidth must be > 0$"):
            sinr_gamma(1e6, 0.0)


class TestMinPowerSingle:
    def test_zero_demand(self):
        assert min_power_single(0.0, 1e-15, 1e-10) == 0.0

    def test_operating_point(self):
        p = min_power_single(204.2, 3.11e-17, 1.426e-8)
        assert p == pytest.approx(4.454e-7, rel=0.01)

    def test_hand_arithmetic(self):
        assert min_power_single(1.0, 1e-15, 1e-10) == pytest.approx(1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_power_single(1.0, 1e-15, 0.0)


class TestClosedFormClusterPowers:
    def test_single_ue_base_case(self):
        p = closed_form_cluster_powers([1e-9], [2.0], 1e-15)
        assert p[0] == pytest.approx(min_power_single(2.0, 1e-15, 1e-9))

    def test_two_ue_recursion(self):
        g1, g2, gamma, noise = 2e-9, 5e-10, 3.0, 1e-15
        p = closed_form_cluster_powers([g1, g2], [gamma, gamma], noise)
        assert p[1] == pytest.approx(gamma * noise / g2, rel=1e-12)
        assert p[0] == pytest.approx(gamma * noise * (1 + gamma) / g1,
                                     rel=1e-12)

    def test_zero_demand_cluster(self):
        p = closed_form_cluster_powers([1e-9, 2e-9, 3e-9], [0, 0, 0], 1e-15)
        assert np.all(p == 0.0)


class TestSicOrder:
    def test_strongest_first_ties_by_index(self):
        assert sic_order([1e-9, 3e-9, 3e-9, 2e-9]) == [1, 2, 3, 0]


class TestIterativePowerAllocation:
    def test_single_ue_served_at_closed_form(self):
        gamma, gain = sinr_gamma(10_000.0, 1e5), 1e-9
        noise = 10.0 ** ((-174.0 + 50 - 30) / 10.0)
        sol = iterative_power_allocation([gain], gamma, noise, 0.2)
        assert not sol.outage[0]
        assert sol.power[0] == pytest.approx(gamma * noise / gain, abs=1e-15)

    def test_single_infeasible_ue_in_outage(self):
        sol = iterative_power_allocation([1e-16], sinr_gamma(60_000.0, 1e5),
                                         3.98e-16, 0.2)
        assert sol.outage[0]
        assert sol.power[0] == 0.0

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            gains, gamma, noise, expected = random_feasible_cluster(rng)
            sol = iterative_power_allocation(gains, gamma, noise, 0.2)
            assert not sol.outage.any()
            np.testing.assert_allclose(sol.power, expected, atol=1e-9)

    def test_rate_satisfaction_and_feasibility(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            gains = 10.0 ** rng.uniform(-12.0, -8.0, size=n)
            rate = float(rng.uniform(1e4, 1.5e5))
            bw = float(rng.uniform(2e4, 5e5))
            noise = 10.0 ** ((-174.0 + 10 * math.log10(bw) - 30) / 10.0)
            sol = iterative_power_allocation(gains, sinr_gamma(rate, bw),
                                             noise, 0.2)
            served = ~sol.outage
            rates = achieved_rates(sol.power, gains, bw, noise)
            assert np.all(sol.power[served] <= 0.2 + 1e-15)
            assert np.all(sol.power[sol.outage] == 0.0)
            assert np.all(rates[served] >= rate * (1 - 1e-6))

    def test_gain_scaling_reduces_power(self):
        rng = np.random.default_rng(63)
        gains, gamma, noise, _ = random_feasible_cluster(rng)
        lo = iterative_power_allocation(gains, gamma, noise, 0.2)
        hi = iterative_power_allocation(gains * 2.0, gamma, noise, 0.2)
        assert not lo.outage.any() and not hi.outage.any()
        assert np.all(hi.power <= lo.power)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            iterative_power_allocation([], 0.1, 1e-15, 0.2)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="^p_max must be > 0$"):
            iterative_power_allocation([1e-10], 0.1, 1e-15, 0.0)


def reference_admission(gains, gamma, noise, p_max):
    """The drop loop, a heuristic comparator: weakest-first SIC recursion
    over the served UEs; while the largest power exceeds p_max, drop it
    (the lowest index on ties) and re-solve.  Returns (powers, outage)."""
    served = [True] * len(gains)
    while True:
        p = [0.0] * len(gains)
        interference = 0.0
        for i in reversed(sic_order(gains)):
            if served[i]:
                p[i] = gamma * (noise + interference) / gains[i]
                interference += p[i] * gains[i]
        candidates = [i for i in range(len(gains)) if served[i]]
        if not candidates:
            break
        worst = max(candidates, key=lambda i: (p[i], -i))
        if p[worst] <= p_max:
            break
        served[worst] = False
    return np.array(p), ~np.array(served)


class TestAdmissionAgainstReference:
    BW = 1e5
    NOISE = 10.0 ** ((-174.0 + 50.0 - 30.0) / 10.0)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(exponents=st.lists(st.one_of(st.sampled_from([-11.0, -10.0,
                                                         -9.5]),
                                        st.floats(-12.0, -8.0)),
                              min_size=1, max_size=8),
           spectral_eff=st.floats(0.05, 8.0),
           data=st.data())
    def test_serves_the_most_ues(self, exponents, spectral_eff, data):
        gains = [10.0 ** e for e in exponents]
        gamma = sinr_gamma(spectral_eff * self.BW, self.BW)
        # Every power any served set can need is gamma N (1 + gamma)^r / g
        # for some rank r and gain g.  p_max sits between two such values,
        # or below or above all of them, so no power ties with p_max and
        # every outcome from all dropped to all served is reachable.
        levels = np.unique([gamma * self.NOISE * (1.0 + gamma) ** r / g
                            for r in range(len(gains)) for g in gains])
        j = data.draw(st.integers(0, levels.size))
        if j == 0:
            p_max = levels[0] / 2.0
        elif j == levels.size:
            p_max = levels[-1] * 2.0
        else:
            assume(levels[j] > levels[j - 1] * (1.0 + 1e-9))
            p_max = math.sqrt(levels[j - 1] * levels[j])

        sol = iterative_power_allocation(gains, gamma, self.NOISE, p_max)
        power, outage = max_admission(gains, gamma, self.NOISE, p_max)
        np.testing.assert_array_equal(sol.outage, outage)
        np.testing.assert_allclose(sol.power, power, rtol=1e-12, atol=0.0)
        assert np.all(sol.power[~sol.outage] <= p_max)
        assert sol.iterations == 1
        _, dropped = reference_admission(gains, gamma, self.NOISE, p_max)
        assert (~sol.outage).sum() >= (~dropped).sum()

    @pytest.mark.parametrize("gains, outage", [
        ([1e-10, 2e-10], [True, False]),
        ([2e-10, 1e-10], [False, True]),
    ])
    def test_power_tie_serves_one_ue(self, gains, outage):
        # gamma = 1 and one gain twice the other: the weaker UE alone at
        # rank 0 and the stronger at rank 1 need the same power N / g_weak,
        # over p_max = 0.75 N / g_weak.  The weaker UE fits at no rank;
        # the stronger fits alone (N / (2 g_weak)).  In the second case
        # reference_admission drops index 0 on the tie and serves no UE.
        p_max = 0.75 * self.NOISE / 1e-10
        sol = iterative_power_allocation(gains, 1.0, self.NOISE, p_max)
        assert sol.outage.tolist() == outage
        assert sol.iterations == 1

    @pytest.mark.parametrize("gains, p_max_in_n_over_g, outage", [
        # Either UE fits alone (N / g_weak, 0.67 N / g_weak) but the
        # stronger one above the weaker needs 1.33 N / g_weak.
        ([1.5e-10, 1e-10], 1.2, [True, False]),
        # Equal gains need N / g, 2 N / g and 4 N / g at ranks 0, 1, 2.
        ([1e-10] * 3, 3.0, [True, False, False]),
    ])
    def test_ties_among_largest_sets_go_to_the_weaker_ue(
            self, gains, p_max_in_n_over_g, outage):
        # gamma = 1; the weaker UE, and among equal gains the higher index.
        p_max = p_max_in_n_over_g * self.NOISE / 1e-10
        sol = iterative_power_allocation(gains, 1.0, self.NOISE, p_max)
        assert sol.outage.tolist() == outage
        power, oracle_outage = max_admission(gains, 1.0, self.NOISE, p_max)
        assert oracle_outage.tolist() == outage
        np.testing.assert_allclose(sol.power, power, rtol=1e-12, atol=0.0)

    def test_overflowing_power_is_dropped_silently(self):
        gamma = sinr_gamma(59.0 * self.BW, self.BW)  # 2^59 - 1
        gains = [1e-12] * 40                 # (1 + gamma)^39 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = iterative_power_allocation(gains, gamma, self.NOISE, 0.2)
        assert sol.outage.all()
        assert np.all(sol.power == 0.0)
        assert sol.iterations == 1


class TestScanAgainstGatherAndDivide:
    """The scan keeps the quotients it tests as the powers; they must be
    the bits that gathering and dividing again in numpy gives."""

    BW = 1e5
    NOISE = 10.0 ** ((-174.0 + 50.0 - 30.0) / 10.0)

    def assert_same(self, gains, data_bits, p_max):
        gamma = sinr_gamma(data_bits, self.BW)
        sol = iterative_power_allocation(gains, gamma, self.NOISE, p_max)
        power, outage = gather_and_divide(gains, gamma, self.NOISE, p_max)
        assert sol.power.dtype == power.dtype
        assert sol.outage.dtype == outage.dtype
        assert np.array_equal(sol.power, power)
        assert np.array_equal(sol.outage, outage)
        return sol

    def test_random_clusters(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            gains = 10.0 ** rng.uniform(-13.0, -7.0, size=n)
            if rng.random() < 0.3:  # equal gains: the index tie rule
                gains[rng.integers(0, n, size=n // 2)] = gains[0]
            self.assert_same(gains, float(rng.uniform(1e3, 1e6)),
                             float(10.0 ** rng.uniform(-9.0, 0.0)))

    def test_no_ue_admitted(self):
        sol = self.assert_same([1e-10, 2e-10, 3e-10], 6e4, 1e-300)
        assert sol.outage.all()

    def test_every_ue_admitted(self):
        sol = self.assert_same([1e-8] * 5 + [2e-8], 1e4, 1e3)
        assert not sol.outage.any()

    def test_rungs_overflow_to_inf(self):
        # gamma = 2^59 - 1, so (1 + gamma)^r overflows from r = 18 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = self.assert_same([1e-12] * 40, 59.0 * self.BW, 1e300)
        assert 0 < (~sol.outage).sum() < 40


class TestLadderOverflowGate:
    """iterative_power_allocation enters errstate only where
    (n - 1) log2(1 + gamma) + max(log2(gamma noise), 0) passes 1023.
    With gamma = 1 every rung is noise 2^r exactly, so that sum sits
    either side of the bound as the cluster grows by one UE."""

    @pytest.mark.parametrize("n, noise, served", [
        (1024, 1.0, 901),          # sum 1023: 2^1023 is finite
        (1024, 0.5, 902),          # sum 1023: 2^1023 / 2
        (1025, 1.0, 901),          # sum 1024: 2^1024 overflows the power
        (1024, 2.0, 900),          # sum 1024: 2 * 2^1023 overflows
        (1025, 2.0 ** -60, 961),   # the power overflows, gamma noise < 1
    ])
    @pytest.mark.filterwarnings("error")
    def test_no_warning_either_side_of_the_bound(self, n, noise, served):
        sol = iterative_power_allocation(np.ones(n), 1.0, noise, 2.0 ** 900)
        assert np.count_nonzero(~sol.outage) == served
        rungs = noise * 2.0 ** np.arange(served)
        np.testing.assert_array_equal(np.sort(sol.power[~sol.outage]), rungs)
        assert np.all(sol.power[sol.outage] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_finite_rung_past_an_overflowing_power_served(self):
        # (1 + gamma)^1024 = 2^1024 overflows, but rank 1024's rung,
        # 2^-60 2^1024 = 2^964, fits p_max
        sol = iterative_power_allocation(np.ones(1025), 1.0, 2.0 ** -60,
                                         2.0 ** 1000)
        assert not sol.outage.any()
        np.testing.assert_array_equal(np.sort(sol.power),
                                      np.ldexp(2.0 ** -60, np.arange(1025)))

    @pytest.mark.parametrize("gamma, noise", [(1.0, 0.0), (0.0, 1e-15)])
    @pytest.mark.filterwarnings("error")
    def test_zero_gamma_times_noise(self, gamma, noise):
        sol = iterative_power_allocation([1e-9, 2e-9, 3e-9], gamma, noise,
                                         0.2)
        assert not sol.outage.any()
        assert np.all(sol.power == 0.0)


class TestComputeEe:
    def _solution(self, powers, outage=None):
        powers = np.asarray(powers, dtype=float)
        outage = (np.zeros(powers.size, dtype=bool) if outage is None
                  else np.asarray(outage, dtype=bool))
        return type("FakeSolution", (),
                    {"power": np.where(outage, 0.0, powers),
                     "outage": outage})()

    def test_single_served_ue(self):
        sol = self._solution([0.01 - 3.162e-3])
        ee = compute_ee([sol], 60_000.0, 1.0, 3.162e-3)
        assert ee == pytest.approx(6.0e6, rel=1e-3)

    def test_no_served_ues(self):
        sol = self._solution([0.0], outage=[True])
        assert compute_ee([sol], 60_000.0, 1.0, 3.162e-3) == 0.0

    def test_two_served_with_circuit_power(self):
        sol = self._solution([1e-6, 2e-6])
        ee = compute_ee([sol], 60_000.0, 1.0, 3.162e-3)
        assert ee == pytest.approx(1.897e7, rel=1e-3)

    def test_circuit_power_monotonicity(self):
        sol = self._solution([1e-6, 2e-6, 5e-7])
        ees = [compute_ee([sol], 60_000.0, 1.0, pc)
               for pc in (1e-3, 3e-3, 1e-2, 3e-2)]
        assert all(a > b for a, b in zip(ees, ees[1:]))
