"""End-to-end acceptance suite.

Each test prints a single PASS line when its criterion holds; shared
module-scoped fixtures keep the three expensive simulation campaigns
(default paired trials, UE-count sweep, payload sweep) to one run each.
"""

import contextlib
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from ambcsim import harness
from ambcsim.channel import ChannelParams, noise_power
from ambcsim.clustering import anova_f_test, kmeans
from ambcsim.config import SimConfig, dbm_to_watts
from ambcsim.harness import derive_trial_seed, run_trial, sweep, write_results
from ambcsim.power import RateDemand, iterative_power_allocation, sinr_gamma
from sic_reference import (achieved_rates, closed_form_cluster_powers,
                           sic_order)

SEED = 42
N_TRIALS = 100
UE_COUNTS = list(range(10, 101, 10))
DATA_SIZES = [s * 1000.0 for s in range(20, 101, 10)]


def ok(n, msg):
    print(f"\nCRITERION {n} PASS: {msg}")


@pytest.fixture(scope="module")
def mode_results():
    """(config, effective gains, TrialModeResult) of every mode
    evaluation the campaign fixtures run."""
    return []


@contextlib.contextmanager
def recording(sink):
    """Append each mode evaluation run inside the block to sink, with
    the config it ran under and the effective gains it grouped."""
    effective_gains = harness.effective_gains
    evaluate_mode = harness.evaluate_mode
    last = {}

    def gains(*args):
        last["state"] = effective_gains(*args)
        return last["state"]

    def recorded(config, *args):
        result = evaluate_mode(config, *args)
        sink.append((config, last["state"].effective_gain, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "effective_gains", gains)
        mp.setattr(harness, "evaluate_mode", recorded)
        yield


@pytest.fixture(scope="module")
def default_run(mode_results):
    """100 paired trials at the case-study defaults."""
    cfg = SimConfig(seed=SEED, n_trials=N_TRIALS)
    start = time.perf_counter()
    with recording(mode_results):
        pairs = [run_trial(cfg, derive_trial_seed(SEED, 0, t))
                 for t in range(N_TRIALS)]
    return cfg, pairs, time.perf_counter() - start


@pytest.fixture(scope="module")
def users_report(mode_results):
    start = time.perf_counter()
    with recording(mode_results):
        report = sweep(SimConfig(seed=SEED, n_trials=N_TRIALS), "n_ues",
                       UE_COUNTS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def data_report(mode_results):
    with recording(mode_results):
        return sweep(SimConfig(seed=SEED, n_trials=N_TRIALS), "data_bits",
                     DATA_SIZES)


def mode_series(report, mode):
    aggs = sorted((a for a in report.aggregates if a.mode == mode),
                  key=lambda a: a.sweep_value)
    return ([a.sweep_value for a in aggs], [a.mean_ee for a in aggs],
            [a.ci95_half for a in aggs])


def assert_decreasing_with_tolerance(means, cis, label):
    """Strictly decreasing, allowing one CI-overlapping adjacent pair."""
    violations = [i for i in range(len(means) - 1)
                  if not means[i] > means[i + 1]]
    assert len(violations) <= 1, \
        f"{label}: non-decreasing at pairs {violations}"
    for i in violations:
        overlap = abs(means[i] - means[i + 1]) <= cis[i] + cis[i + 1]
        assert overlap, f"{label}: violation at pair {i} outside CI overlap"


class TestCriterion1TriadSuperiority:
    def test_mean_and_paired_differences(self, default_run):
        cfg, pairs, elapsed = default_run
        triad_ee = np.array([t.ee for t, _ in pairs])
        base_ee = np.array([b.ee for _, b in pairs])
        assert triad_ee.mean() > base_ee.mean()
        same_served = 0
        for triad, baseline in pairs:
            if np.array_equal(triad.served_mask, baseline.served_mask):
                same_served += 1
                assert triad.ee - baseline.ee >= 0.0
        assert elapsed < 60.0
        ok(1, f"mean EE triad {triad_ee.mean():.12g} > baseline "
              f"{base_ee.mean():.12g}; paired diff >= 0 in all "
              f"{same_served}/{len(pairs)} matched-service trials; "
              f"{elapsed:.1f}s")


class TestCriterion2DecreasingEeVsUsers:
    def test_triad_mean_decreasing(self, users_report):
        report, elapsed = users_report
        values, means, cis = mode_series(report, "triad")
        assert values == UE_COUNTS
        assert_decreasing_with_tolerance(means, cis, "triad vs users")
        assert elapsed < 300.0
        ok(2, f"triad mean EE decreasing over {values[0]}..{values[-1]} "
              f"UEs ({means[0]:.6g} -> {means[-1]:.6g}); {elapsed:.1f}s")


class TestCriterion3DecreasingEeVsDataSize:
    def test_triad_mean_decreasing(self, data_report):
        _, means, cis = mode_series(data_report, "triad")
        assert_decreasing_with_tolerance(means, cis, "triad vs data size")
        ok(3, f"triad mean EE decreasing over payload sweep "
              f"({means[0]:.6g} -> {means[-1]:.6g})")

    def test_baseline_mean_decreasing(self, data_report):
        _, means, cis = mode_series(data_report, "baseline")
        assert_decreasing_with_tolerance(means, cis, "baseline vs data size")
        ok(3, f"baseline mean EE decreasing over payload sweep "
              f"({means[0]:.6g} -> {means[-1]:.6g})")

    def test_gap_positive_at_every_size(self, data_report):
        values, t_means, _ = mode_series(data_report, "triad")
        _, b_means, _ = mode_series(data_report, "baseline")
        gaps = [t - b for t, b in zip(t_means, b_means)]
        assert all(g > 0 for g in gaps), f"non-positive gaps: {gaps}"
        ok(3, f"triad-baseline gap positive at all {len(values)} payload "
              f"sizes (min {min(gaps):.3g})")


def sinr_equality_powers(gains, gamma, noise):
    """Powers from a linear solve of the SINR-equality system
    (I - gamma F) q = gamma N, where F[i, j] = 1 when UE j is decoded
    after UE i (so j still interferes with i), and p = q / g."""
    n = len(gains)
    position = np.empty(n, dtype=int)
    position[sic_order(gains)] = np.arange(n)
    later = (position[None, :] > position[:, None]).astype(float)
    q = np.linalg.solve(np.eye(n) - gamma * later, np.full(n, gamma * noise))
    return q / gains


class TestCriterion4PowerOracle:
    def test_iterative_matches_closed_form(self):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 7))
            gains = 10.0 ** rng.uniform(-10.5, -8.0, size=n)
            bw = float(rng.uniform(5e4, 5e5))
            demand = RateDemand(float(rng.uniform(5e3, 6e4)), 1.0)
            noise = 10.0 ** ((-174.0 + 10 * math.log10(bw) - 30) / 10.0)
            gamma = sinr_gamma(demand.required_rate, bw)
            expected = closed_form_cluster_powers(gains, np.full(n, gamma),
                                                  noise)
            if np.any(expected > 0.2):
                continue  # only feasible clusters are in scope
            sol = iterative_power_allocation(gains, demand, bw, noise, 0.2)
            assert not sol.outage.any()
            np.testing.assert_allclose(sol.power, expected, atol=1e-9)
            np.testing.assert_allclose(
                sol.power, sinr_equality_powers(gains, gamma, noise),
                atol=1e-9)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        ok(4, f"1000 feasible clusters match the closed-form recursion and "
              f"the SINR-equality linear solve within 1e-9 W; "
              f"{elapsed:.2f}s")


class TestCriterion5AnovaCorrectness:
    def test_fixture_and_random_instances(self):
        f = anova_f_test([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        assert abs(f - 32.0) < 1e-9
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            n = int(rng.integers(6, 21))
            k = int(rng.integers(2, 5))
            assign = np.concatenate([np.arange(k),
                                     rng.integers(0, k, size=n - k)])
            rng.shuffle(assign)
            x = rng.normal(size=n) + 0.7 * assign
            f = anova_f_test(x, assign)
            groups = [x[assign == c] for c in range(k)]
            ref = stats.f_oneway(*groups)
            assert f == pytest.approx(ref.statistic, rel=1e-6)
        ok(5, "F fixture exact; 200 random instances within 1e-6 relative "
              "of the independent oracle")


class TestCriterion6KmeansLocalOptimality:
    def test_no_improving_single_move(self):
        def wcss_of(x, assign, k):
            return sum(float(np.sum((x[assign == c] - x[assign == c].mean())
                                    ** 2))
                       for c in range(k) if np.any(assign == c))

        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            n = int(rng.integers(4, 13))
            x = rng.normal(scale=4.0, size=n)
            k = int(rng.integers(2, min(4, n) + 1))
            rng.integers(1 << 30)  # keeps the RNG stream of the instances
            assign, _, wcss = kmeans(x, k)
            counts = np.bincount(assign, minlength=k)
            for i, c in itertools.product(range(n), range(k)):
                if c == assign[i] or counts[assign[i]] == 1:
                    continue
                moved = assign.copy()
                moved[i] = c
                assert wcss_of(x, moved, k) >= wcss - 1e-9
        ok(6, "200 instances: no single-point reassignment reduces WCSS")


class TestCriterion7DegenerateCollapse:
    def _assert_modes_identical(self, cfg, tmp_path, label):
        report = sweep(cfg, "n_ues", [cfg.n_ues])
        trials_path, _ = write_results(report, tmp_path / label)
        rows = trials_path.read_text(encoding="utf-8").splitlines()[1:]
        split = {"triad": [], "baseline": []}
        for row in rows:
            fields = row.split(",")
            split[fields[2]].append(",".join(fields[:2] + fields[3:]))
        assert split["triad"] == split["baseline"]

    def test_zero_beta_and_zero_tags(self, tmp_path):
        base = SimConfig(seed=SEED, n_trials=20)
        self._assert_modes_identical(
            dataclasses.replace(
                base, channel=ChannelParams(reflection_coeff=0.0)),
            tmp_path, "beta0")
        self._assert_modes_identical(dataclasses.replace(base, n_tags=0),
                                     tmp_path, "tags0")
        ok(7, "beta=0 and n_tags=0 each give byte-identical mode rows "
              "over 20 trials")


class TestCriterion8CircuitPowerDominance:
    def test_perturbation_ordering(self, default_run):
        cfg, pairs, _ = default_run
        pc5 = dbm_to_watts(5.0)
        pc15 = dbm_to_watts(15.0)
        d_circuit, d_double = [], []
        for triad, _ in pairs:
            bd = triad.breakdown
            assert bd.served_count > 0
            tx = bd.total_energy / cfg.frame_duration \
                - pc5 * bd.served_count
            bits = bd.total_bits

            def ee(tx_power, pc):
                return bits / (cfg.frame_duration
                               * (tx_power + pc * bd.served_count))

            d_circuit.append(ee(tx, pc5) - ee(tx, pc15))
            d_double.append(ee(tx, pc5) - ee(2.0 * tx, pc5))
        assert np.mean(d_circuit) > np.mean(d_double)
        ok(8, f"circuit 5->15 dBm costs {np.mean(d_circuit):.6g} bits/J "
              f"vs {np.mean(d_double):.6g} for doubled transmit power")


class TestCriterion9Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = SimConfig(seed=SEED, n_trials=N_TRIALS)
        p1 = write_results(sweep(cfg, "n_ues", [cfg.n_ues]), tmp_path / "a")
        p2 = write_results(sweep(cfg, "n_ues", [cfg.n_ues]), tmp_path / "b")
        for f1, f2 in zip(p1, p2):
            assert f1.read_bytes() == f2.read_bytes()
        ok(9, "two identical-seed campaigns produced byte-identical CSVs")


class TestCriterion10FeasibilityInvariants:
    def test_all_campaigns(self, default_run, users_report, data_report,
                           mode_results):
        assert len(mode_results) == 2 * N_TRIALS * (
            1 + len(UE_COUNTS) + len(DATA_SIZES))
        for config, gains, result in mode_results:
            required = RateDemand(config.data_bits,
                                  config.frame_duration).required_rate
            plan = result.plan
            for c, sol in enumerate(result.solutions):
                bw = float(plan.subcarriers_per_cluster[c]) * (
                    config.bandwidth / config.n_subcarriers)
                rates = achieved_rates(
                    sol.power, gains[plan.assignment == c], bw,
                    noise_power(bw, config.channel.noise_psd))
                served = ~sol.outage
                assert np.all(sol.power[served] <= 0.2 + 1e-15)
                assert np.all(rates[served] / required - 1.0 >= -1e-6)
            assert plan.subcarriers_per_cluster.sum() == 128
        ok(10, f"power cap, rate satisfaction and subcarrier conservation "
               f"hold across {len(mode_results)} mode-results")
