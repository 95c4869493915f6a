import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ambcsim.channel import ChannelState, linear_to_db
from ambcsim.clustering import (allocate_subcarriers, anova_f_test,
                                elbow_select_k, group_users, kmeans)


def wcss_of(features, assignment, k):
    x = np.asarray(features, dtype=float)
    total = 0.0
    for c in range(k):
        pts = x[assignment == c]
        if pts.size:
            total += float(np.sum((pts - pts.mean()) ** 2))
    return total


def best_partition_wcss(features, k):
    """Exhaustive minimum WCSS over all partitions into k non-empty sets."""
    x = np.asarray(features, dtype=float)
    best = math.inf
    for assign in itertools.product(range(k), repeat=x.size):
        # each partition once: labels numbered by first appearance
        if list(dict.fromkeys(assign)) != list(range(k)):
            continue
        best = min(best, wcss_of(x, np.array(assign), k))
    return best


def state_from_db(gains_db):
    lin = 10.0 ** (np.asarray(gains_db, dtype=float) / 10.0)
    return ChannelState(direct_gain=lin, backscatter_gain=np.zeros_like(lin),
                        effective_gain=lin,
                        best_tag_index=np.full(lin.size, -1))


class TestKmeans:
    def test_two_separated_pairs(self):
        assign, centroids, wcss = kmeans([0.0, 0.0, 10.0, 10.0], 2)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]
        assert sorted(centroids) == [0.0, 10.0]
        assert wcss == 0.0

    def test_single_cluster_is_mean(self):
        x = [3.0, 7.0, 8.0, 12.0]
        assign, centroids, wcss = kmeans(x, 1)
        assert np.all(assign == 0)
        assert centroids[0] == pytest.approx(np.mean(x))
        assert wcss == pytest.approx(np.sum((np.array(x) - np.mean(x)) ** 2))

    def test_exhaustive_optimum_small_instance(self):
        x = [1.0, 2.0, 5.0, 6.0]
        assign, centroids, wcss = kmeans(x, 2)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert sorted(centroids) == [1.5, 5.5]
        assert wcss == pytest.approx(1.0)
        assert wcss == pytest.approx(best_partition_wcss(x, 2))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(x=st.lists(st.one_of(st.integers(-3, 3).map(float),
                                st.floats(-10.0, 10.0)),
                      min_size=1, max_size=7),
           data=st.data())
    def test_global_optimum_matches_exhaustive_search(self, x, data):
        k = data.draw(st.integers(1, min(4, len(x))))
        assign, _, wcss = kmeans(x, k)
        assert np.all(np.bincount(assign, minlength=k) >= 1)
        assert wcss == pytest.approx(best_partition_wcss(x, k), abs=1e-9)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            kmeans([], 1)

    def test_wcss_matches_recomputation(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            x = rng.normal(size=rng.integers(4, 30))
            k = int(rng.integers(1, min(6, x.size) + 1))
            assign, _, wcss = kmeans(x, k)
            assert wcss == pytest.approx(wcss_of(x, assign, k), rel=1e-9,
                                         abs=1e-12)

    def test_local_optimality_single_moves(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=int(rng.integers(4, 13)))
            k = int(rng.integers(2, min(4, x.size) + 1))
            assign, _, wcss = kmeans(x, k)
            counts = np.bincount(assign, minlength=k)
            for i in range(x.size):
                if counts[assign[i]] == 1:
                    continue  # move would empty a cluster
                for c in range(k):
                    if c == assign[i]:
                        continue
                    moved = assign.copy()
                    moved[i] = c
                    assert wcss_of(x, moved, k) >= wcss - 1e-9

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            x = rng.choice([0.0, 1.0, 5.0], size=int(rng.integers(5, 15)))
            k = int(rng.integers(2, 5))
            if k > x.size:
                continue
            assign, _, _ = kmeans(x, k)
            assert np.all(np.bincount(assign, minlength=k) >= 1)

    def test_seed_determinism(self):
        x = np.random.default_rng(24).normal(size=40)
        a1 = kmeans(x, 4)
        a2 = kmeans(x, 4)
        assert np.array_equal(a1[0], a2[0])
        assert np.array_equal(a1[1], a2[1])
        assert a1[2] == a2[2]


class TestElbowSelectK:
    def test_sharp_elbow_at_two(self):
        assert elbow_select_k([100.0, 10.0, 9.0, 8.5]) == 2

    def test_flat_curve_returns_one(self):
        assert elbow_select_k([5.0, 5.0, 5.0, 5.0]) == 1

    def test_elbow_at_three(self):
        assert elbow_select_k([100.0, 60.0, 20.0, 18.0, 17.0]) == 3

    def test_short_curve_returns_one(self):
        assert elbow_select_k([10.0, 1.0]) == 1

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            elbow_select_k([])

    def test_all_zero_curve_returns_one(self):
        assert elbow_select_k([0.0, 0.0, 0.0, 0.0]) == 1


class TestAnovaFTest:
    def test_hand_computed_fixture(self):
        f = anova_f_test([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        assert abs(f - 32.0) < 1e-9

    def test_zero_within_variance(self):
        f = anova_f_test([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1])
        assert math.isinf(f)

    def test_equal_group_means(self):
        f = anova_f_test([1.0, 2.0, 1.0, 2.0], [0, 0, 1, 1])
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            anova_f_test([1.0, 2.0, 3.0], [0, 0, 2])

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            anova_f_test([1.0, 2.0, 3.0], [0, 0, 0])

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(6, 21))
            k = int(rng.integers(2, 5))
            assign = np.concatenate([np.arange(k),
                                     rng.integers(0, k, size=n - k)])
            rng.shuffle(assign)
            x = rng.normal(size=n) + 0.5 * assign
            f = anova_f_test(x, assign)
            groups = [x[assign == c] for c in range(k)]
            ref = stats.f_oneway(*groups)
            assert f == pytest.approx(ref.statistic, rel=1e-6)


class TestAllocateSubcarriers:
    def test_symmetric_split(self):
        assert list(allocate_subcarriers([35, 35], 128)) == [64, 64]

    def test_exact_proportion(self):
        assert list(allocate_subcarriers([3, 1], 128)) == [96, 32]

    def test_largest_remainder_ties(self):
        assert list(allocate_subcarriers([1, 1, 1], 128)) == [43, 43, 42]

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            allocate_subcarriers([1, 1, 1], 2)

    def test_conservation_and_minimum(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(1, 11))
            sizes = rng.integers(1, 40, size=m)
            alloc = allocate_subcarriers(sizes, 128)
            assert int(alloc.sum()) == 128
            assert np.all(alloc >= 1)


class TestGroupUsers:
    def test_singleton(self):
        plan = group_users(state_from_db([-80.0]), 128, k_max=10)
        assert plan.k == 1
        assert list(plan.subcarriers_per_cluster) == [128]
        assert math.isnan(plan.f_statistic)

    def test_two_separated_pairs(self):
        plan = group_users(state_from_db([0.0, 0.0, 10.0, 10.0]), 128,
                           k_max=3)
        assert plan.k == 2
        assert math.isinf(plan.f_statistic)

    def test_identical_gains_collapse_to_one(self):
        plan = group_users(state_from_db([-90.0] * 12), 128, k_max=10)
        assert plan.k == 1

    def test_partition_valid_and_subcarriers_conserved(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            gains = rng.uniform(-110.0, -75.0, size=n)
            plan = group_users(state_from_db(gains), 128, k_max=10)
            assert plan.assignment.size == n
            counts = np.bincount(plan.assignment, minlength=plan.k)
            assert np.all(counts >= 1)
            assert 1 <= plan.k <= min(10, n)
            assert int(plan.subcarriers_per_cluster.sum()) == 128

    def test_wcss_curve_is_the_optimum_per_k(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            state = state_from_db(rng.uniform(-110.0, -75.0,
                                              size=int(rng.integers(1, 30))))
            plan = group_users(state, 128, k_max=6)
            features = linear_to_db(state.effective_gain)
            assert len(plan.wcss_curve) == min(6, features.size)
            for k, wcss in enumerate(plan.wcss_curve, start=1):
                assert wcss == kmeans(features, k)[2]
            assign, _, _ = kmeans(features, plan.k)
            assert np.array_equal(plan.assignment, assign)

    def test_labels_ascend_with_gain(self):
        plan = group_users(state_from_db([-70.0, -100.0, -71.0, -99.0]),
                           128, k_max=3)
        assert list(plan.assignment) == [1, 0, 1, 0]

    def test_k_limited_by_subcarriers(self):
        gains = np.random.default_rng(54).uniform(-110, -75, size=30)
        plan = group_users(state_from_db(gains), 2, k_max=10)
        assert len(plan.wcss_curve) == 2
        assert plan.k <= 2
        assert int(plan.subcarriers_per_cluster.sum()) == 2

    def test_seed_determinism(self):
        gains = np.random.default_rng(52).uniform(-110, -75, size=30)
        p1 = group_users(state_from_db(gains), 128, k_max=10)
        p2 = group_users(state_from_db(gains), 128, k_max=10)
        assert p1.k == p2.k
        assert np.array_equal(p1.assignment, p2.assignment)
        assert p1.wcss_curve == p2.wcss_curve
