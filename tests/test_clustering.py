import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import clustering_reference as reference
from ambcsim import clustering
from ambcsim.channel import ChannelState, linear_to_db
from ambcsim.clustering import (allocate_subcarriers, elbow_select_k,
                                group_users, kmeans)
from ambcsim.config import SimConfig
from ambcsim.harness import sweep


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


def take_layers(x, k_max):
    """(order, wcss, splits, ss) once k_max layers of the DP are taken."""
    order, ss, splits, layers = clustering._optimal_splits(
        np.asarray(x, dtype=float))
    return order, list(itertools.islice(layers, k_max)), splits, ss


def spy_tables(monkeypatch):
    """The split table lists of every later _optimal_splits call; each
    list's length is the number of layers its caller took."""
    tables = []
    optimal_splits = clustering._optimal_splits

    def spy(features):
        result = optimal_splits(features)
        tables.append(result[2])
        return result

    monkeypatch.setattr(clustering, "_optimal_splits", spy)
    return tables


# Tight clusters, as (gaps between them in dB, sizes), whose WCSS elbow
# is at k = 2, 3, 4 and 5 (found by a search; none above 5 turned up),
# then three more whose stop is the pick-K case at K = 3, 3 and 4: W_2
# is above W_1 / 3, so W_1 and W_2 settle nothing
ELBOW_TEMPLATES = [
    ([1.0], [5, 5]),
    ([0.79, 0.79], [1, 16, 1]),
    ([1.25, 0.359, 1.094], [1, 16, 16, 1]),
    ([1.934, 0.413, 0.53, 1.749], [1, 22, 60, 9, 1]),
    ([1.0, 1.0], [1, 8, 1]),
    ([1.0, 0.3, 1.0], [2, 20, 20, 2]),
    ([1.18, 0.5, 1.31], [1, 7, 10, 1]),
]


@st.composite
def grouping_inputs(draw):
    """(gains in dB, k_max, n_subcarriers) of every shape the elbow stop
    meets: elbows at 2..5, a near-tie of the stop's test, mixtures, small
    integers (exact ties), constant gains, and k_hi <= 3."""
    kind = draw(st.sampled_from(["template", "near tie", "template",
                                 "mixture", "near tie", "integers",
                                 "constant"]))
    level = draw(st.floats(-120.0, -60.0))
    scale = draw(st.sampled_from([1e-6, 0.1, 1.0, 10.0]))
    jitter = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "template":
        gaps, sizes = draw(st.sampled_from(ELBOW_TEMPLATES))
    elif kind == "near tie":
        # sizes a, 2a, a at -1, 0, 1 + eps: each of the stop's tests is a
        # tie at eps = 0, W_1 - 3 W_2 against 0 at K = 2 (W_2 = W_1 / 3),
        # then W_1 - 2 W_2 + W_3 and W_2 - 2 W_3 against W_2 - W_3 at
        # K = 3 (W_3 = 0)
        a = draw(st.integers(1, 4))
        eps = draw(st.sampled_from([0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1e-5,
                                    -1e-5, 1e-4, -1e-4]))
        gaps, sizes = [1.0, 1.0 + eps], [a, 2 * a, a]
    elif kind == "mixture":
        m = draw(st.integers(1, 6))
        gaps = draw(st.lists(st.floats(0.0, 30.0), min_size=m - 1,
                             max_size=m - 1))
        sizes = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
        jitter = draw(st.sampled_from([jitter, 1.0, 8.0]))
    elif kind == "integers":
        values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
        gaps, sizes = np.ones(6), np.bincount(np.add(values, 3), minlength=7)
    else:
        gaps, sizes = [], [draw(st.integers(1, 30))]
    centres = np.repeat(np.concatenate(([0.0], np.cumsum(gaps))), sizes)
    db = level + scale * (centres + rng.normal(0.0, jitter, centres.size))
    return (db, draw(st.sampled_from([10, 6, 5, 4, 3, 2, 1, 7, 8, 9])),
            draw(st.sampled_from([128, 128, 128, 3, 2, 1])))


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


class TestOptimalSplitsAgainstReference:
    """The DP matches the full-matrix reference bit for bit: WCSS bytes,
    the trace-back of every k <= k_max and the elbow pick."""

    @staticmethod
    def assert_matches(x, k_max):
        order, wcss, splits, _ = take_layers(x, k_max)
        ref_order, ref_wcss, ref_splits = reference.optimal_splits(x, k_max)
        assert len(wcss) == len(splits) == k_max  # one table per layer
        assert np.array_equal(order, ref_order)
        assert np.array(wcss).tobytes() == np.array(ref_wcss).tobytes()
        # the tables agree wherever a trace-back reads them: in full below
        # k_max, at row n for k_max; so every trace-back is the same
        for split, ref_split in zip(splits[:-1], ref_splits):
            assert np.array_equal(split, ref_split)
        assert splits[-1][x.size] == ref_splits[-1][x.size]
        ks = range(1, min(k_max, x.size) + 1)
        for k in ks if x.size <= 30 else {1, min(2, k_max), ks[-1]}:
            assign, sizes = clustering._trace_back(order, splits, k)
            ref_assign, _ = clustering._trace_back(ref_order, ref_splits, k)
            assert np.array_equal(assign, ref_assign)
            assert np.array_equal(sizes, np.bincount(assign, minlength=k))
        # a curve past k = n holds inf, which the elbow refuses
        if np.all(np.isfinite(wcss)):
            assert elbow_select_k(wcss) == reference.elbow_select_k(ref_wcss)

    @staticmethod
    def every_n_up_to_130(kind):
        """Features of each n = 1..130 of one kind, from one seed."""
        rng = np.random.default_rng(61)
        for n in range(1, 131):
            if kind == "random":
                yield rng.normal(-90.0, 8.0, size=n)
            elif kind == "integer ties":
                yield rng.integers(-3, 4, size=n).astype(float)
            else:
                yield np.full(n, rng.normal(-90.0, 8.0))

    @pytest.mark.parametrize("kind", ["random", "integer ties", "constant"])
    def test_every_n_up_to_130(self, kind):
        for x in self.every_n_up_to_130(kind):
            for k_max in sorted({1, 2, x.size}):
                self.assert_matches(x, k_max)

    @pytest.mark.parametrize("kind", ["random", "integer ties", "constant"])
    def test_cost_edges_are_the_matrix_edges(self, kind):
        # column 0 and row n, built in O(n) from slices without a mask,
        # hold the (n + 1)^2 matrix's bytes, inf at the empty runs
        for x in self.every_n_up_to_130(kind):
            xs = np.sort(x) - x.mean()
            s1, s2 = (np.concatenate(([0.0], np.cumsum(v)))
                      for v in (xs, xs * xs))
            ramp = np.arange(x.size + 1.0)
            first, last = clustering._cost_edges(s1, s2, ramp)
            cost = clustering._cost_matrix(s1, s2, ramp)
            assert first.tobytes() == cost[:, 0].tobytes()
            assert last.tobytes() == cost[x.size].tobytes()
            assert math.isinf(first[0]) and math.isinf(last[x.size])

    def test_k_max_past_n(self):
        # WCSS inf from k = n + 1 on, a curve the elbow refuses
        rng = np.random.default_rng(62)
        for n in range(1, 12):
            x = rng.normal(size=n)
            self.assert_matches(x, 12)
            wcss = take_layers(x, 12)[1]
            assert math.isinf(wcss[-1])
            with pytest.raises(ValueError, match="finite"):
                elbow_select_k(wcss)

    def test_peak_memory_of_a_cold_call(self):
        # the divisor (which then holds the cost), its scratch and the
        # empty-run mask while the cost matrix is built, then the cost
        # and layer buffers: about 2.15 (n + 1)^2 doubles; the
        # full-matrix DP needed 4.13
        n = 1000
        x = np.random.default_rng(63).normal(size=n)
        tracemalloc.start()
        try:
            take_layers(x, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * (n + 1) ** 2


class TestElbowStop:
    """group_users stops its DP once the WCSS curve so far settles the
    elbow, and gives what the full DP and the elbow give."""

    def test_two_clusters_stop_after_layer_two(self, monkeypatch):
        rng = np.random.default_rng(71)
        state = state_from_db(np.concatenate([rng.normal(-100.0, 0.5, 20),
                                              rng.normal(-80.0, 0.5, 20)]))
        features = linear_to_db(state.effective_gain)
        _, full, _, ss = take_layers(features, 10)
        slack = clustering.ELBOW_SLACK * ss
        assert elbow_select_k(full[:1], 10, slack) == 0
        assert elbow_select_k(full[:2], 10, slack) == 2
        tables = spy_tables(monkeypatch)
        plan = group_users(state, 128, k_max=10)
        assert [len(splits) for splits in tables] == [2]
        assert plan.k == 2
        assert len(plan.wcss_curve) == 10
        for k, w in enumerate(plan.wcss_curve, start=1):
            assert w == kmeans(features, k)[2]

    # (curve, k_hi, slack, the k it settles, 0 where it does not)
    SETTLED_CASES = [
        ([100.0, 10.0, 9.0], 10, 0.0, 2),     # 89 against max(1, 9)
        ([100.0, 10.0, 9.0], 10, 82.0, 0),    # 89 within the slack of 9
        ([100.0, 60.0, 55.0], 10, 0.0, 0),    # 35 against max(5, 55)
        ([100.0, 60.0, 55.0], 4, 0.0, 2),     # no k > 3 below k_hi: 5
        ([100.0, 10.0], 10, 0.0, 2),          # 80 against max(0, 10)
        ([math.inf, 10.0, 9.0], 10, 0.0, 0),
        ([math.nan, 10.0, 9.0], 10, 0.0, 0),
        ([100.0, 10.0], 10, 70.0, 0),         # a tie inside the slack
        ([100.0, 10.0], 2, 0.0, 1),           # whole: 2 entries give 1
        ([100.0, 40.0], 3, 0.0, 2),           # 20 against max(0); no W_K
        ([100.0, 40.0], 10, 0.0, 0),          # 20 against max(0, 40)
        ([math.inf, 10.0], 10, 0.0, 0),
        ([100.0, 90.0, 20.0], 10, 0.0, 3),    # 50 against max(-60, 20)
        ([100.0, 90.0, 20.0], 10, 30.0, 0),   # a tie inside the slack
        ([0.0, 0.0], 3, 0.0, 0),              # flat: the k = 1 rule
    ]

    @pytest.mark.parametrize(
        "curve, k_hi, slack, k", SETTLED_CASES,
        ids=[f"curve{i}-{k_hi}-{slack}-{bool(k)}"
             for i, (_, k_hi, slack, k) in enumerate(SETTLED_CASES)])
    def test_settled_bound(self, curve, k_hi, slack, k):
        assert elbow_select_k(curve, k_hi, slack) == k

    # Integer curves up to 1000 are exact in float64, and flat only where
    # every entry is equal (1e-12 W_1 < 1).
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(curve=st.lists(st.integers(0, 1000), min_size=1, max_size=12))
    @example(curve=[3, 2, 1, 0])  # second(3)'s lower bound ties k = 2
    def test_partial_pick_is_the_whole_pick(self, curve):
        curve = sorted(map(float, curve), reverse=True)
        pick = elbow_select_k(curve)
        for K in range(1, len(curve)):
            assert elbow_select_k(curve[:K], len(curve), 0.0) in (0, pick)

    def test_stop_rate_at_workload_settings(self, monkeypatch):
        # Settings like the benchmark workloads': the defaults with 10 and
        # 1000 tags, n_ues 10..100 and both modes, 700 mode evaluations.
        # W_1 and W_2 settle k = 2 in 692 of them, with no (n + 1)^2 cost
        # matrix built; an edit that settles fewer brings it back.
        tables = spy_tables(monkeypatch)
        for n_tags in (10, 1000):
            sweep(SimConfig(n_trials=25, n_tags=n_tags, seed=1), "n_ues",
                  list(range(10, 101, 15)))
        lengths = [len(splits) for splits in tables]
        assert len(lengths) == 700
        assert lengths.count(2) >= 692

    @pytest.mark.parametrize("gain", [math.inf, 0.0, math.nan])
    def test_non_finite_features_run_every_layer(self, gain):
        # the refusal shows the whole curve, all 5 layers of it
        g = np.array([1e-9, 2e-9, gain, 1e-10, 3e-9])
        state = ChannelState(direct_gain=g, backscatter_gain=np.zeros(5),
                             effective_gain=g, best_tag_index=np.full(5, -1))
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^WCSS curve must be finite, got "
                                  r"\[nan, nan, nan, nan, nan\]$"):
            group_users(state, 128, k_max=10)

    def test_same_plan_as_every_layer(self, monkeypatch):
        # (K, pick) of every settled stop: pick < K is the known-best
        # case, pick = K the pick-K one
        stops = []

        def spy(curve, k_hi, slack):
            pick = elbow_select_k(curve, k_hi, slack)
            if pick and len(curve) < k_hi:
                stops.append((len(curve), pick))
            return pick

        monkeypatch.setattr(clustering, "elbow_select_k", spy)

        @settings(max_examples=400, deadline=None, derandomize=True,
                  database=None)
        @given(inputs=grouping_inputs())
        def check(inputs):
            db, k_max, n_subcarriers = inputs
            state = state_from_db(db)
            plan = group_users(state, n_subcarriers, k_max=k_max)

            x = linear_to_db(state.effective_gain)
            n = x.size
            k_hi = min(k_max, n, n_subcarriers)
            order, wcss, splits = reference.optimal_splits(x, k_hi)
            k = reference.elbow_select_k(wcss)
            assign, sizes = clustering._trace_back(order, splits, k)
            total, within = wcss[0], wcss[k - 1]
            if k == 1:
                f_stat = math.nan
            elif within <= 0.0:
                f_stat = math.inf
            else:
                f_stat = ((max(total - within, 0.0) / (k - 1))
                          / (within / (n - k)))
            assert plan.k == k
            assert np.array_equal(plan.assignment, assign)
            assert (np.float64(plan.f_statistic).tobytes()
                    == np.float64(f_stat).tobytes())
            assert np.array_equal(
                plan.subcarriers_per_cluster,
                reference.allocate_subcarriers(sizes, n_subcarriers))
            assert np.array(plan.wcss_curve).tobytes() == \
                np.array(wcss).tobytes()

        check()
        assert any(pick < K for K, pick in stops)
        assert any(pick == K >= 3 for K, pick in stops)


class TestElbowSelectK:
    def test_sharp_elbow_at_two(self):
        assert elbow_select_k([100.0, 10.0, 9.0, 8.5]) == 2

    def test_flat_curve_returns_one(self):
        assert elbow_select_k([5.0, 5.0, 5.0, 5.0]) == 1

    def test_elbow_at_three(self):
        assert elbow_select_k([100.0, 60.0, 20.0, 18.0, 17.0]) == 3

    def test_tie_goes_to_smaller_k(self):
        # second differences 0 and 0 at k = 2 and 3
        assert elbow_select_k([30.0, 20.0, 10.0, 0.0]) == 2

    def test_short_curve_returns_one(self):
        assert elbow_select_k([10.0, 1.0]) == 1

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            elbow_select_k([])

    def test_all_zero_curve_returns_one(self):
        assert elbow_select_k([0.0, 0.0, 0.0, 0.0]) == 1

    @pytest.mark.parametrize("curve", [[0.0, 0.0, math.inf, math.inf,
                                        math.inf],
                                       [3.0, 1.0, math.nan],
                                       [math.inf, 1.0]])
    def test_non_finite_curve_rejected(self, curve):
        with pytest.raises(ValueError, match="finite"):
            elbow_select_k(curve)


class TestAnovaFTest:
    def test_hand_computed_fixture(self):
        f = reference.anova_f_test([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        assert abs(f - 32.0) < 1e-9

    def test_zero_within_variance(self):
        f = reference.anova_f_test([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1])
        assert math.isinf(f)

    def test_equal_group_means(self):
        f = reference.anova_f_test([1.0, 2.0, 1.0, 2.0], [0, 0, 1, 1])
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            reference.anova_f_test([1.0, 2.0, 3.0], [0, 0, 2])

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            reference.anova_f_test([1.0, 2.0, 3.0], [0, 0, 0])

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(6, 21))
            k = int(rng.integers(2, 5))
            assign = np.concatenate([np.arange(k),
                                     rng.integers(0, k, size=n - k)])
            rng.shuffle(assign)
            x = rng.normal(size=n) + 0.5 * assign
            f = reference.anova_f_test(x, assign)
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


class TestAllocateSubcarriersAgainstReference:
    """The split on Python ints and floats against the numpy form."""

    def assert_same(self, sizes, n_subcarriers):
        alloc = allocate_subcarriers(sizes, n_subcarriers)
        ref = reference.allocate_subcarriers(sizes, n_subcarriers)
        assert alloc.dtype == ref.dtype
        assert np.array_equal(alloc, ref)
        return alloc

    def test_random(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            m = int(rng.integers(1, 11))
            sizes = rng.integers(1, int(rng.choice([3, 40, 5000])), size=m)
            self.assert_same(sizes, int(rng.integers(m, 300)))

    @pytest.mark.parametrize("sizes, n_subcarriers", [
        ([1, 1, 1], 128),        # three equal remainders, two leftovers
        ([2, 2, 1, 1], 9),       # equal remainders broken by size
        ([3, 1, 1, 3], 10),      # equal remainders and equal sizes
        ([5, 5], 3),             # one leftover between equal clusters
        ([7, 15], 11),           # remainders of exactly 1/2
        ([1, 1, 4], 10),         # remainders of 2/3, each rounded alike
    ])
    def test_remainder_ties(self, sizes, n_subcarriers):
        self.assert_same(sizes, n_subcarriers)

    @pytest.mark.parametrize("sizes, n_subcarriers", [
        ([100, 1, 1], 3),
        ([1, 60, 1, 1, 60], 6),
        ([1000] + [1] * 9, 12),
    ])
    def test_quota_floors_to_zero(self, sizes, n_subcarriers):
        # some quota floors to 0 and its remainder loses the tie-break,
        # so the repair loop has to hand it a subcarrier
        quota = n_subcarriers * np.asarray(sizes) / sum(sizes)
        assert np.any(np.floor(quota) == 0)
        alloc = self.assert_same(sizes, n_subcarriers)
        assert alloc.min() == 1 and alloc.sum() == n_subcarriers

    @pytest.mark.parametrize("sizes", [[1], [7], [1, 2, 3], [9, 1] * 5])
    def test_one_subcarrier_per_cluster(self, sizes):
        alloc = self.assert_same(sizes, len(sizes))
        assert alloc.tolist() == [1] * len(sizes)

    @pytest.mark.parametrize("sizes, n_subcarriers", [
        ([], 4), ([2, 0], 4), ([3, -1], 4), ([1, 1, 1], 2)])
    def test_same_refusals(self, sizes, n_subcarriers):
        with pytest.raises(ValueError) as ours:
            allocate_subcarriers(sizes, n_subcarriers)
        with pytest.raises(ValueError) as ref:
            reference.allocate_subcarriers(sizes, n_subcarriers)
        assert str(ours.value) == str(ref.value)


class TestGroupUsers:
    def test_no_ue_rejected(self):
        with pytest.raises(ValueError, match="^empty feature vector$"):
            group_users(state_from_db([]), 128, k_max=10)

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

    def test_f_statistic_against_scipy_oracle(self):
        # F of the plan's own partition, from 10 dB spreads down to
        # 1e-9 dB, where the features differ in their last few digits
        rng = np.random.default_rng(55)
        for spread in [10.0, 1.0, 1e-3, 1e-6, 1e-9]:
            for _ in range(40):
                n = int(rng.integers(3, 61))
                state = state_from_db(rng.normal(-90.0, spread, size=n))
                plan = group_users(state, 128, k_max=10)
                features = linear_to_db(state.effective_gain)
                groups = [features[plan.assignment == c]
                          for c in range(plan.k)]
                ref = stats.f_oneway(*groups).statistic
                assert plan.k >= 2 and plan.f_statistic >= 0.0
                assert plan.f_statistic == pytest.approx(ref, rel=1e-9)

    def test_two_entry_curve_gives_one(self):
        # clear two clusters, yet k_hi = 2 leaves no second difference
        rng = np.random.default_rng(72)
        state = state_from_db(np.concatenate([rng.normal(-100.0, 0.5, 20),
                                              rng.normal(-80.0, 0.5, 20)]))
        assert group_users(state, 128, k_max=3).k == 2
        assert group_users(state, 128, k_max=2).k == 1

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
