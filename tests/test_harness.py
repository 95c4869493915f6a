import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ambcsim.channel import ChannelParams
from ambcsim.config import ConfigError, SimConfig
from ambcsim import harness
from ambcsim.harness import (Aggregate, EeReport, derive_trial_seed,
                             run_trial, sample_deployment, sweep,
                             write_results)
from ambcsim.power import InfeasibleDemandError


def small_config(**kwargs):
    defaults = dict(seed=100, n_trials=5, n_ues=12, n_tags=4)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSampleDeployment:
    def test_counts_and_containment(self):
        cfg = small_config(n_ues=1)
        dep = sample_deployment(cfg, 42)
        assert len(dep.ue_positions) == 1
        assert len(dep.tag_positions) == cfg.n_tags
        for p in np.concatenate([dep.ue_positions, dep.tag_positions]):
            assert math.hypot(p.x, p.y) <= cfg.coverage_radius
        assert dep.uav_position.z == cfg.uav_altitude

    def test_bit_identical_determinism(self):
        cfg = small_config()
        d1 = sample_deployment(cfg, 7)
        d2 = sample_deployment(cfg, 7)
        assert np.array_equal(d1.ue_positions, d2.ue_positions)
        assert np.array_equal(d1.tag_positions, d2.tag_positions)

    def test_draw_order(self):
        # UE radii, UE azimuths, tag radii, tag azimuths, from one stream
        cfg = small_config(n_ues=17, n_tags=9)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            draws = [rng.random(n) for n in
                     (cfg.n_ues, cfg.n_ues, cfg.n_tags, cfg.n_tags)]
            dep = sample_deployment(cfg, seed)
            for pts, u_r, u_phi in ((dep.ue_positions, *draws[:2]),
                                    (dep.tag_positions, *draws[2:])):
                r = cfg.coverage_radius * np.sqrt(u_r)
                phi = 2.0 * np.pi * u_phi
                assert pts["x"].tolist() == [float(ri * np.cos(pi))
                                             for ri, pi in zip(r, phi)]
                assert pts["y"].tolist() == [float(ri * np.sin(pi))
                                             for ri, pi in zip(r, phi)]

    def test_uniform_disk_area_law(self):
        cfg = small_config(n_ues=10_000)
        dep = sample_deployment(cfg, 3)
        r = np.array([math.hypot(p.x, p.y) for p in dep.ue_positions])
        inner = np.mean(r <= cfg.coverage_radius / math.sqrt(2))
        assert inner == pytest.approx(0.5, abs=0.02)

    def test_heights(self):
        dep = sample_deployment(small_config(), 1)
        assert all(p.z == 1.5 for p in dep.ue_positions)
        assert all(p.z == 1.0 for p in dep.tag_positions)


class TestDeriveTrialSeed:
    def test_deterministic_and_distinct(self):
        seeds = {derive_trial_seed(5, s, t)
                 for s in range(10) for t in range(100)}
        assert len(seeds) == 1000
        assert derive_trial_seed(5, 3, 7) == derive_trial_seed(5, 3, 7)


class TestRunTrial:
    def test_zero_beta_collapses_modes(self):
        cfg = small_config(channel=ChannelParams(reflection_coeff=0.0))
        triad, baseline = run_trial(cfg, 11)
        assert triad.ee == baseline.ee
        assert triad.plan.k == baseline.plan.k
        assert np.array_equal(triad.served_mask, baseline.served_mask)

    def test_no_tags_collapses_modes(self):
        cfg = small_config(n_tags=0)
        triad, baseline = run_trial(cfg, 11)
        assert triad.ee == baseline.ee
        assert np.array_equal(triad.served_mask, baseline.served_mask)

    def test_triad_never_worse(self):
        cfg = small_config(n_ues=30)
        for t in range(10):
            triad, baseline = run_trial(cfg, derive_trial_seed(cfg.seed, 0, t))
            if np.array_equal(triad.served_mask, baseline.served_mask):
                assert triad.ee >= baseline.ee
            else:
                assert (np.count_nonzero(triad.served_mask)
                        >= np.count_nonzero(baseline.served_mask))

    def test_triad_not_worse_where_grouping_once_fell_short(self):
        # Lloyd k-means stopped at a worse triad partition on this trial
        # than on the baseline's near-identical features, and triad EE
        # came out below baseline EE.  Exact grouping finds the optimum in
        # both modes.
        triad, baseline = run_trial(SimConfig(n_ues=20),
                                    derive_trial_seed(11, 1, 2))
        assert np.array_equal(triad.served_mask, baseline.served_mask)
        assert triad.ee >= baseline.ee


class TestSweeps:
    def test_single_point_paired_records(self):
        cfg = small_config(n_trials=1, n_ues=70)
        rep = sweep(cfg, "n_ues", [70])
        assert len(rep.records) == 2
        assert {r.mode for r in rep.records} == {"triad", "baseline"}

    def test_cross_sweep_consistency(self):
        cfg = small_config(n_trials=3, n_ues=70)
        users = sweep(cfg, "n_ues", [70])
        data = sweep(cfg, "data_bits", [60_000.0])
        for ru, rd in zip(users.records, data.records):
            assert ru.ee == rd.ee
            assert ru.served == rd.served
            assert ru.k == rd.k

    def test_more_users_less_efficiency(self):
        cfg = SimConfig(seed=9, n_trials=50)
        rep = sweep(cfg, "n_ues", [10, 100])
        agg = {(a.sweep_value, a.mode): a.mean_ee for a in rep.aggregates}
        assert agg[(10, "triad")] > agg[(100, "triad")]

    def test_more_data_less_efficiency(self):
        cfg = SimConfig(seed=9, n_trials=50)
        rep = sweep(cfg, "data_bits", [30_000.0, 120_000.0])
        agg = {(a.sweep_value, a.mode): a.mean_ee for a in rep.aggregates}
        assert agg[(30_000.0, "triad")] > agg[(120_000.0, "triad")]
        assert agg[(30_000.0, "baseline")] > agg[(120_000.0, "baseline")]

    def test_positive_gap_at_every_size(self):
        cfg = small_config(n_trials=10, n_ues=30)
        rep = sweep(cfg, "data_bits", [30_000.0, 60_000.0, 120_000.0])
        agg = {(a.sweep_value, a.mode): a.mean_ee for a in rep.aggregates}
        for size in (30_000.0, 60_000.0, 120_000.0):
            assert agg[(size, "triad")] > agg[(size, "baseline")]

    def test_simulation_error_names_sweep_point_and_trial(self):
        cfg = small_config(n_trials=2)
        seed = derive_trial_seed(cfg.seed, 0, 0)
        with pytest.raises(InfeasibleDemandError) as info:
            sweep(cfg, "data_bits", [1e9])
        message = str(info.value)
        assert "exceeds the supported range" in message
        assert "1e+09" in message
        assert "trial 0," in message
        assert f"trial seed {seed}" in message

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "n_ues", [])
        with pytest.raises(ValueError):
            sweep(small_config(), "data_bits", [])

    @pytest.mark.parametrize("key, values, lo, hi", [
        ("n_ues", [8, 8], "8", "8"),
        ("data_bits", [30_000.0, 60_000.0, 30_000], "60000", "30000"),
        ("n_ues", [12, 5], "12", "5"),
    ], ids=["repeat", "repeat-later", "descending"])
    def test_not_strictly_ascending_rejected(self, key, values, lo, hi):
        # the report lists the points in the order given
        with pytest.raises(ValueError,
                           match=f"{key} sweep values must ascend strictly; "
                                 f"{hi} follows {lo}"):
            sweep(SimConfig(n_trials=2, n_ues=8, n_tags=3), key, values)

    def test_report_order(self):
        rep = sweep(small_config(n_trials=3), "n_ues", [5, 12])
        assert [(r.sweep_value, r.trial, r.mode) for r in rep.records] == [
            (v, t, m) for v in (5, 12) for t in range(3)
            for m in ("baseline", "triad")]
        assert [(a.sweep_value, a.mode) for a in rep.aggregates] == [
            (v, m) for v in (5, 12) for m in ("baseline", "triad")]

    def test_aggregates_recomputable(self):
        cfg = small_config(n_trials=8)
        rep = sweep(cfg, "n_ues", [5, 12])
        for agg in rep.aggregates:
            ees = [r.ee for r in rep.records
                   if r.sweep_value == agg.sweep_value
                   and r.mode == agg.mode]
            assert agg.n_trials == len(ees)
            assert agg.mean_ee == pytest.approx(np.mean(ees), rel=1e-9)


def aggregate_by_filter(records):
    """Aggregates with one filter pass over the records per key."""
    out = []
    for value, mode in sorted({(r.sweep_value, r.mode) for r in records}):
        ees = np.array([r.ee for r in records
                        if r.sweep_value == value and r.mode == mode])
        n = ees.size
        std = float(np.std(ees, ddof=1)) if n > 1 else 0.0
        out.append(Aggregate(sweep_value=value, mode=mode,
                             mean_ee=float(ees.mean()), std_ee=std,
                             ci95_half=1.96 * std / math.sqrt(n),
                             n_trials=n))
    return out


class TestAggregate:
    def test_sweep_aggregates_equal_per_key_filter(self):
        rep = sweep(small_config(n_trials=4), "n_ues", [5, 12])
        assert rep.aggregates == aggregate_by_filter(rep.records)


class TestWriteResults:
    def test_empty_report_headers_only(self, tmp_path):
        trials, aggs = write_results(EeReport([], []), tmp_path)
        assert trials.read_text().splitlines() == [
            "sweep_value,trial,mode,ee_bits_per_joule,served,outage,k,"
            "f_statistic"]
        assert aggs.read_text().splitlines() == [
            "sweep_value,mode,mean_ee,std_ee,ci95_half,n_trials"]

    def test_one_trial_two_rows(self, tmp_path):
        cfg = small_config(n_trials=1)
        rep = sweep(cfg, "n_ues", [cfg.n_ues])
        trials, _ = write_results(rep, tmp_path)
        lines = trials.read_text().splitlines()
        assert len(lines) == 3  # header + baseline + triad
        assert lines[1].split(",")[2] == "baseline"
        assert lines[2].split(",")[2] == "triad"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(n_trials=4)
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        write_results(sweep(cfg, "n_ues", [8, 12]), p1)
        write_results(sweep(cfg, "n_ues", [8, 12]), p2)
        assert (p1 / "trials.csv").read_bytes() == \
            (p2 / "trials.csv").read_bytes()
        assert (p1 / "aggregates.csv").read_bytes() == \
            (p2 / "aggregates.csv").read_bytes()

    def test_unwritable_destination(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            write_results(EeReport([], []), blocker / "sub")


def test_config_defaults_match_case_study():
    cfg = SimConfig()
    assert cfg.coverage_radius == 300.0
    assert cfg.n_subcarriers == 128
    assert cfg.bandwidth == 1e6
    assert cfg.p_max == 0.2
    assert cfg.uav_altitude == 100.0
    assert cfg.circuit_power == 5.0
    assert cfg.data_bits == 60_000.0
    assert cfg.n_ues == 70


class TestValidationOnEveryPath:
    def test_run_trial_config_below_ground_rejected(self):
        with pytest.raises(ConfigError, match="uav_altitude"):
            run_trial(SimConfig(uav_altitude=1.0, n_ues=10), 1)

    def test_sweep_config_with_nan_rejected(self):
        with pytest.raises(ConfigError, match="circuit_power"):
            sweep(SimConfig(circuit_power=float("nan")), "n_ues", [10])

    def test_sweep_value_of_the_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="n_ues"):
            sweep(small_config(), "n_ues", [10.5])

    @pytest.mark.parametrize("n_ues, n_tags, keys", [
        (13_107, 0, "n_ues"),
        (10 ** 12, 10, "n_ues"),
        (1, 429_496_730, "n_ues and n_tags"),
        (100, 4_294_968, "n_ues and n_tags"),
        (19, 22_605_092, "n_ues and n_tags"),
        (1, 31_122_951, "n_ues and n_tags"),
        (100, 3_807_584, "n_ues and n_tags"),
        (92, 4_098_241, "n_ues and n_tags"),
    ])
    def test_over_memory_budget_rejected(self, n_ues, n_tags, keys):
        # built, never run: the check must not allocate what it bounds
        with pytest.raises(ConfigError, match=f"^{keys} would need"):
            SimConfig(n_ues=n_ues, n_tags=n_tags)

    def test_largest_within_memory_budget_accepted(self):
        SimConfig(n_ues=13_106, n_tags=0)
        SimConfig(n_ues=1, n_tags=31_122_950)
        SimConfig(n_ues=100, n_tags=3_807_583)
        # the channel takes 10 bytes a pair and 128 a point, and
        # 10 * 92 * 4098240 + 128 * (92 + 4098240) is the whole of 2^32
        SimConfig(n_ues=92, n_tags=4_098_240)

    @pytest.mark.parametrize("n_ues, n_tags", [(1, 200_000), (300, 3000)])
    def test_trial_peak_within_counted_bytes(self, monkeypatch, n_ues,
                                             n_tags):
        # a budget one byte under what one trial took must refuse it
        config = SimConfig(n_ues=n_ues, n_tags=n_tags)
        run_trial(config, 3)  # the first call imports and caches
        tracemalloc.start()
        try:
            run_trial(config, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.setattr("ambcsim.config.MEMORY_BUDGET", peak - 1)
        with pytest.raises(ConfigError, match="^n_ues and n_tags would"):
            SimConfig(n_ues=n_ues, n_tags=n_tags)

    def test_sweep_point_over_budget_rejected_before_any_trial(
            self, monkeypatch):
        # n_ues = 10 fits 200000 bytes, 90 needs 25 * 91^2 = 207025
        calls = []
        monkeypatch.setattr("ambcsim.config.MEMORY_BUDGET", 200_000)
        monkeypatch.setattr(harness, "run_trial",
                            lambda *a: calls.append(a) or run_trial(*a))
        with pytest.raises(ConfigError, match="^n_ues would need 207025"):
            sweep(SimConfig(n_trials=1), "n_ues", [10, 90])
        assert calls == []

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="n_ues"):
            dataclasses.replace(SimConfig(), n_ues=0)
