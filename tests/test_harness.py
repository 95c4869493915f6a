import csv
import dataclasses
import fractions
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcsim.channel import ChannelParams, a2g_path_loss, positions
from ambcsim.config import ConfigError, SimConfig, _cell_gains, dbm_to_watts
from ambcsim import clustering, harness
from ambcsim.harness import (Aggregate, EeReport, derive_trial_seed,
                             run_trial, sample_deployment, sweep,
                             write_results)
from ambcsim.power import InfeasibleDemandError
from trial_reference import reference_trial


# the keys that the grouping DP's memory refusal names
DP_KEYS = "n_ues, n_tags, k_max and n_subcarriers"


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
        # the last record of the nodes' array, at radius 0
        assert dep.uav_position.item() == (0.0, 0.0, cfg.uav_altitude)
        assert math.copysign(1.0, dep.uav_position.x) == 1.0
        assert math.copysign(1.0, dep.uav_position.y) == 1.0

    def test_rows_and_records_read_only(self):
        # the deployment caches its links to the UAV, so no write may
        # reach its coordinates; each record view is positions() of its
        # rows, byte for byte
        cfg = small_config(n_ues=7, n_tags=5)
        dep = sample_deployment(cfg, 11)
        xyz = dep.xyz
        assert xyz.shape == (3, 13) and not xyz.flags.writeable
        rows = {"ue": xyz[:, :7], "tag": xyz[:, 7:-1], "uav": xyz[:, -1]}
        views = {"ue": dep.ue_positions, "tag": dep.tag_positions,
                 "uav": dep.uav_position}
        for part, view in views.items():
            assert view.dtype == positions(*rows[part]).dtype
            assert view.tobytes() == positions(*rows[part]).tobytes()
            for c in "xyz":
                with pytest.raises(ValueError, match="read-only"):
                    if part == "uav":
                        view[c] = 1.0
                    else:
                        view[c][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            xyz[2, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dep.uav_position.x = 1.0
        links = dep.uav_links(cfg.channel)
        assert not any(a.flags.writeable for a in links)

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

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_one_uav_link_pass_serves_both_modes(self, monkeypatch, beta):
        sizes = []

        def recording(distance, angle, params):
            sizes.append(np.size(distance))
            return a2g_path_loss(distance, angle, params)

        cfg = small_config(channel=ChannelParams(reflection_coeff=beta))
        monkeypatch.setattr("ambcsim.channel.a2g_path_loss", recording)
        for seed in range(5):
            sizes.clear()
            run_trial(cfg, seed)
            if beta > 0.0:
                # the links of all 16 nodes to the UAV, then the UE-tag
                # pairs that the bound keeps
                assert sizes[0] == 16 and len(sizes) == 2
            else:
                assert sizes == [12]

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(n_ues=st.integers(1, 39), n_tags=st.integers(0, 59),
           radius=st.floats(1.0, 4.0).map(lambda e: 10.0 ** e),
           altitude=st.floats(5.0, 500.0), k_max=st.integers(1, 11),
           n_subcarriers=st.integers(1, 199),
           p_max=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
           data_bits=st.floats(1e3, 3e5),
           beta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2 ** 32))
    def test_matches_whole_trial_reference(self, n_ues, n_tags, radius,
                                           altitude, k_max, n_subcarriers,
                                           p_max, data_bits, beta, seed):
        cfg = SimConfig(n_ues=n_ues, n_tags=n_tags, coverage_radius=radius,
                        uav_altitude=altitude, k_max=k_max,
                        n_subcarriers=n_subcarriers, p_max=p_max,
                        data_bits=data_bits,
                        channel=ChannelParams(reflection_coeff=beta))
        want = reference_trial(cfg, seed)
        for got in run_trial(cfg, seed):
            ee, served, k, assignment, subcarriers = want[got.mode]
            assert got.ee.hex() == ee.hex()
            np.testing.assert_array_equal(got.served_mask, served)
            assert got.plan.k == k
            np.testing.assert_array_equal(got.plan.assignment, assignment)
            np.testing.assert_array_equal(
                got.plan.subcarriers_per_cluster, subcarriers)


class TestSweeps:
    def test_single_point_paired_records(self):
        cfg = small_config(n_trials=1, n_ues=70)
        rep = sweep(cfg, "n_ues", [70])
        assert len(rep.records) == 2
        assert set(rep.records["mode"].tolist()) == {"triad", "baseline"}

    def test_cross_sweep_consistency(self):
        cfg = small_config(n_trials=3, n_ues=70)
        users = sweep(cfg, "n_ues", [70])
        data = sweep(cfg, "data_bits", [60_000.0])
        for name in ("ee", "served", "k"):
            assert np.array_equal(users.records[name], data.records[name])

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

    @pytest.mark.parametrize("seed", [1, 9, 42])
    def test_ee_peaks_in_payload_where_transmit_power_takes_over(self, seed):
        # Why EE rises with payload at the defaults: transmit power is
        # under 1 % of the total at 60 kbit and over 1/2 at 500 kbit, and
        # mean EE peaks between, higher at 180 kbit than at 60 and 300.
        # Every payload runs the same 10 deployments (sweep index 0).
        circuit = dbm_to_watts(SimConfig().circuit_power)
        mean_ee = {}
        for bits in (60_000.0, 180_000.0, 300_000.0, 500_000.0):
            config = SimConfig(seed=seed, data_bits=bits)
            ees, shares = [], []
            for t in range(10):
                for result in run_trial(config,
                                        derive_trial_seed(seed, 0, t)):
                    served = [~sol.outage for sol in result.solutions]
                    tx = sum(float(sol.power[mask].sum()) for sol, mask
                             in zip(result.solutions, served))
                    n_served = sum(int(mask.sum()) for mask in served)
                    ees.append(result.ee)
                    shares.append(tx / (tx + circuit * n_served))
            mean_ee[bits] = np.mean(ees)
            if bits == 60_000.0:
                assert max(shares) < 0.01
            if bits == 500_000.0:
                assert min(shares) > 0.5
        assert mean_ee[180_000.0] > mean_ee[60_000.0]
        assert mean_ee[180_000.0] > mean_ee[300_000.0]

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
        assert "at data_bits sweep value 1000000000, " in message
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
        # every digit, where :g would print 4.61169e+18 for both
        ("seed", [2 ** 62 + 1, 2 ** 62], "4611686018427387905",
         "4611686018427387904"),
    ], ids=["repeat", "repeat-later", "descending", "int-digits"])
    def test_not_strictly_ascending_rejected(self, key, values, lo, hi):
        # the report lists the points in the order given
        with pytest.raises(ValueError,
                           match=f"{key} sweep values must ascend strictly; "
                                 f"{hi} follows {lo}"):
            sweep(SimConfig(n_trials=2, n_ues=8, n_tags=3), key, values)

    def test_report_order(self):
        rep = sweep(small_config(n_trials=3), "n_ues", [5, 12])
        assert rep.records[["sweep_value", "trial", "mode"]].tolist() == [
            (v, t, m) for v in (5, 12) for t in range(3)
            for m in ("baseline", "triad")]
        assert [(a.sweep_value, a.mode) for a in rep.aggregates] == [
            (v, m) for v in (5, 12) for m in ("baseline", "triad")]
        # 2 P T rows, so each point's (T, 2) columns are one reshape away
        columns = rep.records.reshape(2, 3, 2)
        assert columns["mode"].tolist() == [[["baseline", "triad"]] * 3] * 2
        assert columns["trial"][1, :, 0].tolist() == [0, 1, 2]

    def test_aggregates_recomputable(self):
        cfg = small_config(n_trials=8)
        rep = sweep(cfg, "n_ues", [5, 12])
        for agg in rep.aggregates:
            ees = [r["ee"] for r in rep.records
                   if r["sweep_value"] == agg.sweep_value
                   and r["mode"] == agg.mode]
            assert agg.n_trials == len(ees)
            assert agg.mean_ee == pytest.approx(np.mean(ees), rel=1e-9)


def aggregate_by_filter(records):
    """Aggregates with one filter pass over the records per key."""
    out = []
    for value, mode in sorted(set(records[["sweep_value", "mode"]].tolist())):
        ees = np.array([r["ee"] for r in records
                        if r["sweep_value"] == value and r["mode"] == mode])
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

    # numpy's pairwise sum unrolls by 8 and recurses past 128 values
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 128, 129, 1000])
    def test_bits_match_numpy_mean_and_std(self, n):
        rng = np.random.default_rng(n)
        cases = [
            rng.random(n) * 10.0 ** rng.integers(-150, 150, n),  # decades
            1e7 + rng.random(n),             # a large mean, small spread
            np.where(rng.random(n) < 0.5, 0.0, 1e-300 * rng.random(n)),
            np.full(n, 3.7e5),
        ]
        for ees in cases:
            before = ees.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                agg = harness._aggregate(5, "triad", ees)
                std = float(np.std(ees, ddof=1)) if n > 1 else 0.0
                mean = float(ees.mean())
            assert np.array_equal(ees, before)
            assert agg.mean_ee.hex() == mean.hex()
            assert agg.std_ee.hex() == std.hex()
            assert agg.ci95_half.hex() == (1.96 * std / math.sqrt(n)).hex()
            assert agg.n_trials == n


def _cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def csv_write_results(report, out_dir):
    """The csv.writer form of write_results, cell by cell: the
    comparator for the one-write form."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sweep_value", "trial", "mode", "ee_bits_per_joule",
                    "served", "outage", "k", "f_statistic"])
        for value, t, mode, ee, served, outage, k, f in (
                report.records.tolist()):
            w.writerow([_cell(value), _cell(t), mode, _cell(ee),
                        _cell(served), _cell(outage), _cell(k), _cell(f)])
    with open(out / "aggregates.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sweep_value", "mode", "mean_ee", "std_ee",
                    "ci95_half", "n_trials"])
        for a in report.aggregates:
            w.writerow([_cell(a.sweep_value), a.mode, _cell(a.mean_ee),
                        _cell(a.std_ee), _cell(a.ci95_half),
                        _cell(a.n_trials)])


class TestWriteResults:
    def test_empty_report_headers_only(self, tmp_path):
        trials, aggs = write_results(
            EeReport(np.zeros(0, harness.RECORD), []), tmp_path)
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

    def test_int_sweep_value_written_whole(self, tmp_path):
        # as a float, 2**62 would be written 4.61168601843e+18
        rep = sweep(small_config(n_trials=2), "seed", [1, 2 ** 62])
        trials, aggs = write_results(rep, tmp_path)
        for path, rows in ((trials, 4), (aggs, 2)):
            lines = path.read_text().splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == (
                ["1"] * rows + ["4611686018427387904"] * rows)

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

    def test_bytes_match_csv_writer(self, tmp_path):
        records = np.array([
            (2 ** 62 + 1, 0, "baseline", 0.0, 3, 0, 1, np.nan),
            (2 ** 62 + 1, 0, "triad", 1e-300, 2, 1, 2, np.inf),
            (60_000.0, 1, "baseline", 123456.789012345678, 0, 8, 3, 0.5),
            (60_000.0, 1, "triad", 1.5e16, 8, 0, 1, 2.0 / 3.0),
        ], harness.RECORD)
        aggregates = [
            Aggregate(2 ** 62 + 1, "baseline", 0.0, 0.0, 0.0, 1),
            Aggregate(2 ** 62 + 1, "triad", 1e-300, np.nan, np.inf, 2),
            Aggregate(60_000.0, "baseline", 123456.789012345678,
                      1.0 / 3.0, 1e-300, 150),
        ]
        reports = [EeReport(records, aggregates),
                   sweep(small_config(n_trials=3), "data_bits",
                         [30_000.0, 61_234.5])]
        for i, report in enumerate(reports):
            want, got = tmp_path / f"csv{i}", tmp_path / f"one{i}"
            csv_write_results(report, want)
            write_results(report, got)
            for name in ("trials.csv", "aggregates.csv"):
                assert (got / name).read_bytes() == (want / name).read_bytes()
        rows = (tmp_path / "one0" / "trials.csv").read_text().splitlines()
        assert rows[1:3] == ["4611686018427387905,0,baseline,0,3,0,1,nan",
                             "4611686018427387905,0,triad,1e-300,2,1,2,inf"]

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

    @pytest.mark.parametrize("cls, kwargs, message", [
        (SimConfig, dict(p_max=True),
         "^p_max must be a real number, got True$"),
        (SimConfig, dict(p_max="0.2"), "^p_max must be a real number"),
        (SimConfig, dict(coverage_radius=None), "^coverage_radius must be a"),
        (SimConfig, dict(channel=None),
         "^channel must be a ChannelParams, got None$"),
        (SimConfig, dict(channel={"noise_psd": -174.0}),
         "^channel must be a ChannelParams"),
        (ChannelParams, dict(reflection_coeff=True),
         "^reflection_coeff must be a real number, got True$"),
        (ChannelParams, dict(noise_psd="-174"), "^noise_psd must be a real"),
        (SimConfig, dict(p_max=math.inf), "^p_max must be finite$"),
        (SimConfig, dict(p_max=math.nan), "^p_max must be finite$"),
        (ChannelParams, dict(carrier_freq=math.inf),
         "^carrier_freq must be finite$"),
        (ChannelParams, dict(carrier_freq=math.nan),
         "^carrier_freq must be finite$"),
    ])
    def test_wrong_type_refused_by_key(self, cls, kwargs, message):
        # the CLI refuses most of these before it builds a config
        with pytest.raises(ConfigError, match=message):
            cls(**kwargs)

    @pytest.mark.parametrize("cls, key, value", [
        (SimConfig, "p_max", np.float64(0.1)),
        (SimConfig, "p_max", fractions.Fraction(1, 5)),
        (ChannelParams, "carrier_freq", np.float64(2.4e9)),
        (ChannelParams, "carrier_freq", fractions.Fraction(24 * 10 ** 8)),
    ])
    def test_any_finite_real_accepted(self, cls, key, value):
        # the check is numbers.Real, not float
        assert getattr(cls(**{key: value}), key) == value

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimConfig().n_ues = 5

    def test_negative_tag_count_rejected(self):
        with pytest.raises(ConfigError,
                           match="^n_tags must be an integer >= 0$"):
            SimConfig(n_tags=-1)

    @pytest.mark.parametrize("n_ues, n_tags, keys", [
        # the DP's rows are labelled by their first key
        pytest.param(13_101, 0, DP_KEYS, id="13101-0-n_ues"),
        pytest.param(13_102, 0, DP_KEYS, id="13102-0-n_ues"),
        pytest.param(13_107, 0, DP_KEYS, id="13107-0-n_ues"),
        pytest.param(10 ** 12, 10, DP_KEYS, id="1000000000000-10-n_ues"),
        (1, 429_496_730, "n_ues and n_tags"),
        (100, 4_294_968, "n_ues and n_tags"),
        (19, 22_605_092, "n_ues and n_tags"),
        (1, 31_122_951, "n_ues and n_tags"),
        (100, 3_807_584, "n_ues and n_tags"),
        (92, 4_098_241, "n_ues and n_tags"),
        # the DP's cached constants count from the second trial on
        (100, 3_807_502, "n_ues and n_tags"),
        (687, 613_121, "n_ues and n_tags"),
        (3000, 142_543, "n_ues and n_tags"),
    ])
    def test_over_memory_budget_rejected(self, n_ues, n_tags, keys):
        # built, never run: the check must not allocate what it bounds
        with pytest.raises(ConfigError, match=f"^{keys} would need"):
            SimConfig(n_ues=n_ues, n_tags=n_tags)

    @pytest.mark.parametrize("key, value", [
        ("n_ues", 10 ** 12), ("n_tags", 2 ** 62)])
    def test_numpy_integer_counts_do_not_wrap(self, key, value):
        # in int64 the byte count of these wraps, with only an overflow
        # RuntimeWarning; it must refuse them as it does Python ints
        with pytest.raises(ConfigError, match=" would need ") as python:
            SimConfig(**{key: value})
        with pytest.raises(ConfigError, match=key) as numpy_int:
            SimConfig(**{key: np.int64(value)})
        assert str(numpy_int.value) == str(python.value)
        # the field keeps the value it was given
        assert type(getattr(SimConfig(**{key: np.int64(12)}), key)) \
            is np.int64

    @pytest.mark.parametrize("n", [13_106, 11_403, 11_402])
    def test_split_tables_over_memory_budget_rejected(self, n):
        # at 13106 the split tables alone would add about 1.37 GB
        with pytest.raises(ConfigError, match=f"^{DP_KEYS} would need"):
            SimConfig(n_ues=n, k_max=n, n_subcarriers=n)

    def test_largest_within_memory_budget_accepted(self):
        SimConfig(n_ues=13_100, n_tags=0)
        SimConfig(n_ues=11_401, k_max=11_401, n_subcarriers=11_401)
        SimConfig(n_ues=1, n_tags=31_122_950)
        SimConfig(n_ues=100, n_tags=3_807_501)
        # the channel takes 10 bytes a pair, 128 a point and the DP's
        # cached 9 (n + 1)^2 + 8 (n + 1), and 10 * 687 * 613120 + 128 *
        # (687 + 613120) + 9 * 688^2 + 8 * 688 is the whole of 2^32
        SimConfig(n_ues=687, n_tags=613_120)

    @pytest.mark.parametrize("kwargs, keys, every_layer", [
        (dict(n_ues=1, n_tags=200_000), "n_ues and n_tags", False),
        (dict(n_ues=300, n_tags=3000), "n_ues and n_tags", False),
        # 300 split tables of 301 indices, counted; the DP stops once the
        # elbow is settled, or with no stop fills every layer
        (dict(n_ues=300, n_tags=10, k_max=300, n_subcarriers=300), DP_KEYS,
         False),
        (dict(n_ues=3000, n_tags=100), DP_KEYS, False),
        (dict(n_ues=3000, n_tags=4800), DP_KEYS, False),
        (dict(n_ues=3000, n_tags=10, k_max=3000, n_subcarriers=3000),
         DP_KEYS, False),
        (dict(n_ues=300, n_tags=10, k_max=300, n_subcarriers=300), DP_KEYS,
         True),
    ], ids=["1-200000", "300-3000", "300-10-k300", "3000-100", "3000-4800",
            "3000-10-k3000", "300-10-k300-every-layer"])
    def test_trial_peak_within_counted_bytes(self, monkeypatch, kwargs,
                                             keys, every_layer):
        # A budget one byte under what a trial took must refuse it.  The
        # warm-up imports at a small n, and the peak covers two trials,
        # as a sweep point runs them.
        if every_layer:
            monkeypatch.setattr(clustering, "ELBOW_SLACK", math.inf)
        config = SimConfig(**kwargs)
        run_trial(small_config(), 3)
        tracemalloc.start()
        try:
            run_trial(config, 3)
            run_trial(config, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.setattr("ambcsim.config.MEMORY_BUDGET", peak - 1)
        with pytest.raises(ConfigError, match=f"^{keys} would need"):
            SimConfig(**kwargs)

    def test_sweep_point_over_budget_rejected_before_any_trial(
            self, monkeypatch):
        # n_ues = 10 and the base config's 70 fit 300000 bytes; 90 is
        # counted at 364817, of which 25 * 91^2 = 207025 for the DP's
        # (n + 1)^2 tables
        calls = []
        monkeypatch.setattr("ambcsim.config.MEMORY_BUDGET", 300_000)
        monkeypatch.setattr(harness, "run_trial",
                            lambda *a: calls.append(a) or run_trial(*a))
        with pytest.raises(ConfigError, match=f"^{DP_KEYS} would need 364817"):
            sweep(SimConfig(n_trials=1), "n_ues", [10, 90])
        assert calls == []

    def test_sweep_point_past_cached_cell_check_rejected_before_any_trial(
            self, monkeypatch):
        # the cell-edge loss is cached by (channel, coverage_radius,
        # uav_altitude): 300 m fills the cache, 1e200 m still refuses,
        # and a second sweep, with both points cached, refuses again
        calls = []
        monkeypatch.setattr(harness, "run_trial",
                            lambda *a: calls.append(a) or run_trial(*a))
        _cell_gains.cache_clear()
        for _ in range(2):
            with pytest.raises(ConfigError, match="^coverage_radius, "
                               "uav_altitude and channel.carrier_freq give "
                               "a cell-edge path loss"):
                sweep(SimConfig(n_trials=1), "coverage_radius",
                      [300.0, 1e200])
        assert calls == []

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="n_ues"):
            dataclasses.replace(SimConfig(), n_ues=0)
