"""Output checks of one finished CLI campaign, run outside the timed loop.

Three groups, each returning a list of problems (empty when all hold):

* ``check_csv``: properties of the whole ``trials.csv``/``aggregates.csv``,
  parsed by header name so that added columns do not break it;
* ``check_sample``: a sample of trials re-run through ``run_trial`` and
  compared with the independent oracles in ``oracles.py``;
* ``check_rerun``: the campaign re-run from its ``config.snapshot.json``
  must give byte-identical CSVs.
"""

import csv
import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np

import oracles
from spans import patched

# The sweep points of each CLI subcommand, as the CLI documents them.
SWEEP_POINTS = {
    "sweep-users": [float(n) for n in range(10, 101, 10)],
    "sweep-data": [s * 1000.0 for s in range(20, 101, 10)],
}
MODES = ("baseline", "triad")
CSV_FILES = ("trials.csv", "aggregates.csv")
REL_TOL = 1e-9


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_snapshot(campaign_dir):
    path = Path(campaign_dir) / "config.snapshot.json"
    return json.loads(path.read_text(encoding="utf-8"))


def point_setting(subcommand, snapshot, value):
    """(n_ues, data_bits) in force at one sweep point."""
    if subcommand == "sweep-users":
        return int(value), float(snapshot["data_bits"])
    return int(snapshot["n_ues"]), float(value)


def check_csv(campaign_dir, subcommand):
    """Whole-output properties of one campaign's CSVs."""
    snap = load_snapshot(campaign_dir)
    trials = _read_rows(Path(campaign_dir) / "trials.csv")
    aggs = _read_rows(Path(campaign_dir) / "aggregates.csv")
    points = SWEEP_POINTS[subcommand]
    n_trials = int(snap["n_trials"])
    circuit_w = oracles.dbm_to_watts(float(snap["circuit_power"]))
    frame = float(snap["frame_duration"])
    problems = []

    if len(trials) != len(points) * n_trials * len(MODES):
        problems.append(f"trials.csv has {len(trials)} rows, expected "
                        f"{len(points)} points x {n_trials} trials x 2 modes")
    keys = {(float(r["sweep_value"]), int(r["trial"]), r["mode"])
            for r in trials}
    expected = {(v, t, m) for v in points for t in range(n_trials)
                for m in MODES}
    if keys != expected:
        problems.append("trials.csv keys differ from points x trials x modes")

    ees = {}
    for r in trials:
        value = float(r["sweep_value"])
        n_ues, data_bits = point_setting(subcommand, snap, value)
        where = f"trials.csv {value:g}/{r['trial']}/{r['mode']}"
        served, outage, k = int(r["served"]), int(r["outage"]), int(r["k"])
        ee = float(r["ee_bits_per_joule"])
        if served + outage != n_ues:
            problems.append(f"{where}: served + outage = {served + outage} "
                            f"!= n_ues {n_ues}")
        if not 1 <= k <= min(int(snap["k_max"]), n_ues):
            problems.append(f"{where}: k = {k} out of range")
        ee_cap = data_bits / (frame * circuit_w)
        if not 0.0 < ee <= ee_cap:
            problems.append(f"{where}: EE {ee} outside (0, {ee_cap}]")
        ees.setdefault((value, r["mode"]), []).append(ee)

    if len(aggs) != len(points) * len(MODES):
        problems.append(f"aggregates.csv has {len(aggs)} rows")
    for a in aggs:
        key = (float(a["sweep_value"]), a["mode"])
        sample = np.array(ees.get(key, []))
        where = f"aggregates.csv {key[0]:g}/{key[1]}"
        if sample.size != n_trials or int(a["n_trials"]) != n_trials:
            problems.append(f"{where}: n_trials {a['n_trials']} but "
                            f"{sample.size} trial rows")
            continue
        mean = float(sample.mean())
        std = float(sample.std(ddof=1)) if sample.size > 1 else 0.0
        # CSV values carry 12 significant digits, so compare both against
        # the scale of the mean.
        if abs(float(a["mean_ee"]) - mean) > REL_TOL * abs(mean):
            problems.append(f"{where}: mean_ee {a['mean_ee']} != {mean}")
        if abs(float(a["std_ee"]) - std) > REL_TOL * abs(mean):
            problems.append(f"{where}: std_ee {a['std_ee']} != {std}")
    return problems


def _xyz(p):
    return (float(p.x), float(p.y), float(p.z))


def _partition(assignment):
    """Cluster labels renumbered by first appearance, so that two equal
    partitions compare equal whatever their labels."""
    first = {}
    return tuple(first.setdefault(int(c), len(first)) for c in assignment)


def triad_below_baseline(triad, baseline):
    """Whether the two modes serve the same UEs and triad EE is lower.
    Backscatter only adds gain, so on the same UEs triad EE must not be
    lower."""
    return (np.array_equal(triad.served_mask, baseline.served_mask)
            and triad.ee < baseline.ee * (1.0 - REL_TOL))


def _rerun_trial(harness, config, trial_seed):
    """run_trial on one seed, keeping each mode's ChannelState."""
    gains_fn, evaluate_fn = harness.effective_gains, harness.evaluate_mode
    last, by_mode = {}, {}

    def gains(*args, **kwargs):
        last["state"] = gains_fn(*args, **kwargs)
        return last["state"]

    def evaluate(*args, **kwargs):
        result = evaluate_fn(*args, **kwargs)
        by_mode[result.mode] = (last["state"], result)
        return result

    with patched([(harness, "effective_gains", gains),
                  (harness, "evaluate_mode", evaluate)]):
        harness.run_trial(config, trial_seed)
    return by_mode


def _check_mode(cfg, deployment, state, result, row, where):
    ch = cfg.channel
    problems = []
    uav = _xyz(deployment.uav_position)
    direct = [10.0 ** (-oracles.a2g_path_loss_db(
        _xyz(ue), uav, ch.carrier_freq, ch.plos_a, ch.plos_b, ch.eta_los,
        ch.eta_nlos) / 10.0) for ue in deployment.ue_positions]
    if not np.allclose(direct, state.direct_gain, rtol=REL_TOL, atol=0.0):
        problems.append(f"{where}: direct gains differ from the A2G oracle")
    eff = np.asarray(state.effective_gain, dtype=float)
    if result.mode == "baseline" and not np.array_equal(
            eff, state.direct_gain):
        problems.append(f"{where}: baseline effective gain != direct gain")
    if not np.all(eff >= state.direct_gain):
        problems.append(f"{where}: effective gain below direct gain")

    plan = result.plan
    features = 10.0 * np.log10(eff)
    labels = np.asarray(plan.assignment)[np.argsort(features, kind="stable")]
    runs = 1 + int(np.count_nonzero(labels[1:] != labels[:-1]))
    if runs != plan.k or np.unique(labels).size != plan.k:
        problems.append(f"{where}: clusters are not contiguous in dB gain")
    k_hi = min(cfg.k_max, eff.size)
    optimum = oracles.optimal_wcss(features, k_hi)
    curve = list(plan.wcss_curve)
    if len(curve) != k_hi or any(w < opt * (1.0 - REL_TOL) - 1e-12
                                 for w, opt in zip(curve, optimum)):
        problems.append(f"{where}: WCSS curve below the DP optimum")
    subcarriers = np.asarray(plan.subcarriers_per_cluster)
    if (subcarriers.size != plan.k or subcarriers.sum() != cfg.n_subcarriers
            or subcarriers.min() < 1):
        problems.append(f"{where}: subcarriers {subcarriers.tolist()}")

    served_powers = []
    for c, sol in enumerate(result.solutions):
        idx = np.flatnonzero(plan.assignment == c)
        g = eff[idx]
        bw = float(subcarriers[c]) * cfg.bandwidth / cfg.n_subcarriers
        gamma = 2.0 ** (cfg.data_bits / cfg.frame_duration / bw) - 1.0
        noise = oracles.noise_watts(bw, ch.noise_psd)
        served = ~np.asarray(sol.outage)
        p = np.asarray(sol.power, dtype=float)
        if np.any(p > cfg.p_max) or np.any(p[~served] != 0.0):
            problems.append(f"{where}: cluster {c} power over p_max or "
                            f"non-zero in outage")
        if served.any():
            sinr = oracles.sic_sinr(p[served], g[served], noise)
            if np.any(sinr < gamma * (1.0 - REL_TOL)):
                problems.append(f"{where}: cluster {c} SINR below gamma")
            expect = oracles.sic_min_powers(g[served], gamma, noise)
            if not np.allclose(p[served], expect, rtol=REL_TOL, atol=0.0):
                problems.append(f"{where}: cluster {c} powers differ from "
                                f"the linear-solve oracle")
        served_powers.extend(p[served])

    ee = oracles.energy_efficiency(
        served_powers, cfg.data_bits, cfg.frame_duration,
        oracles.dbm_to_watts(cfg.circuit_power))
    # The CSV keeps 12 significant digits.
    if not math.isclose(ee, float(row["ee_bits_per_joule"]), rel_tol=1e-10):
        problems.append(f"{where}: EE oracle {ee} != CSV "
                        f"{row['ee_bits_per_joule']}")
    if (len(served_powers) != int(row["served"])
            or plan.k != int(row["k"])):
        problems.append(f"{where}: served/k differ from the CSV row")
    return problems


def check_sample(campaign_dir, subcommand, sample_seed):
    """Re-run one random trial per sweep point and check it with oracles."""
    from ambcsim import harness
    from ambcsim.channel import ChannelParams
    from ambcsim.config import SimConfig

    snap = load_snapshot(campaign_dir)
    cfg = SimConfig(**dict(snap, channel=ChannelParams(**snap["channel"])))
    rows = {(float(r["sweep_value"]), int(r["trial"]), r["mode"]): r
            for r in _read_rows(Path(campaign_dir) / "trials.csv")}
    rng = random.Random(sample_seed)
    problems = []
    for si, value in enumerate(SWEEP_POINTS[subcommand]):
        t = rng.randrange(cfg.n_trials)
        n_ues, data_bits = point_setting(subcommand, snap, value)
        point_cfg = dataclasses.replace(cfg, n_ues=n_ues, data_bits=data_bits)
        seed = harness.derive_trial_seed(cfg.seed, si, t)
        deployment = harness.sample_deployment(point_cfg, seed)
        by_mode = _rerun_trial(harness, point_cfg, seed)
        for mode in MODES:
            state, result = by_mode[mode]
            problems += _check_mode(point_cfg, deployment, state, result,
                                    rows[(value, t, mode)],
                                    f"{value:g}/{t}/{mode}")
        # Triad EE >= baseline EE on the same served UEs, here where the
        # two modes also group them alike.  Where they group them
        # differently, the k-means in ambcsim.clustering can stop at a
        # worse partition in one mode, so the property fails on some
        # seeds; run.py checks it on a fixed trial that shows that fault.
        triad, baseline = by_mode["triad"][1], by_mode["baseline"][1]
        if (_partition(triad.plan.assignment)
                == _partition(baseline.plan.assignment)
                and triad_below_baseline(triad, baseline)):
            problems.append(f"{value:g}/{t}: triad EE {triad.ee} below "
                            f"baseline EE {baseline.ee} on the same UEs "
                            f"and clusters")
    return problems


def check_rerun(campaign_dir, subcommand, rerun_dir, cli_main):
    """Re-running from config.snapshot.json reproduces the CSV bytes."""
    snapshot = Path(campaign_dir) / "config.snapshot.json"
    code = cli_main([subcommand, "--config", str(snapshot),
                     "--out", str(rerun_dir)])
    if code != 0:
        return [f"re-run from the snapshot exited with {code}"]
    return [f"re-run from the snapshot changed {name}" for name in CSV_FILES
            if (Path(campaign_dir) / name).read_bytes()
            != (Path(rerun_dir) / name).read_bytes()]
