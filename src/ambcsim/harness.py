"""Monte Carlo experiment driver.

Each trial samples one random deployment and evaluates it twice on the
same positions: once with backscatter tags active ("triad") and once
with them ignored ("baseline"), so the two modes differ only in the
backscatter term (common-random-numbers pairing).  A sweep varies one
configuration field, such as the UE count or the per-UE payload, and
aggregates energy efficiency per mode.
"""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import Deployment, effective_gains, noise_power
from .clustering import ClusterPlan, group_users
from .config import TAG_HEIGHT, UE_HEIGHT, SimConfig, dbm_to_watts
from .power import compute_ee, iterative_power_allocation, sinr_gamma

MODE_TRIAD = "triad"
MODE_BASELINE = "baseline"

_MASK64 = (1 << 64) - 1


@dataclass
class TrialModeResult:
    """One mode of one trial, with full per-cluster detail."""

    mode: str
    ee: float
    served_mask: np.ndarray    # bool per UE
    solutions: list            # PowerSolution per cluster of plan
    plan: ClusterPlan


@dataclass
class Aggregate:
    sweep_value: float
    mode: str
    mean_ee: float
    std_ee: float
    ci95_half: float
    n_trials: int


# One row per trial and mode.  sweep_value keeps the Python value, so an
# int prints with all its digits; mode holds "baseline" whole.
RECORD = np.dtype([
    ("sweep_value", object), ("trial", int), ("mode", "U8"), ("ee", float),
    ("served", int), ("outage", int), ("k", int), ("f_statistic", float)])


@dataclass
class EeReport:
    """records: a flat RECORD array of 2 P T rows for P sweep values and
    T trials, by value, then trial, then mode (baseline, triad), so
    records.reshape(P, T, 2) gives each point's (T, 2) columns.
    aggregates: one Aggregate per value and mode, in the same order."""

    records: np.ndarray
    aggregates: list


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(base_seed, sweep_index, trial_index):
    """64-bit splitmix mixing of (base seed, sweep index, trial index)."""
    x = _splitmix64(base_seed & _MASK64)
    x = _splitmix64((x + sweep_index) & _MASK64)
    return _splitmix64((x + trial_index) & _MASK64)


def sample_deployment(config: SimConfig, trial_seed) -> Deployment:
    """Uniform-in-disk positions; UAV fixed at the cell center.

    Draw order (UE radii, UE azimuths, tag radii, tag azimuths) is part
    of the reproducibility contract.  The radii and azimuths are drawn
    into the x and y rows of the deployment's one (3, n_ues + n_tags + 1)
    block and turned into coordinates in place; the UAV is its last
    column, at radius 0.  Deployment checks the block and keeps a
    read-only copy, since it caches its links.
    """
    n, m = config.n_ues, config.n_tags
    xyz = np.empty((3, n + m + 1))
    r, phi, z = xyz
    rng = np.random.default_rng(trial_seed)
    for out in (r[:n], phi[:n], r[n:-1], phi[n:-1]):
        rng.random(out=out)
    r[-1] = phi[-1] = 0.0
    np.sqrt(r, out=r)
    r *= config.coverage_radius
    phi *= 2.0 * np.pi
    cos = np.cos(phi)
    np.sin(phi, out=phi)
    phi *= r  # y = r sin(phi)
    r *= cos  # x = r cos(phi)
    z[:n], z[n:-1], z[-1] = UE_HEIGHT, TAG_HEIGHT, config.uav_altitude
    return Deployment(xyz, n)


def evaluate_mode(config: SimConfig, deployment: Deployment,
                  mode) -> TrialModeResult:
    """Channel -> grouping -> per-cluster power allocation -> EE; the
    tags are used in the triad mode only."""
    state = effective_gains(deployment, config.channel, mode == MODE_TRIAD)
    plan = group_users(state, config.n_subcarriers, k_max=config.k_max)
    rate = config.data_bits / config.frame_duration
    subcarrier_bw = config.bandwidth / config.n_subcarriers

    served_mask = np.zeros(state.effective_gain.size, dtype=bool)
    solutions = []
    for c, subcarriers in enumerate(plan.subcarriers_per_cluster.tolist()):
        idx = (plan.assignment == c).nonzero()[0]
        bw = subcarriers * subcarrier_bw
        sol = iterative_power_allocation(
            state.effective_gain[idx], sinr_gamma(rate, bw),
            noise_power(bw, config.channel.noise_psd), config.p_max)
        solutions.append(sol)
        served_mask[idx] = ~sol.outage  # the clusters partition the UEs

    ee = compute_ee(solutions, config.data_bits, config.frame_duration,
                    dbm_to_watts(config.circuit_power))
    return TrialModeResult(mode, ee, served_mask, solutions, plan)


def run_trial(config: SimConfig, trial_seed):
    """One paired trial; returns (triad, baseline) on the same deployment."""
    deployment = sample_deployment(config, trial_seed)
    triad = evaluate_mode(config, deployment, MODE_TRIAD)
    baseline = evaluate_mode(config, deployment, MODE_BASELINE)
    return triad, baseline


def _aggregate(value, mode, ees):
    """Mean, sample std and 95 % CI half-width of one point's EEs.  The
    ufuncs that ees.mean() and np.std(ees, ddof=1) run, in their order,
    give the same bits without their Python wrappers."""
    n = ees.size
    mean = float(np.add.reduce(ees) / n)
    dev = ees - mean
    np.multiply(dev, dev, out=dev)
    std = math.sqrt(np.add.reduce(dev) / (n - 1)) if n > 1 else 0.0
    return Aggregate(sweep_value=value, mode=mode, mean_ee=mean, std_ee=std,
                     ci95_half=1.96 * std / math.sqrt(n), n_trials=n)


def sweep(config: SimConfig, key, values) -> EeReport:
    """EE versus one SimConfig field: each trial of each value runs under
    replace(config, **{key: value}), which validates the value by key.
    Every value is validated before the first trial runs.  The values
    must ascend strictly, since the report keeps their order (see
    EeReport)."""
    if not values:
        raise ValueError("a sweep needs at least one value")
    for lo, hi in zip(values, values[1:]):
        if not lo < hi:
            raise ValueError(f"{key} sweep values must ascend strictly; "
                             f"{_fmt(hi)} follows {_fmt(lo)}")
    configs = [replace(config, **{key: value}) for value in values]
    records = np.zeros((len(values), config.n_trials, 2), RECORD)
    aggregates = []
    for si, (value, cfg) in enumerate(zip(values, configs)):
        for t in range(config.n_trials):
            ts = derive_trial_seed(config.seed, si, t)
            try:
                triad, baseline = run_trial(cfg, ts)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"{exc} (at {key} sweep value "
                                f"{_fmt(value)}, trial {t}, trial seed "
                                f"{ts})") from exc
            for m, r in enumerate((baseline, triad)):
                served = int(np.count_nonzero(r.served_mask))
                records[si, t, m] = (value, t, r.mode, r.ee, served,
                                     r.served_mask.size - served, r.plan.k,
                                     r.plan.f_statistic)
        for m, mode in enumerate((MODE_BASELINE, MODE_TRIAD)):
            aggregates.append(_aggregate(value, mode,
                                         records["ee"][si, :, m].copy()))
    return EeReport(records=records.reshape(-1), aggregates=aggregates)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_results(report: EeReport, out_dir):
    """Emit trials.csv and aggregates.csv (UTF-8, LF, 12 sig. digits),
    one row per record and per aggregate in the report's order, each
    file in one write.  Every cell is a number, nan, inf or a mode name,
    so none needs quoting."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        trials_path = out / "trials.csv"
        trials_path.write_text(
            "sweep_value,trial,mode,ee_bits_per_joule,served,outage,k,"
            "f_statistic\n" + "".join(
                f"{_fmt(v)},{t},{mode},{ee:.12g},{s},{o},{k},{f:.12g}\n"
                for v, t, mode, ee, s, o, k, f in report.records.tolist()),
            encoding="utf-8", newline="")
        agg_path = out / "aggregates.csv"
        agg_path.write_text(
            "sweep_value,mode,mean_ee,std_ee,ci95_half,n_trials\n" + "".join(
                f"{_fmt(a.sweep_value)},{a.mode},{a.mean_ee:.12g},"
                f"{a.std_ee:.12g},{a.ci95_half:.12g},{a.n_trials}\n"
                for a in report.aggregates), encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"failed writing results under {out}: {exc}") from exc
    return trials_path, agg_path
