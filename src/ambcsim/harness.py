"""Monte Carlo experiment driver.

Each trial samples one random deployment and evaluates it twice on the
same positions: once with backscatter tags active ("triad") and once
with them ignored ("baseline"), so the two modes differ only in the
backscatter term (common-random-numbers pairing).  A sweep varies one
configuration field, such as the UE count or the per-UE payload, and
aggregates energy efficiency per mode.
"""

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List

import numpy as np

from .channel import effective_gains, noise_power, positions
from .clustering import ClusterPlan, group_users
from .config import TAG_HEIGHT, UE_HEIGHT, SimConfig, dbm_to_watts
from .power import (EeBreakdown, RateDemand, compute_ee,
                    iterative_power_allocation)

MODE_TRIAD = "triad"
MODE_BASELINE = "baseline"

_MASK64 = (1 << 64) - 1


@dataclass
class Deployment:
    """UE and tag positions as XYZ record arrays (channel.positions) and
    the UAV as one XYZ record."""

    ue_positions: np.ndarray
    tag_positions: np.ndarray
    uav_position: np.record


@dataclass
class TrialModeResult:
    """One mode of one trial, with full per-cluster detail."""

    mode: str
    ee: float
    served: int
    outage: int
    k: int
    f_statistic: float
    served_mask: np.ndarray
    solutions: list
    plan: ClusterPlan
    breakdown: EeBreakdown


@dataclass
class TrialRecord:
    sweep_value: float
    trial: int
    trial_seed: int
    mode: str
    ee: float
    served: int
    outage: int
    k: int
    f_statistic: float


@dataclass
class Aggregate:
    sweep_value: float
    mode: str
    mean_ee: float
    std_ee: float
    ci95_half: float
    n_trials: int


@dataclass
class EeReport:
    records: List[TrialRecord]
    aggregates: List[Aggregate]


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
    of the reproducibility contract.
    """
    rng = np.random.default_rng(trial_seed)

    def draw(n, z):
        r = config.coverage_radius * np.sqrt(rng.random(n))
        phi = 2.0 * np.pi * rng.random(n)
        return positions(r * np.cos(phi), r * np.sin(phi), z)

    ues = draw(config.n_ues, UE_HEIGHT)
    tags = draw(config.n_tags, TAG_HEIGHT)
    uav = positions(0.0, 0.0, config.uav_altitude)[()]
    return Deployment(ues, tags, uav)


def evaluate_mode(config: SimConfig, deployment: Deployment, ambc_enabled,
                  mode) -> TrialModeResult:
    """Channel -> grouping -> per-cluster power allocation -> EE."""
    state = effective_gains(deployment, config.channel, ambc_enabled)
    plan = group_users(state, config.n_subcarriers, k_max=config.k_max)
    demand = RateDemand(config.data_bits, config.frame_duration)
    subcarrier_bw = config.bandwidth / config.n_subcarriers

    n = state.effective_gain.size
    served_mask = np.zeros(n, dtype=bool)
    solutions = []
    for c in range(plan.k):
        idx = np.where(plan.assignment == c)[0]
        bw = float(plan.subcarriers_per_cluster[c]) * subcarrier_bw
        noise = noise_power(bw, config.channel.noise_psd)
        sol = iterative_power_allocation(state.effective_gain[idx], demand,
                                         bw, noise, config.p_max)
        solutions.append(sol)
        served_mask[idx[~sol.outage]] = True

    breakdown = compute_ee(solutions, demand,
                           dbm_to_watts(config.circuit_power))
    return TrialModeResult(
        mode=mode, ee=breakdown.ee, served=breakdown.served_count,
        outage=breakdown.outage_count, k=plan.k,
        f_statistic=plan.f_statistic, served_mask=served_mask,
        solutions=solutions, plan=plan, breakdown=breakdown)


def run_trial(config: SimConfig, trial_seed):
    """One paired trial; returns (triad, baseline) on the same deployment."""
    deployment = sample_deployment(config, trial_seed)
    triad = evaluate_mode(config, deployment, config.ambc_enabled,
                          MODE_TRIAD)
    baseline = evaluate_mode(config, deployment, False, MODE_BASELINE)
    return triad, baseline


def _aggregate(records):
    keys = sorted({(r.sweep_value, r.mode) for r in records})
    out = []
    for value, mode in keys:
        ees = np.array([r.ee for r in records
                        if r.sweep_value == value and r.mode == mode])
        n = ees.size
        std = float(np.std(ees, ddof=1)) if n > 1 else 0.0
        out.append(Aggregate(sweep_value=value, mode=mode,
                             mean_ee=float(ees.mean()), std_ee=std,
                             ci95_half=1.96 * std / math.sqrt(n),
                             n_trials=n))
    return out


def sweep(config: SimConfig, key, values) -> EeReport:
    """EE versus one SimConfig field: each trial of each value runs under
    replace(config, **{key: value}), which validates the value by key."""
    if not values:
        raise ValueError("a sweep needs at least one value")
    records = []
    for si, value in enumerate(values):
        cfg = replace(config, **{key: value})
        for t in range(config.n_trials):
            ts = derive_trial_seed(config.seed, si, t)
            try:
                triad, baseline = run_trial(cfg, ts)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"{exc} (at {key} sweep value {value:g}, "
                                f"trial {t}, trial seed {ts})") from exc
            for r in (triad, baseline):
                records.append(TrialRecord(
                    sweep_value=value, trial=t, trial_seed=ts, mode=r.mode,
                    ee=r.ee, served=r.served, outage=r.outage, k=r.k,
                    f_statistic=r.f_statistic))
    return EeReport(records=records, aggregates=_aggregate(records))


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_results(report: EeReport, out_dir):
    """Emit trials.csv and aggregates.csv (UTF-8, LF, 12 sig. digits)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        trials_path = out / "trials.csv"
        with open(trials_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["sweep_value", "trial", "mode", "ee_bits_per_joule",
                        "served", "outage", "k", "f_statistic"])
            rows = sorted(report.records,
                          key=lambda r: (r.sweep_value, r.trial, r.mode))
            for r in rows:
                w.writerow([_fmt(r.sweep_value), _fmt(r.trial), r.mode,
                            _fmt(r.ee), _fmt(r.served), _fmt(r.outage),
                            _fmt(r.k), _fmt(r.f_statistic)])
        agg_path = out / "aggregates.csv"
        with open(agg_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["sweep_value", "mode", "mean_ee", "std_ee",
                        "ci95_half", "n_trials"])
            rows = sorted(report.aggregates,
                          key=lambda a: (a.sweep_value, a.mode))
            for a in rows:
                w.writerow([_fmt(a.sweep_value), a.mode, _fmt(a.mean_ee),
                            _fmt(a.std_ee), _fmt(a.ci95_half),
                            _fmt(a.n_trials)])
    except OSError as exc:
        raise OSError(f"failed writing results under {out}: {exc}") from exc
    return trials_path, agg_path
