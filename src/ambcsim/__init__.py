"""Deterministic uplink-cell simulator: UAV relay, passive backscatter
tags, k-means NOMA grouping, and minimum-power allocation."""

from .channel import (ChannelParams, ChannelState, a2g_path_loss,
                      effective_gains, noise_power)
from .clustering import (ClusterPlan, allocate_subcarriers, elbow_select_k,
                         group_users, kmeans)
from .config import ConfigError, SimConfig, dbm_to_watts
from .harness import (Deployment, EeReport, derive_trial_seed, run_trial,
                      sample_deployment, sweep, write_results)
from .power import (InfeasibleDemandError, PowerSolution, compute_ee,
                    iterative_power_allocation, sinr_gamma)

__version__ = "0.1.0"
