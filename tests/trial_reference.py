"""Whole-trial reference: ``ambcsim.harness.run_trial`` composed from the
test references.

Each mode's gains come from ``geometry_reference.full_block_gains``,
exact over the whole UE x tag block; its grouping from
``clustering_reference.optimal_splits`` with every layer in full, the
numpy elbow, ``ambcsim.clustering._trace_back`` and the numpy subcarrier
split; each cluster's powers from ``sic_reference.gather_and_divide``;
and the EE from its formula, summed cluster by cluster.  ``run_trial``
must match it bit for bit.
"""

import math

import numpy as np

import clustering_reference
from ambcsim.clustering import _trace_back
from ambcsim.harness import sample_deployment
from geometry_reference import full_block_gains
from sic_reference import gather_and_divide


def reference_trial(config, trial_seed):
    """{mode: (ee, served_mask, k, assignment, subcarriers)} of both
    modes of one trial."""
    deployment = sample_deployment(config, trial_seed)
    rate = config.data_bits / config.frame_duration
    circuit = 10.0 ** ((config.circuit_power - 30.0) / 10.0)
    out = {}
    for mode in ("triad", "baseline"):
        gains = full_block_gains(deployment, config.channel,
                                 mode == "triad").effective_gain
        k_hi = min(config.k_max, gains.size, config.n_subcarriers)
        order, wcss, splits = clustering_reference.optimal_splits(
            10.0 * np.log10(gains), k_hi)
        k = clustering_reference.elbow_select_k(wcss)
        assignment, sizes = _trace_back(order, splits, k)
        subcarriers = clustering_reference.allocate_subcarriers(
            sizes, config.n_subcarriers)
        served = np.zeros(gains.size, dtype=bool)
        tx_power = 0.0
        for c in range(k):
            idx = np.flatnonzero(assignment == c)
            bw = int(subcarriers[c]) * (config.bandwidth
                                        / config.n_subcarriers)
            noise = 10.0 ** ((config.channel.noise_psd
                              + 10.0 * math.log10(bw) - 30.0) / 10.0)
            power, outage = gather_and_divide(
                gains[idx], 2.0 ** (rate / bw) - 1.0, noise, config.p_max)
            served[idx] = ~outage
            tx_power += float(np.add.reduce(power[~outage]))
        n = int(np.count_nonzero(served))
        ee = (config.data_bits * n / (config.frame_duration
                                      * (tx_power + circuit * n))
              if n else 0.0)
        out[mode] = (ee, served, k, assignment, subcarriers)
    return out
