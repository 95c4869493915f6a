"""User grouping on the 1-D channel-gain feature (dB).

Pipeline: exact 1-D k-means by dynamic programming, which gives the
globally optimal WCSS for every k = 1..k_max in one pass; elbow selection
of k on that WCSS curve; one-way ANOVA F-test of the chosen partition
(diagnostic only); and proportional subcarrier allocation across
clusters.  Cluster labels ascend with the gain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, linear_to_db


@dataclass
class ClusterPlan:
    """Result of grouping one snapshot of UEs."""

    k: int
    assignment: np.ndarray            # per-UE cluster index in [0, k)
    wcss_curve: list                  # optimal WCSS for k = 1, 2, ...
    f_statistic: float                # nan when k = 1
    subcarriers_per_cluster: np.ndarray


def _optimal_splits(features, k_max):
    """Exact 1-D k-means for every k = 1..k_max in one dynamic program.

    On sorted data an optimal partition is a set of contiguous runs, so
    with cost(i, j) the squared deviation of sorted x[i:j] from its mean,
    D_k[j] = min_i D_{k-1}[i] + cost(i, j) (Wang & Song, "Ckmeans.1d.dp",
    R Journal 2011).  Returns (order, wcss, splits): the stable sort order
    of the features, the optimal WCSS for each k, and for each k the
    argmin table from which the partition is traced back; ties break
    toward the earliest split.
    """
    x = np.asarray(features, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise ValueError("empty feature vector")
    order = np.argsort(x, kind="stable")
    xs = x[order] - x.mean()  # centred, so prefix sums do not cancel badly
    s1 = np.concatenate(([0.0], np.cumsum(xs)))
    s2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    ends = np.arange(n + 1)
    length = ends[:, None] - ends[None, :]  # cost[j, i] is that of x[i:j]
    cost = (s2[:, None] - s2[None, :]
            - (s1[:, None] - s1[None, :]) ** 2 / np.maximum(length, 1))
    cost = np.where(length > 0, np.maximum(cost, 0.0), np.inf)

    best = np.full(n + 1, np.inf)  # D_0: only the empty prefix is free
    best[0] = 0.0
    total = np.empty_like(cost)
    wcss, splits = [], []
    for _ in range(k_max):
        np.add(cost, best, out=total)
        split = total.argmin(axis=1)
        best = total[ends, split]
        splits.append(split)
        wcss.append(float(best[n]))
    return order, wcss, splits


def _trace_back(order, splits, k):
    """Assignment of the optimal k-partition; cluster labels ascend with
    the feature."""
    assign = np.empty(order.size, dtype=int)
    end = order.size
    for c in range(k - 1, -1, -1):
        start = int(splits[c][end])
        assign[order[start:end]] = c
        end = start
    return assign


def kmeans(features, k):
    """Globally optimal 1-D k-means with exactly k non-empty clusters.

    Deterministic: identical inputs give the same partition, labelled in
    ascending order of the feature.  Returns (assignment, centroids, wcss).
    """
    x = np.asarray(features, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty feature vector")
    if not 1 <= k <= x.size:
        raise ValueError(f"k must be in [1, {x.size}], got {k}")
    order, wcss, splits = _optimal_splits(x, k)
    assign = _trace_back(order, splits, k)
    centroids = (np.bincount(assign, weights=x, minlength=k)
                 / np.bincount(assign, minlength=k))
    return assign, centroids, wcss[k - 1]


def elbow_select_k(wcss_curve):
    """Cluster count at the maximum second difference of the WCSS curve.

    Returns 1 when fewer than 3 candidates exist or the curve is flat;
    ties break toward the smaller k.
    """
    curve = np.asarray(wcss_curve, dtype=float)
    if curve.size == 0:
        raise ValueError("empty WCSS curve")
    if curve.size < 3:
        return 1
    if np.max(np.abs(np.diff(curve))) <= 1e-12 * curve[0]:
        return 1
    second = curve[:-2] - 2.0 * curve[1:-1] + curve[2:]  # k = 2..k_max-1
    return int(np.argmax(second)) + 2


def anova_f_test(features, assignment):
    """One-way ANOVA F statistic of the grouped features; +inf when the
    within-cluster sum of squares is zero."""
    x = np.asarray(features, dtype=float).ravel()
    a = np.asarray(assignment, dtype=int).ravel()
    k = int(a.max()) + 1 if a.size else 0
    if k < 2:
        raise ValueError("F-test needs at least 2 clusters")
    counts = np.bincount(a, minlength=k)
    if np.any(counts == 0):
        raise ValueError("F-test requires non-empty clusters")
    if x.size < k + 1:
        raise ValueError("F-test needs at least k+1 points")

    grand = x.mean()
    means = np.bincount(a, weights=x, minlength=k) / counts
    ssb = float(np.sum(counts * (means - grand) ** 2))
    ssw = float(np.sum((x - means[a]) ** 2))
    if ssw <= 0.0:
        return math.inf
    return (ssb / (k - 1)) / (ssw / (x.size - k))


def allocate_subcarriers(cluster_sizes, n_subcarriers):
    """Largest-remainder proportional split; every cluster gets >= 1.

    Remainder ties break toward the larger cluster, then the lower index.
    """
    sizes = np.asarray(cluster_sizes, dtype=int)
    m = sizes.size
    if m == 0 or np.any(sizes < 1):
        raise ValueError("cluster sizes must all be >= 1")
    if n_subcarriers < m:
        raise ValueError("more clusters than subcarriers")

    quota = n_subcarriers * sizes / sizes.sum()
    alloc = np.floor(quota).astype(int)
    frac = quota - alloc
    order = sorted(range(m), key=lambda i: (-frac[i], -sizes[i], i))
    for i in order[: n_subcarriers - int(alloc.sum())]:
        alloc[i] += 1
    while np.any(alloc == 0):
        alloc[int(np.argmax(alloc))] -= 1
        alloc[int(np.argmax(alloc == 0))] += 1
    return alloc


def group_users(channel: ChannelState, n_subcarriers, k_max=10):
    """Full grouping pipeline on the effective-gain feature in dB.

    The WCSS curve and k stop at min(k_max, n, n_subcarriers), so every
    cluster gets at least one subcarrier.
    """
    features = linear_to_db(channel.effective_gain)
    k_hi = min(k_max, features.size, n_subcarriers)

    order, wcss_curve, splits = _optimal_splits(features, k_hi)
    k = elbow_select_k(wcss_curve)
    assign = _trace_back(order, splits, k)

    # undefined for a single cluster
    f_stat = anova_f_test(features, assign) if k >= 2 else math.nan

    sizes = np.bincount(assign, minlength=k)
    subcarriers = allocate_subcarriers(sizes, n_subcarriers)
    return ClusterPlan(k, assign, wcss_curve, f_stat, subcarriers)
