"""User grouping on the 1-D channel-gain feature (dB).

Pipeline: exact 1-D k-means by dynamic programming, which gives the
globally optimal WCSS for every k = 1..k_max in one pass; elbow selection
of k on that WCSS curve; the one-way ANOVA F statistic of the chosen
partition, read off the same curve (diagnostic only); and proportional
subcarrier allocation across clusters.  Cluster labels ascend with the
gain.
"""

import functools
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


@functools.lru_cache(maxsize=1)
def _grid(n):
    """Read-only constants of the DP on n points: each row's flat offset
    (n + 1) j, the divisor max(j - i, 1) and the mask of empty runs j <= i,
    each (j, i).  One entry suffices: a sweep point's trials share n."""
    ends = np.arange(n + 1)
    length = np.subtract.outer(ends, ends)
    divisor = np.maximum(length, 1).astype(float)
    empty = length <= 0
    rows = ends * (n + 1)
    for a in (rows, divisor, empty):
        a.flags.writeable = False
    return rows, divisor, empty


def _optimal_splits(features, k_max):
    """Exact 1-D k-means for every k = 1..k_max in one dynamic program.

    On sorted data an optimal partition is a set of contiguous runs, so
    with cost(i, j) the squared deviation of sorted x[i:j] from its mean,
    D_k[j] = min_i D_{k-1}[i] + cost(i, j) (Wang & Song, "Ckmeans.1d.dp",
    R Journal 2011).  Returns (order, wcss, splits): the stable sort order
    of the features, the optimal WCSS for each k, and for each k the
    argmin table from which the partition is traced back; ties break
    toward the earliest split.  The table of k = k_max holds only its
    entry n, the one a trace-back reads.
    """
    x = np.asarray(features, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise ValueError("empty feature vector")
    order = x.argsort(kind="stable")
    # centred (the same bits as x - x.mean()), so prefix sums cancel less
    xs = x[order] - np.add.reduce(x) / n
    s1, s2 = np.zeros(n + 1), np.zeros(n + 1)  # prefix sums, led by 0
    xs.cumsum(out=s1[1:])
    (xs * xs).cumsum(out=s2[1:])
    rows, divisor, empty = _grid(n)
    # cost[j, i] is that of x[i:j], built in place; layer is its scratch
    cost = np.subtract.outer(s2, s2)
    layer = np.subtract.outer(s1, s1)
    np.square(layer, out=layer)
    layer /= divisor
    cost -= layer
    np.maximum(cost, 0.0, out=cost)
    np.copyto(cost, np.inf, where=empty)

    # D_1 = min_i cost[:, i] + D_0[i], and only D_0[0] = 0.0 is finite:
    # every split is 0
    best = cost[:, 0] + 0.0
    splits = [np.zeros(n + 1, dtype=np.intp)]
    wcss = [float(best[n])]
    for _ in range(k_max - 2):
        np.add(cost, best, out=layer)
        split = layer.argmin(axis=1)
        best = layer.take(split + rows)  # flat: faster than layer[j, split]
        splits.append(split)
        wcss.append(float(best[n]))
    if k_max > 1:
        # the last layer: only row n is read
        row = cost[n] + best
        split = np.zeros(n + 1, dtype=np.intp)
        split[n] = row.argmin()
        splits.append(split)
        wcss.append(float(row[split[n]]))
    return order, wcss, splits


def _trace_back(order, splits, k):
    """(assignment, sizes) of the optimal k-partition: each UE's cluster
    and each cluster's size; cluster labels ascend with the feature."""
    assign = np.empty(order.size, dtype=int)
    sizes = np.empty(k, dtype=int)
    end = order.size
    for c in range(k - 1, -1, -1):
        start = int(splits[c][end])
        assign[order[start:end]] = c
        sizes[c] = end - start
        end = start
    return assign, sizes


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
    assign, sizes = _trace_back(order, splits, k)
    centroids = np.bincount(assign, weights=x, minlength=k) / sizes
    return assign, centroids, wcss[k - 1]


def elbow_select_k(wcss_curve):
    """Cluster count at the maximum second difference of the WCSS curve.

    Returns 1 when fewer than 3 candidates exist or the curve is flat;
    ties break toward the smaller k.  A curve that is not finite, such
    as one run past k = n, is refused.  Works on Python floats: the
    curve is at most k_max long, far too short for numpy to pay off.
    """
    curve = [float(w) for w in wcss_curve]
    if not curve:
        raise ValueError("empty WCSS curve")
    if not all(map(math.isfinite, curve)):
        raise ValueError(f"WCSS curve must be finite, got {curve}")
    if len(curve) < 3:
        return 1
    flat = 1e-12 * curve[0]
    if all(abs(b - a) <= flat for a, b in zip(curve, curve[1:])):
        return 1
    # k = 2..k_max-1; index finds the first maximum
    second = [a - 2.0 * b + c
              for a, b, c in zip(curve, curve[1:], curve[2:])]
    return second.index(max(second)) + 2


def allocate_subcarriers(cluster_sizes, n_subcarriers):
    """Largest-remainder proportional split; every cluster gets >= 1.

    Remainder ties break toward the larger cluster, then the lower index.
    """
    sizes = np.asarray(cluster_sizes, dtype=int).tolist()
    m = len(sizes)
    if m == 0 or min(sizes) < 1:
        raise ValueError("cluster sizes must all be >= 1")
    if n_subcarriers < m:
        raise ValueError("more clusters than subcarriers")

    total = sum(sizes)
    quota = [n_subcarriers * s / total for s in sizes]
    alloc = [math.floor(q) for q in quota]
    order = sorted(range(m), key=lambda i: (alloc[i] - quota[i], -sizes[i], i))
    for i in order[: n_subcarriers - sum(alloc)]:
        alloc[i] += 1
    while 0 in alloc:
        alloc[alloc.index(max(alloc))] -= 1
        alloc[alloc.index(0)] += 1
    return np.array(alloc)


def group_users(channel: ChannelState, n_subcarriers, k_max=10):
    """Full grouping pipeline on the effective-gain feature in dB.

    The WCSS curve and k stop at min(k_max, n, n_subcarriers), so every
    cluster gets at least one subcarrier.  F takes the total sum of
    squares from wcss_curve[0] and the within-cluster one from
    wcss_curve[k - 1] of the traced partition; it is nan for k = 1 and
    inf when the within sum is 0 (the elbow picks k < n).
    """
    features = linear_to_db(channel.effective_gain)
    n = features.size
    k_hi = min(k_max, n, n_subcarriers)

    order, wcss_curve, splits = _optimal_splits(features, k_hi)
    k = elbow_select_k(wcss_curve)
    assign, sizes = _trace_back(order, splits, k)

    total, within = wcss_curve[0], wcss_curve[k - 1]
    if k == 1:
        f_stat = math.nan
    elif within <= 0.0:
        f_stat = math.inf
    else:
        f_stat = (max(total - within, 0.0) / (k - 1)) / (within / (n - k))

    subcarriers = allocate_subcarriers(sizes, n_subcarriers)
    return ClusterPlan(k, assign, wcss_curve, f_stat, subcarriers)
