"""User grouping on the 1-D channel-gain feature (dB).

Pipeline: exact 1-D k-means by dynamic programming, whose layer k gives
the globally optimal WCSS for k clusters; elbow selection of k, from
the layers up to the one that fixes it, mostly W_2, before any (n + 1)^2
cost matrix is built; the one-way ANOVA F statistic of the chosen
partition, read off the same curve (diagnostic only); and proportional
subcarrier allocation across clusters.  Cluster labels ascend with the
gain.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, linear_to_db


# Slack of the elbow on a partial curve, relative to the centred features'
# sum of squares: 20 times the DP's rounding (see elbow_select_k).
ELBOW_SLACK = 1e-5


@dataclass
class ClusterPlan:
    """Result of grouping one snapshot of UEs.  Grouping stops the DP
    once k is settled, so wcss_curve is computed when first read."""

    k: int
    assignment: np.ndarray            # per-UE cluster index in [0, k)
    f_statistic: float                # nan when k = 1
    subcarriers_per_cluster: np.ndarray
    features: np.ndarray              # per-UE gain in dB, the DP's input
    k_hi: int                         # k was chosen from 1..k_hi

    @functools.cached_property
    def wcss_curve(self):
        """Optimal WCSS for k = 1..k_hi."""
        layers = _optimal_splits(self.features)[3]
        return list(itertools.islice(layers, self.k_hi))


def _cost(dev, s2_ends, s2_starts, length):
    """Cost of sorted runs x[i:j], clamped at 0, from dev = s1[j] - s1[i],
    the prefix sums of x^2 at their ends and starts, and their lengths
    j - i >= 1 as floats; operands broadcast.  dev is scratch, and the
    cost is written over length and returned.  Every block gets the same
    bits."""
    np.square(dev, out=dev)
    dev /= length
    cost = np.subtract(s2_ends, s2_starts, out=length)
    cost -= dev
    return np.maximum(cost, 0.0, out=cost)


def _cost_edges(s1, s2, ramp):
    """(column 0, row n) of the cost, that of each x[0:j] and of each
    x[i:n], in O(n): slices of the prefix sums s1 and s2 and of the
    lengths in ramp (0, 1, ..., n as floats), and inf at the one empty
    run of each."""
    n = ramp.size - 1
    first, last = ramp.copy(), ramp[::-1].copy()
    first[0] = last[n] = math.inf
    _cost(s1[1:] - s1[0], s2[1:], s2[0], first[1:])
    _cost(s1[n] - s1[:n], s2[n], s2[:n], last[:n])
    return first, last


def _cost_matrix(s1, s2, ramp):
    """cost[j, i], that of x[i:j], inf where j <= i.  At its peak it
    holds 17 bytes per entry: the lengths (then the cost), dev and the
    empty-run mask."""
    length = ramp[:, None] - ramp
    empty = length <= 0.0
    np.maximum(length, 1.0, out=length)
    cost = _cost(s1[:, None] - s1, s2[:, None], s2, length)
    np.copyto(cost, np.inf, where=empty)
    return cost


def _optimal_splits(features):
    """Exact 1-D k-means of a 1-D float array for k = 1, 2, ...

    On sorted data an optimal partition is a set of contiguous runs, so
    with cost(i, j) the squared deviation of sorted x[i:j] from its mean,
    D_k[j] = min_i D_{k-1}[i] + cost(i, j) (Wang & Song, "Ckmeans.1d.dp",
    R Journal 2011).  Returns (order, ss, splits, layers): the stable
    sort order; the centred features' sum of squares, s2[n]; the argmin
    tables a partition is traced back from (ties toward the earliest
    split); and an endless iterator over the optimal WCSS W_1, W_2, ...
    (inf past k = n), which appends layer k's table to splits with W_k.

    D_1 is column 0 of the cost (every split is 0), and layer k first
    computes its row n from row n of the cost: W_k and the argmin a
    trace-back from k starts at, its table's only entry until W_{k+1}
    is asked for.  Both cost edges come from slices of the prefix sums in
    O(n), without gathers or an empty-run mask (see _cost_edges).  Then
    the whole layer, which the next one and every trace-back through k
    read, is filled from the (n + 1)^2 cost matrix, built at the first
    such layer; its entries have the edges' bits.
    """
    n = features.size
    if n == 0:
        raise ValueError("empty feature vector")
    order = features.argsort(kind="stable")
    # centred (the same bits as x - x.mean()), so prefix sums cancel less
    xs = features[order]
    xs -= float(np.add.reduce(features)) / n
    s1, s2 = np.empty(n + 1), np.empty(n + 1)  # prefix sums, led by 0
    s1[0] = s2[0] = 0.0
    np.add.accumulate(xs, out=s1[1:])
    np.multiply(xs, xs, out=xs)
    np.add.accumulate(xs, out=s2[1:])
    ramp = np.arange(n + 1.0)  # run lengths
    splits = [np.zeros(n + 1, dtype=np.intp)]

    def layers():
        best, tail = _cost_edges(s1, s2, ramp)  # D_1 and row n
        yield float(best[n])
        cost = None
        while True:
            row = tail + best
            split = np.zeros(n + 1, dtype=np.intp)
            split[n] = end = row.argmin()
            splits.append(split)
            yield float(row[end])
            if cost is None:  # cost[j, i] is that of x[i:j]
                cost = _cost_matrix(s1, s2, ramp)
                layer = np.empty_like(cost)
                rows = np.arange(0, (n + 1) ** 2, n + 1)  # flat
            np.add(cost, best, out=layer)
            layer.argmin(axis=1, out=split)
            best = layer.take(split + rows)  # faster than layer[j, split]

    return order, float(s2[n]), splits, layers()


def _trace_back(order, splits, k):
    """(assignment, sizes) of the optimal k-partition: each UE's cluster
    and each cluster's size as a Python int; cluster labels ascend with
    the feature."""
    assign = np.empty(order.size, dtype=int)
    sizes = [0] * k
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
    order, _, splits, layers = _optimal_splits(x)
    wcss = list(itertools.islice(layers, k))[-1]
    assign, sizes = _trace_back(order, splits, k)
    centroids = np.bincount(assign, weights=x, minlength=k) / sizes
    return assign, centroids, wcss


def elbow_select_k(curve, k_hi=None, slack=0.0):
    """Cluster count at the maximum second difference of a WCSS curve
    (a short sequence of floats; ties toward the smaller k).

    A whole curve (k_hi None or its length) gives 1 below 3 entries or
    when flat, so k_max = 2, 2 UEs or 2 subcarriers never form two
    clusters.  A whole curve that is not finite, such as one run past
    k = n, is refused.  The first K < k_hi entries of a computed curve
    give its pick where they fix it, else 0.  The exact optimal WCSS
    W_k never rises with k and is never negative, so the second
    differences not yet known are bounded: W_{K-1} - 2 W_K <= second(K)
    <= W_{K-1} - W_K, and for K < k < k_hi, second(k) <= W_{k-1} - W_k
    <= W_K.  If second(K)'s lower bound beats the best known one, over
    k = 2..K-1, 0 and the later bound by more than slack, K wins.  If
    the best known one beats the upper bounds by more than slack, no
    later k can win or tie it.  The two exclude each other, and neither
    curve is flat, so the k = 1 rule cannot differ.  A partial curve
    that is not finite settles nothing.

    The slack covers the rounding of the computed curve.  Let u = 2^-53,
    T the sum of the centred features squared (s2[n]), n the UE count
    and k <= k_hi <= n, and take the centred features as exact.  The
    computed W_k is the minimum, over the same partitions as the exact
    optimum, of each partition's computed sum of k run costs, so it is
    within E of the optimum if every such sum is.  The sequential prefix
    sums are within (n + 1) u T (s2) and n u sum|x| <= n u sqrt(n T)
    (s1) of exact.  A run's cost, S2 - S1^2 / L over its L points, so
    takes up to 2 (n + 1) u T from its S2 difference, and from its S1
    difference, off by up to 2 n u sqrt(n T), up to 4 n u sqrt(n T)
    |S1| / L plus a term in u^2.  Over the k runs, |S1| / L, the runs'
    absolute means, sums to at most sqrt(k T), and S2 and S1^2 / L each
    to at most T.  With the rounding of each difference, square,
    quotient and clamp, and of the DP's k-term sums, E = (4 n sqrt(n k)
    + 2 k (n + 2) + 24) u T.  So no computed W_k with k > K lies more
    than 2 E above the computed W_K, and no computed second difference
    not yet known exceeds its upper bound by more than 4 E + 8 u T.  For
    n <= 13100 and k <= n, more than MEMORY_BUDGET admits, that is below
    5e-7 T, and the slack, ELBOW_SLACK T, is 20 times it.  The lower
    bound of second(K) needs none: each computed cost is clamped at 0, so
    the computed W_{K+1} >= 0, and rounding is monotone.  A centred dB
    feature is 0 or far above the underflow threshold, so no rounding
    falls below it.
    """
    K = len(curve)
    if K == 0:
        raise ValueError("empty WCSS curve")
    whole = k_hi is None or K >= k_hi
    if not whole and K < 2:
        return 0
    if not all(map(math.isfinite, curve)):
        if whole:
            raise ValueError(f"WCSS curve must be finite, got {curve}")
        return 0
    # k = 2..K-1; index finds the first maximum
    second = [a - 2.0 * b + c
              for a, b, c in zip(curve, curve[1:], curve[2:])]
    known = max(second, default=-math.inf)
    if whole:
        flat = 1e-12 * curve[0]
        if K < 3 or all(abs(b - a) <= flat for a, b in zip(curve, curve[1:])):
            return 1
    else:
        later = curve[-1] if K + 1 < k_hi else -math.inf  # k in (K, k_hi)
        if curve[-2] - 2.0 * curve[-1] > max(known, later, 0.0) + slack:
            return K
        if not known > max(curve[-2] - curve[-1], later) + slack:
            return 0
    return second.index(known) + 2


def allocate_subcarriers(cluster_sizes, n_subcarriers):
    """Largest-remainder proportional split; every cluster gets >= 1.

    Remainder ties break toward the larger cluster, then the lower index.
    """
    sizes = [int(s) for s in cluster_sizes]
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

    k is chosen from 1..k_hi, k_hi = min(k_max, n, n_subcarriers), so
    every cluster gets at least one subcarrier.  The DP's layers are
    taken until the elbow on the curve so far gives k, at k_hi at the
    latest.  F takes the total sum of squares from the curve's k = 1
    entry and the within-cluster one from its entry k of the traced
    partition; it is nan for k = 1 and inf when the within sum is 0 (the
    elbow picks k < n).
    """
    features = linear_to_db(channel.effective_gain)
    n = features.size
    k_hi = min(k_max, n, n_subcarriers)

    order, ss, splits, layers = _optimal_splits(features)
    slack, wcss = ELBOW_SLACK * ss, []
    for w in layers:
        wcss.append(w)
        k = elbow_select_k(wcss, k_hi, slack)
        if k:
            break
    assign, sizes = _trace_back(order, splits, k)

    total, within = wcss[0], wcss[k - 1]
    if k == 1:
        f_stat = math.nan
    elif within <= 0.0:
        f_stat = math.inf
    else:
        f_stat = (max(total - within, 0.0) / (k - 1)) / (within / (n - k))

    subcarriers = allocate_subcarriers(sizes, n_subcarriers)
    return ClusterPlan(k, assign, f_stat, subcarriers, features, k_hi)
