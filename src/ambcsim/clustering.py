"""User grouping on the 1-D channel-gain feature (dB).

Pipeline: exact 1-D k-means by dynamic programming, whose layer k gives
the globally optimal WCSS for k clusters; elbow selection of k on that
WCSS curve, with the layer loop stopped once the curve so far proves
the elbow's choice, mostly at W_2, before any (n + 1)^2 cost matrix is
built; the one-way ANOVA F statistic of the chosen partition, read off
the same curve (diagnostic only); and proportional subcarrier
allocation across clusters.  Cluster labels ascend with the gain.  A
plan's whole WCSS curve is computed only when it is read.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, linear_to_db


# Slack of the elbow stop, relative to the centred features' sum of
# squares: far above the rounding of the computed WCSS curve, which is
# below 5e-7 of it for every config MEMORY_BUDGET admits (see
# _elbow_settled).
ELBOW_SLACK = 1e-5


@dataclass
class ClusterPlan:
    """Result of grouping one snapshot of UEs.

    The DP behind k stops once the elbow is settled, so the optimal WCSS
    of every k = 1..k_hi, wcss_curve, is computed from the features when
    it is first read.
    """

    k: int
    assignment: np.ndarray            # per-UE cluster index in [0, k)
    f_statistic: float                # nan when k = 1
    subcarriers_per_cluster: np.ndarray
    features: np.ndarray              # per-UE gain in dB, the DP's input
    k_hi: int                         # k was chosen from 1..k_hi

    @functools.cached_property
    def wcss_curve(self):
        """Optimal WCSS for k = 1..k_hi."""
        return _optimal_splits(self.features, self.k_hi)[1]


def _cost(s1, s2, ends, starts):
    """Cost of sorted x[i:j] for j in ends and i in starts, index arrays
    or indices that broadcast (a column of ends gives the matrix), from
    the prefix sums: clamped at 0, inf where j <= i.  Every block gets
    the same bits."""
    length = np.subtract(ends, starts, dtype=float)
    empty = length <= 0.0
    np.maximum(length, 1.0, out=length)
    dev = s1[ends] - s1[starts]
    np.square(dev, out=dev)
    dev /= length
    cost = np.subtract(s2[ends], s2[starts], out=length)
    cost -= dev
    np.maximum(cost, 0.0, out=cost)
    np.copyto(cost, np.inf, where=empty)
    return cost


def _optimal_splits(features, k_max, until_elbow=False):
    """Exact 1-D k-means for k = 1..k_max in one dynamic program.

    On sorted data an optimal partition is a set of contiguous runs, so
    with cost(i, j) the squared deviation of sorted x[i:j] from its mean,
    D_k[j] = min_i D_{k-1}[i] + cost(i, j) (Wang & Song, "Ckmeans.1d.dp",
    R Journal 2011).  Returns (order, wcss, splits, pick): the stable sort
    order of the features, the optimal WCSS for each k, for each k the
    argmin table from which the partition is traced back (ties break
    toward the earliest split), and the elbow's pick where until_elbow
    settled it before k_max, else 0.

    D_1 is column 0 of the cost (every split is 0), and layer k first
    computes its row n from row n of the cost, both in O(n): the argmin
    that a trace-back from k starts at, and W_k.  The loop stops there at
    k = k_max or, with until_elbow, once W_1..W_k settle the elbow's pick
    (see _elbow_settled); otherwise it fills the whole layer, which the
    next layer and every trace-back through k read, from the (n + 1)^2
    cost matrix, built at the first such layer.  So the last table holds
    only its entry n.
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
    ends = np.arange(n + 1)
    tail = _cost(s1, s2, n, ends)  # row n, the cost of each x[i:n]
    best = _cost(s1, s2, ends, 0)  # D_1: only D_0[0] = 0 is finite
    splits = [np.zeros(n + 1, dtype=np.intp)]
    wcss = [float(best[n])]
    slack = ELBOW_SLACK * float(s2[n])
    pick, cost = 0, None
    for k in range(2, k_max + 1):
        row = tail + best
        end = row.argmin()
        wcss.append(float(row[end]))
        pick = _elbow_settled(wcss, k_max, slack) if until_elbow else 0
        if k == k_max or pick:
            split = np.zeros(n + 1, dtype=np.intp)
            split[n] = end
            splits.append(split)
            break
        if cost is None:  # cost[j, i] is that of x[i:j]
            cost = _cost(s1, s2, ends[:, None], ends)
            layer, rows = np.empty_like(cost), ends * (n + 1)  # flat offsets
        np.add(cost, best, out=layer)
        split = layer.argmin(axis=1)
        best = layer.take(split + rows)  # flat: faster than layer[j, split]
        splits.append(split)
    return order, wcss, splits, pick


def _elbow_settled(curve, k_hi, slack):
    """The k that elbow_select_k picks on all k_hi entries of a computed
    WCSS curve, where its first K entries fix it, else 0.

    The exact optimal WCSS W_k never rises with k and is never negative.
    So the second differences not yet known are bounded: W_{K-1} - 2 W_K
    <= second(K) <= W_{K-1} - W_K, and for K < k < k_hi, second(k) <=
    W_{k-1} - W_k <= W_K.  If the best known one, over k = 2..K-1, beats
    the upper bounds by more than slack, no later k can win or tie it
    (ties go to the smaller k).  If K < k_hi and second(K)'s lower bound
    beats the best known one, 0 and the later bound by more than slack,
    K wins.  Neither curve is flat, so the k = 1 rule cannot differ.
    Settling needs W_1..W_K finite: where the features are not, every
    layer runs.

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
    5e-7 T, and the slack, ELBOW_SLACK s2[n], is 20 times it.  The lower
    bound of second(K) needs none: each computed cost is clamped at 0, so
    the computed W_{K+1} >= 0, and rounding is monotone.  A centred dB
    feature is 0 or far above the underflow threshold, so no rounding
    falls below it.
    """
    K = len(curve)
    if not all(map(math.isfinite, curve)):
        return 0
    second = [a - 2.0 * b + c
              for a, b, c in zip(curve, curve[1:], curve[2:])]
    known = max(second, default=-math.inf)
    later = curve[-1] if K + 1 < k_hi else -math.inf  # k in (K, k_hi)
    if known > max(curve[-2] - curve[-1], later) + slack:
        return second.index(known) + 2
    if K < k_hi and (curve[-2] - 2.0 * curve[-1]
                     > max(known, later, 0.0) + slack):
        return K
    return 0


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
    order, wcss, splits, _ = _optimal_splits(x, k)
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

    k is chosen from 1..k_hi, k_hi = min(k_max, n, n_subcarriers), so
    every cluster gets at least one subcarrier.  The DP stops once its
    WCSS curve so far settles the elbow's pick, and returns it where the
    curve it stopped on cannot show it (see _elbow_settled); the plan's
    whole curve is computed when it is read.  F takes the
    total sum of squares from the curve's k = 1 entry and the
    within-cluster one from its entry k of the traced partition; it is
    nan for k = 1 and inf when the within sum is 0 (the elbow picks
    k < n).
    """
    features = linear_to_db(channel.effective_gain)
    n = features.size
    k_hi = min(k_max, n, n_subcarriers)

    order, wcss, splits, pick = _optimal_splits(features, k_hi,
                                                until_elbow=True)
    k = pick or elbow_select_k(wcss)
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
