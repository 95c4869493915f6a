"""Full-matrix references for the grouping DP in ``ambcsim.clustering``.

``optimal_splits`` evaluates every layer of the 1-D k-means dynamic
program over the whole (n+1)^2 cost matrix, built with fresh temporaries,
and keeps every row of every argmin table.  ``elbow_select_k`` is the
numpy form of the elbow rule.  ``ambcsim.clustering`` computes the first
layer in closed form and only row n of the last layer it reaches,
stops ``group_users``'s layer loop once the elbow is proven, and runs
the elbow on Python floats; its curves, k and partitions must match
these bit for bit on every finite curve.  ``anova_f_test`` is the
two-pass one-way ANOVA F statistic of any partition, against which
``group_users`` reads F off its WCSS curve.
``allocate_subcarriers`` is the numpy form of the largest-remainder
split, which ``ambcsim.clustering`` runs on Python ints and floats; the
two must agree bit for bit.
"""

import math

import numpy as np


def optimal_splits(features, k_max):
    """(order, wcss, splits) of the DP, every layer in full."""
    x = np.asarray(features, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise ValueError("empty feature vector")
    order = np.argsort(x, kind="stable")
    xs = x[order] - x.mean()
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


def elbow_select_k(wcss_curve):
    """Cluster count at the maximum second difference, in numpy."""
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
    """Largest-remainder proportional split in numpy; every cluster gets
    >= 1.  Remainder ties break toward the larger cluster, then the lower
    index."""
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
