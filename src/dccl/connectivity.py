"""Intra-class connectivity scoring of embedding dumps.

Per class we treat embeddings as nodes of a proximity graph whose edges
appear once the pairwise distance falls at or below a threshold.  The
smallest threshold that connects the graph equals the maximum edge of
the Euclidean minimum spanning tree, and the reported score is
(tau - mu) / sigma over the pairwise-distance multiset: lower means the
class is better connected relative to its own spread.

For k points of width d a report computes each pairwise distance once,
one row at a time, into one condensed k(k-1)/2 vector per group (8 bytes
per pair, and no second copy).  Prim's MST reads its rows from that
vector first; mu and sigma then reduce the whole vector in place, which
is what fixes their last bits.  Called on points alone,
`connecting_threshold` computes its rows itself in O(k d) memory and
`pairwise_stats` fills its own vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmbeddingRecord:
    sample_id: int
    class_id: int
    domain_id: int
    vector: np.ndarray


@dataclass(frozen=True)
class GroupScore:
    """Connectivity row for one class (or one class/domain pair)."""

    class_id: int
    domain_id: int | None
    count: int
    tau: float | None
    mu: float | None
    sigma: float | None
    score: float | None

    @property
    def defined(self):
        return self.score is not None


@dataclass(frozen=True)
class ConnectivityReport:
    mode: str
    rows: tuple
    mean_score: float | None
    max_score: float | None


def _distances(point, others, buf, out):
    """Write the Euclidean distance from `point` to each row of `others`
    into `out`, using `buf` (at least as many rows as `others`) for the
    differences.

    Each distance is the sum of squared coordinate differences reduced
    along one contiguous row, then square-rooted: the same operations, in
    the same order, as a row of the dense k x k distance matrix, so every
    bit matches it.
    """
    diff = buf[:len(others)]
    np.subtract(others, point, out=diff)
    np.multiply(diff, diff, out=diff)
    np.add.reduce(diff, axis=1, out=out)
    np.sqrt(out, out=out)
    return out


def condensed_distances(points):
    """The k(k-1)/2 pairwise Euclidean distances of `points` in
    `np.triu_indices` row-major order, filled one row at a time."""
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    dists = np.empty(k * (k - 1) // 2)
    buf = np.empty((k - 1, points.shape[1]))
    start = 0
    for i in range(k - 1):
        stop = start + k - 1 - i
        _distances(points[i], points[i + 1:], buf, dists[start:stop])
        start = stop
    return dists


def pairwise_stats(points, dists=None):
    """Mean and population std of the k(k-1)/2 pairwise Euclidean distances.

    The distances fill one condensed vector (`condensed_distances`), unless
    `dists` already holds that vector; either way the vector is overwritten.
    The mean and std reduce it whole, so their summation order, and with
    it every bit, is fixed.  The std takes numpy's own `_var` steps
    (keepdims sum, divide, subtract, square, sum, divide, sqrt), but in
    place instead of allocating a second vector for the deviations.
    """
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    if k < 2:
        raise ValueError("pairwise_stats needs at least 2 points")
    if dists is None:
        dists = condensed_distances(points)
    count = len(dists)
    mean = np.add.reduce(dists, axis=None, keepdims=True)
    np.true_divide(mean, count, out=mean)
    np.subtract(dists, mean, out=dists)
    np.square(dists, out=dists)
    var = np.add.reduce(dists, axis=None) / count
    return float(mean[0]), float(np.sqrt(var)), count


def connecting_threshold(points, dists=None):
    """Smallest threshold connecting the proximity graph (edges at distance
    <= threshold), computed as the maximum edge of the Euclidean MST.

    Prim's algorithm, taking one row of distances per step: from the point
    that just joined the tree to the points still outside it.  Without
    `dists` each row is computed from the points, in O(k d) memory.  With
    the condensed vector of `condensed_distances(points)` each row is
    gathered from it instead (its entries for q < p sit at
    starts[q] + p - q - 1, those for q > p in row p's contiguous slice),
    which reads the same bits: d(p, q) and d(q, p) differ only in the sign
    of each coordinate difference before it is squared.  Time is O(k^2 d)
    or O(k^2), and ties may pick a different tree than a dense scan would,
    but every MST has the same largest edge.
    """
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    if k < 2:
        raise ValueError("connecting_threshold needs at least 2 points")
    # outside[:n] are the points not yet in the tree (their indices, when
    # rows are gathered) and best[:n] their distance to it; a joining point
    # is overwritten by the last of them.
    if dists is None:
        outside = points.copy()
        buf = np.empty_like(outside)

        def row_from(j, n, out):
            return _distances(outside[j], outside[:n], buf, out)
    else:
        outside = np.arange(k)
        starts = outside * (2 * k - 1 - outside) // 2   # row p's first entry
        up = starts - outside - 1                       # d(q, p), q < p: up[q] + p
        full, at = np.empty(k), np.empty(k, dtype=np.intp)

        def row_from(j, n, out):
            p = int(outside[j])
            np.add(up[:p], p, out=at[:p])
            np.take(dists, at[:p], out=full[:p])
            full[p] = 0.0
            full[p + 1:] = dists[starts[p]:starts[p] + k - 1 - p]
            return np.take(full, outside[:n], out=out)
    row = np.empty(k)
    best = row_from(0, k, np.empty(k))
    outside[0], best[0] = outside[k - 1], best[k - 1]
    tau = 0.0
    for n in range(k - 1, 0, -1):
        j = int(np.argmin(best[:n]))
        tau = max(tau, float(best[j]))
        np.minimum(best[:n], row_from(j, n, row[:n]), out=best[:n])
        outside[j], best[j] = outside[n - 1], best[n - 1]
    return tau


def _score_group(class_id, domain_id, points):
    count = len(points)
    if count < 2:
        return GroupScore(class_id, domain_id, count, None, None, None, None)
    # one fill per group: Prim reads the vector before the stats overwrite it
    dists = condensed_distances(points)
    tau = connecting_threshold(points, dists)
    mu, sigma, _ = pairwise_stats(points, dists)
    if sigma == 0.0:
        return GroupScore(class_id, domain_id, count, tau, mu, sigma, None)
    return GroupScore(class_id, domain_id, count, tau, mu, sigma, (tau - mu) / sigma)


def connectivity_report(records, mode="pooled"):
    """Score every class of an embedding dump.

    mode "pooled" gathers each class across all domains (the default:
    cross-domain connectivity is exactly what the score is after);
    mode "per-domain" scores each class/domain pair separately.
    Groups with fewer than 2 points, or zero distance spread, are marked
    undefined and excluded from the mean/max aggregates.  Every other
    group calls `pairwise_stats` and `connecting_threshold` once each,
    through this module's namespace: perfbench's speed gauge and tracer
    hook those two names.
    """
    records = list(records)
    if not records:
        raise ValueError("empty embedding dump")
    if mode not in ("pooled", "per-domain"):
        raise ValueError(f"unknown connectivity mode {mode!r}")
    dims = {r.vector.shape for r in records}
    if len(dims) != 1:
        raise ValueError(f"embedding dump mixes dimensions: {sorted(dims)}")
    groups = {}
    for r in records:
        key = (r.class_id, r.domain_id if mode == "per-domain" else None)
        groups.setdefault(key, []).append(r.vector)
    rows = [_score_group(c, m, np.array(groups[c, m])) for c, m in sorted(groups)]
    defined = [r.score for r in rows if r.defined]
    mean_score = float(np.mean(defined)) if defined else None
    max_score = float(np.max(defined)) if defined else None
    return ConnectivityReport(mode=mode, rows=tuple(rows),
                              mean_score=mean_score, max_score=max_score)


def intra_class_variance(vectors, class_ids):
    """Mean over classes of the total within-class variance (trace of the
    class covariance); the quantity contrastive alignment should shrink."""
    vectors = np.asarray(vectors, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    variances = []
    for c in np.unique(class_ids):
        pts = vectors[class_ids == c]
        if len(pts) < 2:
            continue
        centered = pts - pts.mean(axis=0)
        variances.append(float(np.mean(np.sum(centered * centered, axis=1))))
    if not variances:
        raise ValueError("no class with at least 2 samples")
    return float(np.mean(variances))
