"""Intra-class connectivity scoring of embedding dumps.

Per class we treat embeddings as nodes of a proximity graph whose edges
appear once the pairwise distance falls at or below a threshold.  The
smallest threshold that connects the graph equals the maximum edge of
the Euclidean minimum spanning tree, and the reported score is
(tau - mu) / sigma over the pairwise-distance multiset: lower means the
class is better connected relative to its own spread.

For k points of width d a report computes each pairwise distance once,
one row at a time, into one condensed k(k-1)/2 vector per group (8 bytes
per pair, and no second copy).  A group of at least 2^19 pairs (k of
1025 or more) is filled on one thread per available CPU
(`os.sched_getaffinity`, else `os.cpu_count`), at most one per 2^18
pairs: each thread fills a contiguous range of rows holding about the
same number of pairs, into its own slice of the vector, through its own
row buffer of at most (k-1) d floats.  Every row is the same `_distances`
call on any thread, so the bits do not depend on the split, and every
thread is joined before the fill returns.  Smaller groups, such as the
160-point reports of a training run, fill on the calling thread.

Prim's MST then reads its rows from the vector: per step one gather for
the joining point's column, one slice for its row, and a minimum, a
maximum and an argmin over all k points.  mu and sigma then reduce the
whole vector in place, which is what fixes their last bits.  Called on
points alone, `connecting_threshold` and `pairwise_stats` each fill their
own vector.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

# pairs per fill thread: a group's distance vector is filled on
# min(available CPUs, pairs // THREAD_PAIRS) threads, so two threads start
# at 2^19 pairs (k = 1025).  On 2 CPUs at d = 16, two threads lost to one
# up to k = 800, won 1.05-1.2x at k = 850-1030 and 1.5-1.6x at k >= 1500.
THREAD_PAIRS = 2 ** 18


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


def _row_starts(k):
    """The index of each row's first entry in the condensed vector of k
    points: row i holds d(i, j) for j > i."""
    rows = np.arange(k)
    return rows * (2 * k - 1 - rows) // 2


def _fill_rows(points, dists, first, stop):
    """Rows first..stop-1 of the condensed vector of `points`, one
    `_distances` call per row, through one row buffer sized for the first
    (longest) of them."""
    k = len(points)
    buf = np.empty((k - 1 - first, points.shape[1]))
    start = first * (2 * k - 1 - first) // 2
    for i in range(first, stop):
        end = start + k - 1 - i
        _distances(points[i], points[i + 1:], buf, dists[start:end])
        start = end


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_joined(tasks):
    """Run `tasks` (no-argument callables) at once: the first on this
    thread, each other on a thread of its own that sees this thread's
    context variables (numpy's error state among them).  Every thread is
    joined before this returns or raises, and the first exception a task
    raised is re-raised."""
    errors = []

    def guarded(task):
        try:
            task()
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = []
    try:
        for task in tasks[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(guarded, task))
            thread.start()
            threads.append(thread)
        tasks[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def condensed_distances(points):
    """The k(k-1)/2 pairwise Euclidean distances of `points` in
    `np.triu_indices` row-major order, filled one row at a time.

    When min(available CPUs, pairs // THREAD_PAIRS) is 2 or more, the rows
    are split into that many contiguous ranges of about equal pair counts,
    each filled on its own thread into its own slice of the vector.  Each
    row is the same `_distances` call either way, so the bits do not
    depend on the split."""
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    dists = np.empty(k * (k - 1) // 2)
    parts = min(_cpu_count(), len(dists) // THREAD_PAIRS)
    if parts < 2:
        _fill_rows(points, dists, 0, k - 1)
        return dists
    cuts = np.searchsorted(_row_starts(k), [len(dists) * j // parts for j in range(1, parts)])
    bounds = [0, *cuts.tolist(), k - 1]
    _run_joined([functools.partial(_fill_rows, points, dists, a, b)
                 for a, b in zip(bounds, bounds[1:])])
    return dists


def pairwise_stats(points, dists=None):
    """Mean and population std of the k(k-1)/2 pairwise Euclidean distances.

    The distances fill one condensed vector (`condensed_distances`), unless
    `dists` already holds that vector; either way the vector is overwritten.
    The mean and std reduce it whole, so their summation order, and with
    it every bit, is fixed.  The std takes numpy's own `_var` steps
    (keepdims sum, divide, subtract, square, sum, divide, sqrt), but in
    place instead of allocating a second vector for the deviations.
    Without `dists`, a mean or std that is not finite raises ValueError
    and no numpy warning; a caller that fills `dists` checks them itself.
    """
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    if k < 2:
        raise ValueError("pairwise_stats needs at least 2 points")
    check = dists is None
    with np.errstate(over="ignore", invalid="ignore"):
        if check:
            dists = condensed_distances(points)
        count = len(dists)
        mean = np.add.reduce(dists, axis=None, keepdims=True)
        np.true_divide(mean, count, out=mean)
        np.subtract(dists, mean, out=dists)
        np.square(dists, out=dists)
        var = np.add.reduce(dists, axis=None) / count
        mu, sigma = float(mean[0]), float(np.sqrt(var))
    if check and not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError(f"pairwise distances are not finite in float64 (mu={mu} sigma={sigma})")
    return mu, sigma, count


def connecting_threshold(points, dists=None):
    """Smallest threshold connecting the proximity graph (edges at distance
    <= threshold), computed as the maximum edge of the Euclidean MST.

    Prim's algorithm, reading one row of distances per step, from the
    point that just joined the tree, out of the condensed vector of
    `condensed_distances(points)`: `dists` if given, else a fresh fill.
    Reading d(q, p) for d(p, q) gives the same bits, since they differ only
    in the sign of each coordinate difference before it is squared.  Time
    is O(k^2) after the O(k^2 d) fill, and ties may pick a different tree
    than a dense scan would, but every MST has the same largest edge.
    Without `dists`, a threshold that is not finite raises ValueError and
    no numpy warning; a caller that fills `dists` checks it itself.
    """
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    if k < 2:
        raise ValueError("connecting_threshold needs at least 2 points")
    check = dists is None
    if check:
        with np.errstate(over="ignore", invalid="ignore"):
            dists = condensed_distances(points)
    starts = _row_starts(k)
    col = starts - np.arange(k)     # d(q, p), q < p: dists[p - 1 + col[q]]
    # best[q] is q's distance to the tree, held at +inf once q has joined:
    # joined[q] is 0 before that and +inf after, and each step ends with
    # best = max(min(best, row), joined), which also hides row[p], a stale
    # value.  A step is one gather for the column above p, one slice for
    # row p and four calls over all k points.  The gather's indices are
    # always in range; mode="clip" skips the copy that "raise" makes for out=.
    best, joined, row = np.full(k, np.inf), np.zeros(k), np.zeros(k)
    tau, p = 0.0, 0
    for _ in range(k - 1):
        joined[p] = np.inf
        np.take(dists[p - 1:], col[:p], out=row[:p], mode="clip")
        row[p + 1:] = dists[starts[p]:starts[p] + k - 1 - p]
        np.minimum(best, row, out=best)
        np.maximum(best, joined, out=best)
        p = int(np.argmin(best))
        tau = max(tau, float(best[p]))
    if check and not math.isfinite(tau):
        raise ValueError(f"pairwise distances are not finite in float64 (tau={tau})")
    return tau


def _score_group(class_id, domain_id, points):
    count = len(points)
    if count < 2:
        return GroupScore(class_id, domain_id, count, None, None, None, None)
    # one fill per group: Prim reads the vector before the stats overwrite
    # it.  Distances that overflow float64 raise below instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        dists = condensed_distances(points)
        tau = connecting_threshold(points, dists)
        mu, sigma, _ = pairwise_stats(points, dists)
    if not all(map(math.isfinite, (tau, mu, sigma))):
        domain = "all" if domain_id is None else domain_id
        raise ValueError(f"class {class_id} domain {domain}: pairwise distances are not "
                         f"finite in float64 (tau={tau} mu={mu} sigma={sigma})")
    if sigma == 0.0:
        return GroupScore(class_id, domain_id, count, tau, mu, sigma, None)
    return GroupScore(class_id, domain_id, count, tau, mu, sigma, (tau - mu) / sigma)


def connectivity_report(records, mode="pooled"):
    """Score every class of an embedding dump.

    mode "pooled" gathers each class across all domains (the default:
    cross-domain connectivity is exactly what the score is after);
    mode "per-domain" scores each class/domain pair separately.
    Groups with fewer than 2 points, or zero distance spread, are marked
    undefined and excluded from the mean/max aggregates; a group whose
    tau, mu or sigma is not finite raises ValueError naming it.  Every other
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
