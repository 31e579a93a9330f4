import numpy as np
import pytest


def numerical_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function at array x.

    The oracle is independent of the tape: it only calls f, which must
    re-read x on every evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def dense_distance_matrix(points):
    """The k x k Euclidean distance matrix through a k x k x d difference
    array: the reference formula the row-wise kernels must match bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def dense_pairwise_stats(points):
    """Mean, population std and count of the upper-triangle distances."""
    dm = dense_distance_matrix(points)
    dists = dm[np.triu_indices(len(dm), 1)]
    return float(dists.mean()), float(dists.std()), len(dists)


def dense_threshold(points):
    """Largest MST edge by Prim's algorithm on the dense distance matrix."""
    dm = dense_distance_matrix(points)
    k = len(dm)
    visited = np.zeros(k, dtype=bool)
    visited[0] = True
    best = dm[0].copy()
    best[0] = np.inf
    tau = 0.0
    for _ in range(k - 1):
        best_masked = np.where(visited, np.inf, best)
        j = int(np.argmin(best_masked))
        tau = max(tau, float(best_masked[j]))
        visited[j] = True
        best = np.minimum(best, dm[j])
    return tau


def brute_force_threshold(points):
    """Smallest connecting threshold by sweeping the sorted distance multiset
    and BFS-checking connectivity at each candidate."""
    dm = dense_distance_matrix(points)
    k = len(dm)
    candidates = sorted({dm[i, j] for i in range(k) for j in range(i + 1, k)})
    for threshold in candidates:
        adj = dm <= threshold
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for other in range(k):
                if other not in seen and adj[node, other]:
                    seen.add(other)
                    frontier.append(other)
        if len(seen) == k:
            return threshold
    raise AssertionError("unreachable: the max distance always connects")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
