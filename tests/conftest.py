import hashlib

import numpy as np
import pytest

from dccl import nets
from dccl.autodiff import Tensor

import elementary as el


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


def generator_tensors(dim):
    """The generator's initial tensors, as a model built `with_gen` holds them."""
    return {name: Tensor(arr) for name, arr in nets.generator(dim).items()}


def model_checksum(model):
    """SHA-256 over a model's parameter and running-statistics tables,
    each walked in name order, name then array bytes."""
    digest = hashlib.sha256()
    tables = ({name: t.data for name, t in model.parameters().items()}, model.stats())
    for table in tables:
        for name in sorted(table):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(table[name]).tobytes())
    return digest.hexdigest()


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


# -- composite oracles of the fused tape ops ------------------------------------
#
# Each function below has the signature of the fused op of the same name in
# `dccl.autodiff` (or, for `batchnorm_train`, in `elementary.py`) and builds
# it from the elementary primitives of `elementary.py`, one tape op per step.
# The fused op must give the same bits, value and gradients.

def affine(x, W, b):
    return el.matmul(x, W) + b


def batchnorm_train(x, gamma, beta, eps):
    mu = el.reduce_mean(x, axis=0)
    centered = el.sub(x, mu)
    var = el.reduce_mean(centered * centered, axis=0)
    inv = el.power(var + eps, -0.5)
    return centered * inv * gamma + beta, mu.data, var.data


def softmax_cross_entropy(logits, labels):
    lse = el.logsumexp(logits)
    picked = el.gather_pairs(logits, labels)
    return el.reduce_mean(el.sub(lse, picked))


def contrastive_term(z, z_alt, positive, z_pre, temperature, anchor_negatives=False,
                     standard=False):
    n = z.shape[0]
    inv_t = 1.0 / temperature
    anchor_rows = np.asarray(positive) < 0
    safe = np.where(anchor_rows, 0, positive)
    positives = el.index_rows(z_alt, safe)
    if np.any(anchor_rows):
        keep = Tensor((~anchor_rows).astype(np.float64)[:, None])
        anchor_part = np.where(anchor_rows[:, None], z_pre, 0.0)
        positives = positives * keep + Tensor(anchor_part)
    pos_logits = el.reduce_sum(z * positives, axis=1) * inv_t
    sims = el.matmul(z, el.transpose(z_alt)) * inv_t
    neg_mask = ~np.eye(n, dtype=bool)
    denom = el.logsumexp(sims, mask=neg_mask)
    if anchor_negatives:
        anchor_sims = el.matmul(z, el.transpose(Tensor(z_pre))) * inv_t
        denom = el.logaddexp(denom, el.logsumexp(anchor_sims, mask=neg_mask))
    if standard:
        denom = el.logaddexp(denom, pos_logits)
    return el.reduce_mean(el.sub(denom, pos_logits))


def gt_transform(z, noise, std_bias, W, b):
    """Reparameterized latent, decoded reconstruction and per-row KL."""
    sigma = el.softplus(std_bias)
    z_lat = z + sigma * Tensor(noise)
    recon = affine(z_lat, W, b)
    s2 = sigma * sigma
    kl = el.reduce_sum(el.sub(el.sub(s2 + z * z, 1.0), el.log(s2)), axis=1) * 0.5
    return z_lat, recon, kl


def generative_term(z, z_pre, noise, std_bias, W, b):
    _, recon, kl = gt_transform(z, noise, std_bias, W, b)
    err = el.sub(Tensor(np.asarray(z_pre, dtype=np.float64)), recon)
    reconstruction = el.reduce_sum(err * err, axis=1)
    return el.reduce_mean(reconstruction + kl)


def embed_views(views, layers, eps):
    """One walk per view, in view order, through the `affine` and
    `batchnorm_train` composites and the `relu` and `l2_normalize`
    primitives: the chain `Model.embed` recorded for each view before one
    op took in all of them."""
    outs, stats = [], []
    for x in np.asarray(views, dtype=np.float64):
        h, view_stats = Tensor(x), []
        for W, b, bn, relu in layers:
            h = affine(h, W, b)
            if bn is not None:
                h, mu, var = batchnorm_train(h, *bn, eps)
                view_stats.append((mu, var))
            if relu:
                h = el.relu(h)
        outs.append(el.l2_normalize(h))
        stats.append(view_stats)
    # per batch-norm layer, the (views, m) means and variances
    return outs, [tuple(map(np.stack, zip(*layer))) for layer in zip(*stats)]


COMPOSITES = {fn.__name__: fn for fn in (affine, batchnorm_train, embed_views,
                                         softmax_cross_entropy, contrastive_term,
                                         generative_term)}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
