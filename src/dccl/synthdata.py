"""Synthetic multi-domain datasets, augmentation maps, and balanced batching.

Two generator families live here: the two-domain/two-class toy family
whose closed-form circle embeddings separate weak from aggressive
augmentation exactly, and a rotated-Gaussian family that serves as the
leave-one-domain-out benchmark (rotation step = shift severity dial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .options import ConfigError


@dataclass
class Dataset:
    """Column-oriented sample store: features, class ids, domain ids."""

    X: np.ndarray            # (N, dim) float64
    labels: np.ndarray       # (N,) int class ids in [0, n_classes)
    domains: np.ndarray      # (N,) int domain ids in [0, n_domains)
    n_classes: int
    n_domains: int
    generator: str = "unknown"
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        n = len(self.X)
        if len(self.labels) != n or len(self.domains) != n:
            raise ValueError("X, labels and domains must have equal length")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"class ids must lie in [0, {self.n_classes})")
        if n and (self.domains.min() < 0 or self.domains.max() >= self.n_domains):
            raise ValueError(f"domain ids must lie in [0, {self.n_domains})")

    def __len__(self):
        return len(self.X)

    @property
    def dim(self):
        return self.X.shape[1]

    def subset(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.X[indices], self.labels[indices], self.domains[indices],
            self.n_classes, self.n_domains,
            generator=self.generator, params=dict(self.params), seed=self.seed,
        )

    def domain_indices(self, domain):
        return np.nonzero(self.domains == domain)[0]


def sgn(values):
    """Sign with the sgn(0) := 1 convention."""
    return np.where(np.asarray(values, dtype=np.float64) >= 0.0, 1.0, -1.0)


# --- the two-domain toy family -------------------------------------------

def gen_example31(n_per_class, domain, seed=0):
    """Two-class planar toy data; domain 1 and 2 interchange the coordinates.

    Domain 1 draws X1 ~ Unif(1.25, 1.75)*Y and X2 ~ Unif(0.25, 0.75)*Y,
    independently given the label Y in {-1, +1}; domain 2 swaps the two
    coordinate distributions.  Labels are stored as class ids {0, 1}
    (id = (Y + 1) / 2) and domains as ids {0, 1}.
    """
    if domain not in (1, 2):
        raise ValueError(f"domain must be 1 or 2, got {domain!r}")
    rng = np.random.default_rng(seed)
    xs, labels = [], []
    for y_sign, class_id in ((-1.0, 0), (1.0, 1)):
        wide = rng.uniform(1.25, 1.75, n_per_class) * y_sign
        narrow = rng.uniform(0.25, 0.75, n_per_class) * y_sign
        x1, x2 = (wide, narrow) if domain == 1 else (narrow, wide)
        xs.append(np.column_stack([x1, x2]))
        labels.extend([class_id] * n_per_class)
    X = np.concatenate(xs)
    labels = np.asarray(labels)
    domains = np.full(len(X), domain - 1)
    return Dataset(X, labels, domains, n_classes=2, n_domains=2,
                   generator="example31",
                   params={"n_per_class": n_per_class, "domain": domain}, seed=seed)


def gen_example31_both(n_per_class, seed=0):
    s1, s2 = np.random.SeedSequence(seed).generate_state(2)
    d1 = gen_example31(n_per_class, 1, seed=int(s1))
    d2 = gen_example31(n_per_class, 2, seed=int(s2))
    return Dataset(np.concatenate([d1.X, d2.X]), np.concatenate([d1.labels, d2.labels]),
                   np.concatenate([d1.domains, d2.domains]), n_classes=2, n_domains=2,
                   generator="example31", params={"n_per_class": n_per_class}, seed=seed)


def label_sign(class_ids):
    """Map class ids {0, 1} back to the toy labels {-1, +1}."""
    return 2.0 * np.asarray(class_ids, dtype=np.float64) - 1.0


def toy_optimal_map(kind, X, y_sign):
    """Closed-form unit-circle embeddings for the toy family.

    kind "weak":       angle = (x1 - sgn(y)) * pi   (needs the label)
    kind "aggressive": angle = (sgn(x1) + y) * pi/3
    Returns (n, 2) points (cos angle, sin angle), exactly on the circle.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if kind == "weak":
        theta = (X[:, 0] - sgn(y_sign)) * math.pi
    elif kind == "aggressive":
        theta = (sgn(X[:, 0]) + np.asarray(y_sign, dtype=np.float64)) * (math.pi / 3.0)
    else:
        raise ValueError(f"unknown toy map kind {kind!r}")
    return np.column_stack([np.cos(theta), np.sin(theta)])


def toy_map_accuracy(kind, dataset):
    """Accuracy of the sign-of-second-coordinate classifier under the map."""
    y = label_sign(dataset.labels)
    points = toy_optimal_map(kind, dataset.X, y_sign=y)
    predicted = sgn(points[:, 1])
    return float(np.mean(predicted == y))


# --- rotated-Gaussian benchmark -------------------------------------------

def gen_rotated_gaussians(n_domains, n_classes, n_per_domain_class,
                          rotation_step, class_separation, noise_std, seed=0):
    """Class means on a circle, rotated per domain, isotropic Gaussian noise.

    Domain m rotates every class mean by m * rotation_step radians, so the
    rotation step controls how far the held-out domain sits from its
    sources.  Per domain the classes stay linearly separable as long as
    class_separation comfortably exceeds the noise scale.
    """
    rng = np.random.default_rng(seed)
    xs, labels, domains = [], [], []
    for m in range(n_domains):
        for c in range(n_classes):
            angle = 2.0 * math.pi * c / n_classes + m * rotation_step
            mean = class_separation * np.array([math.cos(angle), math.sin(angle)])
            pts = mean + noise_std * rng.standard_normal((n_per_domain_class, 2))
            xs.append(pts)
            labels.extend([c] * n_per_domain_class)
            domains.extend([m] * n_per_domain_class)
    return Dataset(
        np.concatenate(xs), np.asarray(labels), np.asarray(domains),
        n_classes=n_classes, n_domains=n_domains,
        generator="rotated_gaussians",
        params={
            "n_domains": n_domains, "n_classes": n_classes,
            "n_per_domain_class": n_per_domain_class,
            "rotation_step": rotation_step,
            "class_separation": class_separation, "noise_std": noise_std,
        },
        seed=seed,
    )


# --- augmentation ----------------------------------------------------------

ADDITIVE = "additive"
SCALING = "scaling"


@dataclass(frozen=True)
class AugmentationSpec:
    """Coordinate-wise jitter: additive Unif(-a, a) or scaling Unif(1-a, 1+a).

    Intensity 0 is the exact identity.
    """

    kind: str = ADDITIVE
    intensity: float = 0.0

    def __post_init__(self):
        if self.kind not in (ADDITIVE, SCALING):
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if not self.intensity >= 0:
            raise ValueError(f"augmentation intensity must be nonnegative, got {self.intensity}")


def augment(X, spec, rng):
    """Apply a jitter spec; label-preserving by construction (features only)."""
    X = np.asarray(X, dtype=np.float64)
    if spec.intensity == 0.0:
        return X.copy()
    a = spec.intensity
    if spec.kind == ADDITIVE:
        return X + rng.uniform(-a, a, X.shape)
    return X * rng.uniform(1.0 - a, 1.0 + a, X.shape)


# --- batching ---------------------------------------------------------------

def check_batch_size(batch_size, n_domains):
    """Raise unless a batch splits evenly over `n_domains` domains."""
    if batch_size % n_domains != 0:
        lower = (batch_size // n_domains) * n_domains
        upper = lower + n_domains
        options = f"{lower} or {upper}" if lower >= n_domains else f"{upper}"
        raise ConfigError(
            f"batch size {batch_size} is not divisible by {n_domains} domains; try {options}"
        )


def make_batches(dataset, batch_size, seed=0, key="batch_size"):
    """Endless stream of index batches balanced across the dataset's domains.

    Every batch holds batch_size / n_domains samples from each domain
    present in the dataset; a domain is reshuffled only once its samples
    are exhausted, so an epoch touches each sample at most once per
    domain.  Yields index arrays into `dataset`.  A domain with fewer
    samples than its share of a batch raises ConfigError here, before the
    first batch, naming `key`, the setting that sized the batch.
    """
    present = np.unique(dataset.domains)
    n_dom = len(present)
    if n_dom == 0:
        raise ConfigError("dataset has no samples")
    check_batch_size(batch_size, n_dom)
    per_domain = batch_size // n_dom
    pools = [dataset.domain_indices(m).astype(np.int64) for m in present]
    for m, pool in zip(present, pools):
        if len(pool) < per_domain:
            raise ConfigError(
                f"domain {m} has {len(pool)} training samples, fewer than its share of "
                f"{per_domain} in a batch of {batch_size} ({key}) over {n_dom} domains"
            )
    return _batch_stream(pools, per_domain, np.random.default_rng(seed))


def _batch_stream(pools, per_domain, rng):
    # a domain's queue is a shuffled copy of its pool, consumed from `heads`
    queues = [pool[:0] for pool in pools]
    heads = [0] * len(pools)
    while True:
        parts = []
        for k, pool in enumerate(pools):
            if len(queues[k]) - heads[k] < per_domain:
                queues[k] = pool[rng.permutation(len(pool))]
                heads[k] = 0
            parts.append(queues[k][heads[k]:heads[k] + per_domain])
            heads[k] += per_domain
        yield np.concatenate(parts)
