"""Training objectives: cross-entropy, the contrastive family, and the
variational generative-transformation loss.

The contrastive loss compares each anchor embedding against one resolved
positive and the second-view embeddings of all other batch samples as
negatives.  Positives come from three sources, selected per sample:
the sample's own second augmentation view (self-contrast), a random
same-class sample's second view drawn across domains (cross-domain
contrast, CDC), or the sample's frozen anchor-model embedding
(pre-trained model anchoring, PMA).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .options import option

ANCHOR_POSITIVE = -1

NEGATIVES_ONLY = "negatives-only"
STANDARD_INFONCE = "standard-infonce"

_UNIT_NORM_TOL = 1e-6


class LossConfigError(ValueError):
    """Inconsistent loss configuration or batch contents."""


@dataclass(frozen=True)
class LossConfig:
    """Objective weights and ablation toggles.

    contrast_weight and gen_weight are the lambda/beta multipliers of the
    combined objective; temperature divides every similarity logit.  The
    denominator mode controls whether the positive term joins the
    negatives in the contrastive denominator ("standard-infonce") or the
    denominator stays negatives-only (the literal default).
    """

    contrast_weight: float = option(1.0, "contrastive weight", key="lambda")
    gen_weight: float = option(0.05, "generative weight", key="beta")
    temperature: float = option(0.1, "contrastive temperature")
    cdc_enabled: bool = option(False, "cross-domain positive sampling", key="cdc")
    pma_enabled: bool = option(False, "anchor-embedding positives (coin-mixed)", key="pma")
    gt_enabled: bool = option(False, "generative transformation loss", key="gt")
    self_contrast_only: bool = option(False, "positives from own views only")
    aggressive_augmentation: bool = option(False, "use the aggressive jitter intensity")
    denominator_mode: str = option(NEGATIVES_ONLY, "contrastive denominator contents",
                                   choices=(NEGATIVES_ONLY, STANDARD_INFONCE))
    anchor_negatives: bool = option(False, "other samples' anchor embeddings join the negatives")
    pma_probability: float = option(0.5, "chance a positive becomes the anchor")

    def validate(self):
        if self.temperature <= 0:
            raise LossConfigError(f"temperature must be positive, got {self.temperature}")
        if self.contrast_weight < 0 or self.gen_weight < 0:
            raise LossConfigError("loss weights must be nonnegative")
        if self.self_contrast_only and self.cdc_enabled:
            raise LossConfigError("self_contrast_only and cdc_enabled are mutually exclusive")
        if self.self_contrast_only and self.pma_enabled:
            raise LossConfigError("self_contrast_only rules out anchor positives")
        if self.denominator_mode not in (NEGATIVES_ONLY, STANDARD_INFONCE):
            raise LossConfigError(f"unknown denominator_mode {self.denominator_mode!r}")
        if not 0.0 <= self.pma_probability <= 1.0:
            raise LossConfigError(
                f"pma_probability must lie in [0, 1], got {self.pma_probability}")
        return self

    @property
    def contrast_enabled(self):
        return self.cdc_enabled or self.pma_enabled or self.self_contrast_only


@dataclass
class ContrastBatch:
    """One training batch as the contrastive loss sees it.

    z holds the anchor-view embeddings, z_alt the second-view embeddings
    that serve as the positive pool and as every anchor's negatives
    (rows j != i).  positive_assignment[i] indexes z_alt, or is
    ANCHOR_POSITIVE to mean "use z_pre[i]"; an assignment of i itself
    refers to the sample's own second augmentation view, never to the
    raw anchor embedding z[i].  Anchor-model embeddings stay out of the
    negative pool unless the config opts in.
    """

    z: Tensor
    labels: np.ndarray
    domains: np.ndarray
    z_alt: Tensor | None = None
    z_pre: np.ndarray | None = None
    positive_assignment: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)


def _require_unit_rows(data, name):
    norms = np.sqrt(np.sum(data * data, axis=1))
    off = np.abs(norms - 1.0)
    if np.any(off > _UNIT_NORM_TOL):
        row = int(np.argmax(off))
        raise LossConfigError(f"{name} row {row} is not unit-norm (norm {norms[row]:.6g})")


def erm_loss(logits, labels):
    """Mean negative log-likelihood under softmax over the class axis."""
    if logits.ndim != 2:
        raise ad.ShapeError(f"logits must be rank 2, got shape {logits.shape}")
    n, n_classes = logits.shape
    if n_classes < 2:
        raise LossConfigError("need at least 2 classes")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ad.ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise LossConfigError(
            f"label out of range: saw {int(labels.min())}..{int(labels.max())} "
            f"for {n_classes} classes"
        )
    lse = ad.logsumexp(logits)
    picked = ad.gather_pairs(logits, labels)
    return (lse - picked).mean()


def sample_positives_cdc(labels, domains, rng):
    """Draw each sample's positive uniformly from same-class batch members.

    Eligible positives are all other samples with the same class label,
    regardless of domain.  A class singleton falls back to its own index,
    i.e. to its own second augmentation view (plain self-contrast for
    that sample).
    """
    labels = np.asarray(labels)
    domains = np.asarray(domains)
    if labels.shape != domains.shape:
        raise ValueError("labels and domains must have the same length")
    n = len(labels)
    assignment = np.empty(n, dtype=np.int64)
    for i in range(n):
        eligible = np.nonzero(labels == labels[i])[0]
        eligible = eligible[eligible != i]
        if len(eligible) == 0:
            assignment[i] = i
        else:
            assignment[i] = eligible[rng.integers(len(eligible))]
    return assignment


def self_positives(n):
    """Every sample's positive is its own second augmentation view."""
    return np.arange(n, dtype=np.int64)


def mix_anchor_positives(assignment, pma_probability, rng):
    """Independently replace each positive with the sample's anchor embedding.

    With probability pma_probability (the coin defaults to 1/2 upstream)
    a sample's resolved positive becomes ANCHOR_POSITIVE; the choice is
    recorded per sample in the returned assignment.
    """
    if not 0.0 <= pma_probability <= 1.0:
        raise ValueError(f"pma_probability must lie in [0, 1], got {pma_probability}")
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    use_anchor = rng.random(len(assignment)) < pma_probability
    assignment[use_anchor] = ANCHOR_POSITIVE
    return assignment


def infonce_loss(batch, cfg):
    """Temperature-scaled contrastive loss over a resolved batch.

    Mean over samples of -[z.z+ / tau - log denominator], where the
    denominator sums exp(z.z-/tau) over the sample's negative pool,
    plus the positive term itself in "standard-infonce" mode.
    """
    cfg.validate()
    if batch.z_alt is None or batch.positive_assignment is None:
        raise LossConfigError("contrastive loss needs z_alt and a positive assignment")
    z, z_alt = batch.z, batch.z_alt
    n, d = z.shape
    if n < 2:
        raise LossConfigError("empty negative pool: need at least 2 samples")
    if z_alt.shape != (n, d):
        raise ad.ShapeError(f"z_alt shape {z_alt.shape} does not match z shape {z.shape}")
    _require_unit_rows(z.data, "z")
    _require_unit_rows(z_alt.data, "z_alt")
    assignment = np.asarray(batch.positive_assignment, dtype=np.int64)
    anchor_rows = assignment == ANCHOR_POSITIVE
    indexed = ~anchor_rows
    if np.any(indexed):
        idx = assignment[indexed]
        if idx.min() < 0 or idx.max() >= n:
            raise LossConfigError("positive assignment index out of range")
        if np.any(batch.labels[idx] != batch.labels[indexed]):
            bad = int(np.nonzero(batch.labels[idx] != batch.labels[indexed])[0][0])
            raise LossConfigError(f"cross-class positive for batch row {bad}")
    if np.any(anchor_rows) or cfg.anchor_negatives:
        if batch.z_pre is None:
            raise LossConfigError("anchor embeddings required but z_pre is absent")
        z_pre = np.asarray(batch.z_pre, dtype=np.float64)
        if z_pre.shape != (n, d):
            raise ad.ShapeError(f"z_pre shape {z_pre.shape} does not match z shape {z.shape}")
        _require_unit_rows(z_pre, "z_pre")

    inv_t = 1.0 / cfg.temperature
    safe = np.where(anchor_rows, 0, assignment)
    positives = ad.index_rows(z_alt, safe)
    if np.any(anchor_rows):
        keep = Tensor((~anchor_rows).astype(np.float64)[:, None])
        anchor_part = np.where(anchor_rows[:, None], batch.z_pre, 0.0)
        positives = positives * keep + Tensor(anchor_part)
    pos_logits = (z * positives).sum(axis=1) * inv_t
    sims = ad.matmul(z, ad.transpose(z_alt)) * inv_t
    neg_mask = ~np.eye(n, dtype=bool)
    denom = ad.logsumexp(sims, mask=neg_mask)
    if cfg.anchor_negatives:
        anchor_sims = ad.matmul(z, ad.transpose(Tensor(batch.z_pre))) * inv_t
        denom = ad.logaddexp(denom, ad.logsumexp(anchor_sims, mask=neg_mask))
    if cfg.denominator_mode == STANDARD_INFONCE:
        denom = ad.logaddexp(denom, pos_logits)
    return (denom - pos_logits).mean()


def gen_loss(gen, z, z_pre, noise):
    """Reconstruction of the anchor embedding plus the KL regularizer.

    Mean over the batch of ||z_pre - psi(z_lat)||^2 + KL[q(z_lat | z) ||
    unit Gaussian], with z_lat = z + sigma * noise from the transformer.
    """
    _, recon, kl = gen.transform(z, noise)
    err = Tensor(np.asarray(z_pre, dtype=np.float64)) - recon
    reconstruction = (err * err).sum(axis=1)
    return (reconstruction + kl).mean()


@dataclass
class LossBreakdown:
    """Total objective and the weighted contribution of each term.

    erm + contrast + gen equals total (same floating-point products, so
    the identity holds to the last bit).
    """

    total: Tensor
    erm: float
    contrast: float = 0.0
    gen: float = 0.0


def total_loss(batch, logits, cfg, gen=None, noise=None):
    """Combined objective: ERM + lambda * contrast + beta * generative."""
    cfg.validate()
    total = erm_loss(logits, batch.labels)
    erm_value = total.item()
    contrast_contrib = 0.0
    gen_contrib = 0.0
    if cfg.contrast_enabled:
        weighted = infonce_loss(batch, cfg) * cfg.contrast_weight
        contrast_contrib = weighted.item()
        total = total + weighted
    if cfg.gt_enabled:
        if gen is None:
            raise LossConfigError("gt_enabled requires a generative transformer")
        if batch.z_pre is None:
            raise LossConfigError("gt_enabled requires anchor embeddings z_pre")
        if noise is None:
            raise LossConfigError("gt_enabled requires an injected noise draw")
        weighted = gen_loss(gen, batch.z, batch.z_pre, noise) * cfg.gen_weight
        gen_contrib = weighted.item()
        total = total + weighted
    return LossBreakdown(total=total, erm=erm_value,
                         contrast=contrast_contrib, gen=gen_contrib)


def resolve_positives(cfg, labels, domains, rng):
    """Positive assignment for a batch under the configured flags."""
    n = len(labels)
    if cfg.cdc_enabled:
        assignment = sample_positives_cdc(labels, domains, rng)
    else:
        assignment = self_positives(n)
    if cfg.pma_enabled:
        assignment = mix_anchor_positives(assignment, cfg.pma_probability, rng)
    return assignment
