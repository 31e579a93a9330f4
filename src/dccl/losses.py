"""Training objectives: the contrastive family and the variational
generative-transformation loss, combined with the cross-entropy of
`autodiff.softmax_cross_entropy` by `total_loss`.

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
from .options import ConfigError, check_ranges, option

ANCHOR_POSITIVE = -1

NEGATIVES_ONLY = "negatives-only"
STANDARD_INFONCE = "standard-infonce"

@dataclass(frozen=True)
class LossConfig:
    """Objective weights and ablation toggles.

    contrast_weight and gen_weight are the lambda/beta multipliers of the
    combined objective; temperature divides every similarity logit.  The
    denominator mode controls whether the positive term joins the
    negatives in the contrastive denominator ("standard-infonce") or the
    denominator stays negatives-only (the literal default).
    """

    contrast_weight: float = option(1.0, "contrastive weight", key="lambda", within="[0, inf)")
    gen_weight: float = option(0.05, "generative weight", key="beta", within="[0, inf)")
    temperature: float = option(0.1, "contrastive temperature", within="(0, inf)")
    cdc_enabled: bool = option(False, "cross-domain positive sampling", key="cdc")
    pma_enabled: bool = option(False, "anchor-embedding positives (coin-mixed)", key="pma")
    gt_enabled: bool = option(False, "generative transformation loss", key="gt")
    self_contrast_only: bool = option(False, "positives from own views only")
    aggressive_augmentation: bool = option(False, "use the aggressive jitter intensity")
    denominator_mode: str = option(NEGATIVES_ONLY, "contrastive denominator contents",
                                   choices=(NEGATIVES_ONLY, STANDARD_INFONCE))
    anchor_negatives: bool = option(False, "other samples' anchor embeddings join the negatives")
    pma_probability: float = option(0.5, "chance a positive becomes the anchor",
                                    within="[0, 1]")

    def validate(self):
        check_ranges(self, name="loss.{}".format)
        if self.self_contrast_only and self.cdc_enabled:
            raise ConfigError("self_contrast_only and cdc_enabled are mutually exclusive")
        if self.self_contrast_only and self.pma_enabled:
            raise ConfigError("self_contrast_only rules out anchor positives")
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
    z_alt: Tensor | None = None
    z_pre: np.ndarray | None = None
    positive_assignment: np.ndarray | None = None


def sample_positives_cdc(labels, rng):
    """Draw each sample's positive uniformly from same-class batch members.

    Eligible positives are all other samples with the same class label,
    regardless of domain.  A class singleton falls back to its own index,
    i.e. to its own second augmentation view (plain self-contrast for
    that sample).
    """
    labels = np.asarray(labels)
    n = len(labels)
    same = (labels[:, None] == labels) & ad.off_diagonal(n)
    others = np.add.reduce(same, 1)
    drawn = others > 0
    counts = others[drawn]
    # one draw per non-singleton, in index order: the values and the
    # generator state of one rng.integers(k) call per sample
    pick = rng.integers(counts)
    eligible = same[drawn].nonzero()[1]  # each drawn row's candidates, row by row
    assignment = np.arange(n, dtype=np.int64)
    assignment[drawn] = eligible[np.add.accumulate(counts) - counts + pick]
    return assignment


def mix_anchor_positives(assignment, pma_probability, rng):
    """Independently replace each positive with the sample's anchor embedding.

    With probability pma_probability (the coin defaults to 1/2 upstream)
    a sample's resolved positive becomes ANCHOR_POSITIVE; the choice is
    recorded per sample in the returned assignment.
    """
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
    return ad.contrastive_term(batch.z, batch.z_alt, batch.positive_assignment, batch.z_pre,
                               cfg.temperature, anchor_negatives=cfg.anchor_negatives,
                               standard=cfg.denominator_mode == STANDARD_INFONCE)


def gen_loss(gen, z, z_pre, noise):
    """Reconstruction of the anchor embedding plus the KL regularizer.

    Mean over the batch of ||z_pre - psi(z_lat)||^2 + KL[q(z_lat | z) ||
    unit Gaussian], with z_lat = z + sigma * noise from the transformer.
    `gen` maps the `gen.*` names of `nets.generator` to Tensors, as a
    model's parameter table does.
    """
    return ad.generative_term(z, z_pre, noise, gen["gen.std_bias"], gen["gen.dec.W"],
                              gen["gen.dec.b"])


@dataclass
class LossBreakdown:
    """Total objective and the weighted contribution of each term, each a
    scalar array, or one value per run for a stacked batch; a term that
    is off contributes 0.0.

    erm + contrast + gen equals total (same floating-point products, so
    the identity holds to the last bit).
    """

    total: Tensor
    erm: np.ndarray
    contrast: np.ndarray | float = 0.0
    gen: np.ndarray | float = 0.0


def total_loss(batch, logits, cfg, gen=None, noise=None):
    """Combined objective: ERM + lambda * contrast + beta * generative.
    `gen` holds the generator's tensors, as for `gen_loss`.  A batch
    stacked on a run axis gives one objective per run."""
    total = ad.softmax_cross_entropy(logits, batch.labels)
    erm_value = total.data
    contrast_contrib = 0.0
    gen_contrib = 0.0
    if cfg.contrast_enabled:
        weighted = infonce_loss(batch, cfg) * cfg.contrast_weight
        contrast_contrib = weighted.data
        total = total + weighted
    if cfg.gt_enabled:
        weighted = gen_loss(gen, batch.z, batch.z_pre, noise) * cfg.gen_weight
        gen_contrib = weighted.data
        total = total + weighted
    return LossBreakdown(total=total, erm=erm_value,
                         contrast=contrast_contrib, gen=gen_contrib)


def resolve_positives(cfg, labels, rng):
    """Positive assignment for a batch under the configured flags."""
    if cfg.cdc_enabled:
        assignment = sample_positives_cdc(labels, rng)
    else:
        # every sample's positive is its own second augmentation view
        assignment = np.arange(len(labels), dtype=np.int64)
    if cfg.pma_enabled:
        assignment = mix_anchor_positives(assignment, cfg.pma_probability, rng)
    return assignment
