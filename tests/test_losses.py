import dataclasses
import inspect
import math

import numpy as np
import pytest

from dccl import losses
from dccl.autodiff import (DegenerateInputError, ShapeError, Tape, Tensor,
                           softmax_cross_entropy)
from dccl.losses import (ANCHOR_POSITIVE, ContrastBatch, LossConfig, gen_loss, infonce_loss,
                         mix_anchor_positives, resolve_positives, sample_positives_cdc,
                         total_loss)
from conftest import generator_tensors, max_rel_err, numerical_gradient
from elementary import l2_normalize


def normalize_rows(x):
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def make_batch(z_raw, z_alt_raw, labels, assignment=None, z_pre_raw=None):
    return ContrastBatch(
        z=Tensor(normalize_rows(z_raw)),
        z_alt=Tensor(normalize_rows(z_alt_raw)),
        labels=np.asarray(labels),
        z_pre=None if z_pre_raw is None else normalize_rows(z_pre_raw),
        positive_assignment=assignment,
    )


# --- cross entropy -----------------------------------------------------------

def test_erm_uniform_logits():
    logits = Tensor(np.zeros((4, 7)))
    loss = softmax_cross_entropy(logits, np.array([0, 3, 6, 1]))
    assert loss.item() == pytest.approx(math.log(7.0), abs=1e-12)


def test_erm_confident_logits():
    loss = softmax_cross_entropy(Tensor(np.array([[10.0, -10.0]])), np.array([0]))
    assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
    assert loss.item() == pytest.approx(2.061e-9, rel=1e-3)


def test_erm_symmetric_two_classes():
    for label in (0, 1):
        loss = softmax_cross_entropy(Tensor(np.array([[0.7, 0.7]])), np.array([label]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_erm_rejects_bad_labels():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# --- contrastive loss hand values ---------------------------------------------

def two_sample_batch():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    return make_batch(z, z.copy(), labels=[0, 1], assignment=np.array([0, 1]))


def test_infonce_negatives_only_hand_value():
    batch = two_sample_batch()
    cfg = LossConfig(temperature=0.1, self_contrast_only=True)
    # each sample: positive logit 10, single negative logit 0 -> -(10 - 0)
    assert infonce_loss(batch, cfg).item() == pytest.approx(-10.0, abs=1e-12)


def test_infonce_standard_mode_hand_value():
    batch = two_sample_batch()
    cfg = LossConfig(temperature=0.1, self_contrast_only=True,
                     denominator_mode=losses.STANDARD_INFONCE)
    expected = -math.log(math.exp(10.0) / (math.exp(10.0) + 1.0))
    assert infonce_loss(batch, cfg).item() == pytest.approx(expected, rel=1e-12)
    assert infonce_loss(batch, cfg).item() == pytest.approx(4.54e-5, rel=1e-2)


def test_infonce_orthogonal_pairs():
    # z orthogonal to both its positive and its single negative
    z = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    z_alt = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    batch = make_batch(z, z_alt, labels=[0, 1], assignment=np.array([0, 1]))
    cfg = LossConfig(temperature=1.0, self_contrast_only=True)
    assert infonce_loss(batch, cfg).item() == pytest.approx(0.0, abs=1e-12)
    cfg_std = LossConfig(temperature=1.0, self_contrast_only=True,
                         denominator_mode=losses.STANDARD_INFONCE)
    assert infonce_loss(batch, cfg_std).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_infonce_rejects_single_sample():
    z = np.array([[1.0, 0.0]])
    batch = make_batch(z, z.copy(), labels=[0], assignment=np.array([0]))
    with pytest.raises(DegenerateInputError):
        infonce_loss(batch, LossConfig(self_contrast_only=True))


def test_anchor_positive_requires_z_pre():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = make_batch(z, z.copy(), labels=[0, 1],
                       assignment=np.array([ANCHOR_POSITIVE, 1]))
    with pytest.raises(ShapeError):
        infonce_loss(batch, LossConfig(pma_enabled=True))


def test_anchor_negatives_flag_hand_value():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    z_pre = np.array([[0.0, 1.0], [1.0, 0.0]])
    batch = make_batch(z, z.copy(), labels=[0, 1], assignment=np.array([0, 1]),
                       z_pre_raw=z_pre)
    cfg = LossConfig(temperature=1.0, self_contrast_only=True, anchor_negatives=True)
    # each sample: positive logit 1; negatives are the other second view
    # (logit 0) and the other sample's anchor embedding (logit 1)
    expected = math.log(1.0 + math.e) - 1.0
    assert infonce_loss(batch, cfg).item() == pytest.approx(expected, abs=1e-12)
    # without the flag the anchor embeddings stay out of the pool
    cfg_off = LossConfig(temperature=1.0, self_contrast_only=True)
    assert infonce_loss(batch, cfg_off).item() == pytest.approx(-1.0, abs=1e-12)


def test_anchor_negatives_needs_z_pre():
    batch = two_sample_batch()
    cfg = LossConfig(self_contrast_only=True, anchor_negatives=True)
    with pytest.raises(ShapeError):
        infonce_loss(batch, cfg)


def test_anchor_negatives_gradient_matches_fd():
    for trial in range(5):
        z_raw, z_alt_raw, labels, assignment, z_pre = random_resolved_inputs(
            700 + trial, n=5, d=3, with_anchor=True)
        cfg = LossConfig(temperature=0.2, cdc_enabled=True, pma_enabled=True,
                         anchor_negatives=True)
        with Tape() as tape:
            zr = tape.watch(Tensor(z_raw))
            batch = ContrastBatch(z=l2_normalize(zr), z_alt=l2_normalize(Tensor(z_alt_raw)),
                                  labels=labels, z_pre=z_pre,
                                  positive_assignment=assignment)
            loss = infonce_loss(batch, cfg)
        analytic = tape.gradients(loss)[zr.node_id]

        def value():
            batch = make_batch(z_raw, z_alt_raw, labels, assignment, z_pre)
            return infonce_loss(batch, cfg).item()

        assert max_rel_err(analytic, numerical_gradient(value, z_raw)) <= 1e-4


def test_anchor_positive_value():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    z_pre = np.array([[0.0, 1.0], [0.0, 1.0]])
    batch = make_batch(z, z.copy(), labels=[0, 1],
                       assignment=np.array([ANCHOR_POSITIVE, 1]),
                       z_pre_raw=z_pre)
    cfg = LossConfig(temperature=1.0, pma_enabled=True)
    # sample 0: positive = z_pre[0], logit 0; negative z_alt[1], logit 0 -> 0
    # sample 1: positive = own view, logit 1; negative z_alt[0], logit 0 -> -1
    assert infonce_loss(batch, cfg).item() == pytest.approx(-0.5, abs=1e-12)


# --- positive sampling ---------------------------------------------------------

def test_objective_takes_no_domain_labels():
    # CDC draws a same-class positive whatever its domain, so no domain
    # label reaches the objective: they enter training only through the
    # per-domain batch balance, the held-out leak check and the batch counts
    for fn in (resolve_positives, sample_positives_cdc, total_loss):
        assert "domains" not in inspect.signature(fn).parameters, fn.__name__
    assert "domains" not in {f.name for f in dataclasses.fields(ContrastBatch)}


def test_cdc_two_member_class_forced():
    labels = np.array([0, 0])
    rng = np.random.default_rng(0)
    assignment = sample_positives_cdc(labels, rng)
    assert list(assignment) == [1, 0]


def test_cdc_uniform_over_eligible():
    labels = np.array([0, 0, 0, 0, 0, 1, 1])
    rng = np.random.default_rng(42)
    counts = np.zeros(7)
    trials = 100_000
    for _ in range(trials):
        # track the draw for sample 0, a member of the 5-strong class
        pick = sample_positives_cdc(labels, rng)[0]
        counts[pick] += 1
    freq = counts[1:5] / trials
    assert np.all(np.abs(freq - 0.25) <= 0.01)
    assert counts[0] == 0 and np.all(counts[5:] == 0)


def test_cdc_singleton_falls_back_to_self():
    labels = np.array([0, 1, 1])
    assignment = sample_positives_cdc(labels, np.random.default_rng(1))
    assert assignment[0] == 0
    assert assignment[1] == 2 and assignment[2] == 1


def test_cdc_never_crosses_classes(rng):
    for _ in range(50):
        labels = rng.integers(0, 4, 20)
        rng.integers(0, 3, 20)  # unused: keeps the later draws of this stream
        assignment = sample_positives_cdc(labels, rng)
        assert np.all(labels[assignment] == labels)


def test_mix_degenerate_probabilities():
    assignment = np.arange(6)
    rng = np.random.default_rng(3)
    assert np.array_equal(mix_anchor_positives(assignment, 0.0, rng), assignment)
    assert np.all(mix_anchor_positives(assignment, 1.0, rng) == ANCHOR_POSITIVE)


def test_mix_bernoulli_frequency():
    rng = np.random.default_rng(11)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        out = mix_anchor_positives(np.zeros(1, dtype=int), 0.5, rng)
        hits += out[0] == ANCHOR_POSITIVE
    assert abs(hits / trials - 0.5) <= 0.02


# --- generative loss -----------------------------------------------------------

def test_gen_loss_zero_at_prior_matched_perfect_reconstruction():
    gen = generator_tensors(2)
    z = np.zeros((1, 2))
    loss = gen_loss(gen, Tensor(z), z, np.zeros((1, 2)))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_gen_loss_hand_value():
    gen = generator_tensors(2)
    z = np.array([[1.0, 0.0]])
    z_pre = np.array([[0.0, 1.0]])
    loss = gen_loss(gen, Tensor(z), z_pre, np.zeros((1, 2)))
    # identity decoder: reconstruction ||(0,1)-(1,0)||^2 = 2, kl = 0.5
    assert loss.item() == pytest.approx(2.5, abs=1e-12)


# --- combined objective ---------------------------------------------------------

def random_resolved_inputs(seed, n=5, d=4, with_anchor=False):
    rng = np.random.default_rng(seed)
    z_raw = rng.standard_normal((n, d)) + 0.1
    z_alt_raw = rng.standard_normal((n, d)) + 0.1
    labels = rng.integers(0, 2, n)
    rng.integers(0, 2, n)  # unused: keeps the later draws of this stream
    assignment = sample_positives_cdc(labels, rng)
    z_pre = None
    if with_anchor:
        z_pre = normalize_rows(rng.standard_normal((n, d)))
        assignment = mix_anchor_positives(assignment, 0.5, rng)
    return z_raw, z_alt_raw, labels, assignment, z_pre


def test_total_equals_erm_when_all_flags_off():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, 6)
    batch = ContrastBatch(z=Tensor(normalize_rows(rng.standard_normal((6, 4)))),
                          labels=labels)
    breakdown = total_loss(batch, logits, LossConfig())
    assert breakdown.total.item() == softmax_cross_entropy(logits, labels).item()
    assert breakdown.contrast == 0.0 and breakdown.gen == 0.0


def test_breakdown_terms_sum_to_total():
    z_raw, z_alt_raw, labels, assignment, z_pre = random_resolved_inputs(
        3, with_anchor=True)
    gen = generator_tensors(4)
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((5, 2)))
    noise = rng.standard_normal((5, 4))
    batch = make_batch(z_raw, z_alt_raw, labels, assignment, z_pre)
    cfg = LossConfig(contrast_weight=1.0, gen_weight=0.05, cdc_enabled=True,
                     pma_enabled=True, gt_enabled=True)
    breakdown = total_loss(batch, logits, cfg, gen=gen, noise=noise)
    assert abs(breakdown.erm + breakdown.contrast + breakdown.gen
               - breakdown.total.item()) <= 1e-12
    # independent recomputation of the three terms
    erm = softmax_cross_entropy(logits, batch.labels).item()
    contrast = infonce_loss(batch, cfg).item()
    generative = gen_loss(gen, batch.z, batch.z_pre, noise).item()
    assert breakdown.total.item() == pytest.approx(
        erm + 1.0 * contrast + 0.05 * generative, abs=1e-12)


def test_contrast_contribution_scales_exactly_with_lambda():
    z_raw, z_alt_raw, labels, assignment, _ = random_resolved_inputs(8)
    rng = np.random.default_rng(9)
    logits = Tensor(rng.standard_normal((5, 2)))
    batch = make_batch(z_raw, z_alt_raw, labels, assignment)
    for scale in (2.0, 4.0, 0.5):
        low = total_loss(batch, logits, LossConfig(contrast_weight=1.0, cdc_enabled=True))
        high = total_loss(batch, logits, LossConfig(contrast_weight=scale, cdc_enabled=True))
        assert high.contrast == scale * low.contrast


def test_temperature_monotonicity():
    # fixed batch with one dominant positive: the positive-negative logit
    # gap grows as the temperature falls
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = make_batch(z, z.copy(), labels=[0, 1], assignment=np.array([0, 1]))
    gaps = []
    for tau in (1.0, 0.5, 0.1):
        pos = 1.0 / tau   # z.z+ = 1
        neg = 0.0 / tau   # z.z- = 0
        gaps.append(pos - neg)
        cfg = LossConfig(temperature=tau, self_contrast_only=True)
        assert infonce_loss(batch, cfg).item() == pytest.approx(-(pos - neg), abs=1e-12)
    assert gaps[0] < gaps[1] < gaps[2]


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(temperature=0.0).validate()
    with pytest.raises(ValueError):
        LossConfig(self_contrast_only=True, cdc_enabled=True).validate()
    with pytest.raises(ValueError):
        LossConfig(self_contrast_only=True, pma_enabled=True).validate()
    with pytest.raises(ValueError):
        LossConfig(denominator_mode="both").validate()
    with pytest.raises(ValueError):
        LossConfig(contrast_weight=-1.0).validate()


# --- gradient oracle -----------------------------------------------------------

def contrast_loss_value(z_raw, z_alt_raw, labels, assignment, z_pre, cfg):
    batch = make_batch(z_raw, z_alt_raw, labels, assignment, z_pre)
    return infonce_loss(batch, cfg)


@pytest.mark.parametrize("mode", [losses.NEGATIVES_ONLY, losses.STANDARD_INFONCE])
@pytest.mark.parametrize("with_anchor", [False, True])
def test_contrast_gradients_match_fd(mode, with_anchor):
    for trial in range(8):
        z_raw, z_alt_raw, labels, assignment, z_pre = random_resolved_inputs(
            100 + trial, n=6, d=3, with_anchor=with_anchor)
        cfg = LossConfig(temperature=0.2, cdc_enabled=True, pma_enabled=with_anchor,
                         denominator_mode=mode)
        with Tape() as tape:
            zr = tape.watch(Tensor(z_raw))
            za = tape.watch(Tensor(z_alt_raw))
            batch = ContrastBatch(
                z=l2_normalize(zr), z_alt=l2_normalize(za),
                labels=labels, z_pre=z_pre,
                positive_assignment=assignment)
            loss = infonce_loss(batch, cfg)
        grads = tape.gradients(loss)

        def value():
            return contrast_loss_value(z_raw, z_alt_raw, labels, assignment, z_pre,
                                       cfg).item()

        assert max_rel_err(grads[zr.node_id], numerical_gradient(value, z_raw)) <= 1e-4
        assert max_rel_err(grads[za.node_id], numerical_gradient(value, z_alt_raw)) <= 1e-4


def test_erm_gradient_matches_fd():
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        logits_raw = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        with Tape() as tape:
            lg = tape.watch(Tensor(logits_raw))
            loss = softmax_cross_entropy(lg, labels)
        analytic = tape.gradients(loss)[lg.node_id]
        numeric = numerical_gradient(
            lambda: softmax_cross_entropy(Tensor(logits_raw), labels).item(), logits_raw)
        assert max_rel_err(analytic, numeric) <= 1e-4
