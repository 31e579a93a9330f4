"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every run in here is a
pure function of its pinned config and seeds, so the suite is stable
bit for bit.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dccl.autodiff import Tape, Tensor
from dccl.cli import main
from dccl.connectivity import (connecting_threshold, connectivity_report,
                               intra_class_variance, pairwise_stats)
from dccl.harness import (AnchorConfig, AugmentConfig, DatasetSpec,
                          ExperimentConfig, OptimConfig, ablation_grid,
                          build_run_anchor, collect_embeddings, train)
from dccl.losses import (ContrastBatch, LossConfig, gen_loss, infonce_loss,
                         mix_anchor_positives, sample_positives_cdc, total_loss)
from dccl.nets import Model, ModelSpec
from dccl.optim import Adam
from dccl.synthdata import (ADDITIVE, AugmentationSpec, augment,
                            gen_example31_both, make_batches)

from conftest import brute_force_threshold, max_rel_err, numerical_gradient
from elementary import l2_normalize

SEEDS = (0, 1, 2)

# every harness run executed by this suite lands here for the protocol audit
AUDITED_RUNS = []

# benchmark for the ablation ordering (criterion 5)
GRID_CONFIG = ExperimentConfig(
    dataset=DatasetSpec(kind="rotated_gaussians", n_domains=4, n_classes=3,
                        n_per_domain_class=40, rotation_step=0.5,
                        class_separation=2.0, noise_std=0.3, seed=0),
    loss=LossConfig(contrast_weight=1.0, gen_weight=0.15, temperature=0.3),
    model=ModelSpec(),
    optim=OptimConfig(lr=5e-4, steps=1200, batch_size=24, eval_every=50),
    anchor=AnchorConfig(steps=300, lr=1e-3, batch_size=32),
    augment=AugmentConfig(standard_intensity=0.1, aggressive_intensity=0.5),
    seed=0,
)

# harsher shift for the connectivity contrast (criterion 4); the barely
# fitted anchor keeps the spread-but-connected geometry the contrast needs
CONNECTIVITY_CONFIG = ExperimentConfig(
    dataset=DatasetSpec(kind="rotated_gaussians", n_domains=3, n_classes=3,
                        n_per_domain_class=40, rotation_step=0.8,
                        class_separation=3.0, noise_std=0.3, seed=0),
    loss=LossConfig(),
    model=ModelSpec(),
    optim=OptimConfig(lr=5e-4, steps=1200, batch_size=24, eval_every=50),
    anchor=AnchorConfig(steps=50, lr=1e-3, batch_size=32),
    augment=AugmentConfig(),
    holdout=0,
    seed=0,
)


def report(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {detail}")


# -- 1. toy example exactness --------------------------------------------------

def test_criterion_1_toy_exactness(capsys):
    started = time.perf_counter()
    assert main(["toy", "--variant", "weak"]) == 0
    weak = capsys.readouterr().out
    assert main(["toy", "--variant", "aggressive"]) == 0
    aggressive = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    assert "d2 accuracy: 0.00%" in weak
    assert "d1 accuracy: 100.00%" in weak
    assert "d1 accuracy: 100.00%" in aggressive
    assert "d2 accuracy: 100.00%" in aggressive
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"weak transfers 0%, aggressive 100%, in {elapsed:.2f}s")


# -- 2. gradient oracle over the loss family ------------------------------------

def _fd_check_embedding_loss(build_loss, n, d, seed):
    """FD check of a loss that consumes normalized views of two raw matrices."""
    rng = np.random.default_rng(seed)
    z_raw = rng.standard_normal((n, d)) + 0.1
    alt_raw = rng.standard_normal((n, d)) + 0.1
    with Tape() as tape:
        zr = tape.watch(Tensor(z_raw))
        ar = tape.watch(Tensor(alt_raw))
        loss = build_loss(l2_normalize(zr), l2_normalize(ar), rng)
    grads = tape.gradients(loss)

    def value():
        rng_fd = np.random.default_rng(seed)
        rng_fd.standard_normal((n, d))
        rng_fd.standard_normal((n, d))
        return build_loss(l2_normalize(Tensor(z_raw)),
                          l2_normalize(Tensor(alt_raw)), rng_fd).item()

    errs = [
        max_rel_err(grads[zr.node_id], numerical_gradient(value, z_raw)),
        max_rel_err(grads[ar.node_id], numerical_gradient(value, alt_raw)),
    ]
    return max(errs)


def test_criterion_2_gradient_oracle():
    started = time.perf_counter()
    worst = {}

    # self-contrast objective (one negatives-only ratio per sample)
    def self_contrast(z, z_alt, rng):
        n = z.shape[0]
        labels = np.arange(n) % 2
        batch = ContrastBatch(z=z, labels=labels, domains=np.zeros(n, dtype=int),
                              z_alt=z_alt, positive_assignment=np.arange(n))
        return infonce_loss(batch, LossConfig(temperature=0.2, self_contrast_only=True))

    worst["self-contrast"] = max(
        _fd_check_embedding_loss(self_contrast, n=5, d=3, seed=s) for s in range(20))

    # cross-domain positives
    def cdc(z, z_alt, rng):
        n = z.shape[0]
        labels = np.array([0, 0, 1, 1, 0, 1])[:n]
        domains = np.array([0, 1, 0, 1, 2, 2])[:n]
        assignment = sample_positives_cdc(labels, domains, rng)
        batch = ContrastBatch(z=z, labels=labels, domains=domains,
                              z_alt=z_alt, positive_assignment=assignment)
        return infonce_loss(batch, LossConfig(temperature=0.2, cdc_enabled=True))

    worst["cross-domain"] = max(
        _fd_check_embedding_loss(cdc, n=6, d=3, seed=100 + s) for s in range(20))

    # anchor-mixed positives
    def anchored(z, z_alt, rng):
        n = z.shape[0]
        labels = np.array([0, 0, 1, 1, 0, 1])[:n]
        domains = np.array([0, 1, 0, 1, 2, 2])[:n]
        assignment = mix_anchor_positives(
            sample_positives_cdc(labels, domains, rng), 0.5, rng)
        z_pre_raw = rng.standard_normal((n, z.shape[1]))
        z_pre = z_pre_raw / np.linalg.norm(z_pre_raw, axis=1, keepdims=True)
        batch = ContrastBatch(z=z, labels=labels, domains=domains, z_alt=z_alt,
                              z_pre=z_pre, positive_assignment=assignment)
        return infonce_loss(batch, LossConfig(temperature=0.2, cdc_enabled=True,
                                              pma_enabled=True))

    worst["anchored"] = max(
        _fd_check_embedding_loss(anchored, n=6, d=3, seed=200 + s) for s in range(20))

    # generative transformation loss, gradients through z and all generator params
    gen_errs = []
    for s in range(20):
        rng = np.random.default_rng(300 + s)
        rng.standard_normal((3, 3))  # unused: keeps the later draws of this stream
        gen = {"gen.std_bias": Tensor(rng.uniform(-0.5, 0.5, 3)),
               "gen.dec.W": Tensor(np.eye(3) + 0.1 * rng.standard_normal((3, 3))),
               "gen.dec.b": Tensor(np.zeros(3))}
        z_raw = rng.standard_normal((4, 3))
        z_pre = rng.standard_normal((4, 3))
        noise = rng.standard_normal((4, 3))
        leaves = {"z": Tensor(z_raw), "bias": gen["gen.std_bias"],
                  "dec.W": gen["gen.dec.W"], "dec.b": gen["gen.dec.b"]}
        with Tape() as tape:
            for leaf in leaves.values():
                tape.watch(leaf)
            loss = gen_loss(gen, leaves["z"], z_pre, noise)
        grads = tape.gradients(loss)
        for name, leaf in leaves.items():
            # perturb the live array the forward pass reads
            numeric = numerical_gradient(
                lambda: gen_loss(gen, Tensor(z_raw), z_pre, noise).item(),
                leaf.data if name != "z" else z_raw)
            gen_errs.append(max_rel_err(grads[leaf.node_id], numeric))
    worst["generative"] = max(gen_errs)

    # combined objective through a full model, per parameter
    total_errs = []
    for s in range(20):
        rng = np.random.default_rng(400 + s)
        spec = ModelSpec(encoder_hidden=(6, 5), embed_dim=4, head_hidden=6,
                         batchnorm=True, with_gen=True)
        model = Model(2, 2, spec, np.random.default_rng(50 + s))
        xb = rng.standard_normal((4, 2))
        x2 = rng.standard_normal((4, 2))
        labels = rng.integers(0, 2, 4)
        domains = np.array([0, 1, 0, 1])
        assignment = mix_anchor_positives(
            sample_positives_cdc(labels, domains, rng), 0.5, rng)
        z_pre_raw = rng.standard_normal((4, 4))
        z_pre = z_pre_raw / np.linalg.norm(z_pre_raw, axis=1, keepdims=True)
        noise = rng.standard_normal((4, 4))
        cfg = LossConfig(contrast_weight=1.0, gen_weight=0.2, temperature=0.25,
                         cdc_enabled=True, pma_enabled=True, gt_enabled=True)

        def loss_value():
            z1 = model.embed(xb, training=True)
            z2 = model.embed(x2, training=True)
            logits = model.logits(z1)
            batch = ContrastBatch(z=z1, labels=labels, domains=domains, z_alt=z2,
                                  z_pre=z_pre, positive_assignment=assignment)
            return total_loss(batch, logits, cfg, gen=model.parameters(), noise=noise)

        with Tape() as tape:
            model.watch(tape)
            breakdown = loss_value()
        grads = tape.gradients(breakdown.total)
        for name, param in model.parameters().items():
            numeric = numerical_gradient(lambda: loss_value().total.item(), param.data)
            total_errs.append(max_rel_err(grads[param.node_id], numeric))
    worst["combined"] = max(total_errs)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    for name, err in worst.items():
        assert err <= 1e-4, f"{name} gradient check failed: {err:.2e}"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(2, f"max rel errors: {detail}; {elapsed:.1f}s")


# -- 3. connectivity oracle ------------------------------------------------------

def test_criterion_3_connectivity_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(200):
        k = int(rng.integers(2, 13))
        d = int(rng.integers(1, 6))
        pts = rng.standard_normal((k, d)) * rng.uniform(0.3, 4.0)
        assert connecting_threshold(pts) == brute_force_threshold(pts)
    collinear = np.array([[0.0], [1.0], [3.0]])
    mu, sigma, _ = pairwise_stats(collinear)
    assert (connecting_threshold(collinear) - mu) / sigma == pytest.approx(0.0, abs=1e-12)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert connecting_threshold(square) == pytest.approx(1.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"200/200 exact MST-vs-sweep agreements, fixtures match; {elapsed:.1f}s")


# -- 4. anchor vs ERM connectivity contrast ---------------------------------------

def test_criterion_4_anchor_connectivity_contrast():
    started = time.perf_counter()
    dataset = CONNECTIVITY_CONFIG.dataset.build()
    outcomes = []
    for seed in SEEDS:
        cfg = replace(CONNECTIVITY_CONFIG, seed=seed)
        anchor = build_run_anchor(cfg, dataset)
        anchor_score = connectivity_report(
            collect_embeddings(anchor, dataset), mode="pooled").mean_score
        erm_run = train(cfg)
        AUDITED_RUNS.append(erm_run)
        outcomes.append((seed, anchor_score, erm_run.connectivity_selected))
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    for seed, anchor_score, erm_score in outcomes:
        assert anchor_score < erm_score, (
            f"seed {seed}: anchor {anchor_score:.3f} !< ERM {erm_score:.3f}")
    summary = "; ".join(f"seed {s}: {a:.2f} < {e:.2f}" for s, a, e in outcomes)
    report(4, f"anchor strictly better-connected in 3/3 seeds ({summary}); {elapsed:.0f}s")


# -- 5. ablation ordering ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_ablation_ordering():
    started = time.perf_counter()
    grid = ablation_grid(GRID_CONFIG, seeds=SEEDS, workers=2)
    AUDITED_RUNS.extend(grid.runs.values())
    mean = {row.name: grid.row_mean(row.name) for row in grid.rows}
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    assert mean["full"] >= mean["erm"], (
        f"full {mean['full']:.4f} < erm {mean['erm']:.4f}")
    assert mean["self_contrast"] <= mean["erm"] + 0.01, (
        f"self-contrast {mean['self_contrast']:.4f} > erm + 1pt")
    for dropped in ("pma_gt", "cdc_gt", "cdc_pma"):
        assert mean["full"] >= mean[dropped], (
            f"dropping a component helped: full {mean['full']:.4f} < "
            f"{dropped} {mean[dropped]:.4f}")
    report(5, (f"full {mean['full']:.4f} >= erm {mean['erm']:.4f}; "
               f"self {mean['self_contrast']:.4f} <= erm+1pt; "
               f"drops {mean['pma_gt']:.4f}/{mean['cdc_gt']:.4f}/"
               f"{mean['cdc_pma']:.4f} all <= full; {elapsed:.0f}s"))


# -- 6. vanishing intra-class variance ----------------------------------------------

def test_criterion_6_intra_class_variance_vanishes():
    started = time.perf_counter()
    dataset = gen_example31_both(48, seed=1)
    model = Model(2, 2, ModelSpec(encoder_hidden=(32,), embed_dim=8, head_hidden=32),
                  np.random.default_rng(0))
    cfg = LossConfig(cdc_enabled=True, aggressive_augmentation=True, temperature=0.1)
    spec = AugmentationSpec(kind=ADDITIVE, intensity=0.5)
    rng_aug = np.random.default_rng(1)
    rng_pos = np.random.default_rng(2)
    batches = make_batches(dataset, 24, seed=3)
    adams = [Adam(lr=1e-3)]
    model, flat = Model.lockstep([model])

    var_init = intra_class_variance(model.embed(dataset.X).data, dataset.labels)
    curve = []
    for _ in range(600):
        idx = next(batches)
        xb, yb, db = dataset.X[idx], dataset.labels[idx], dataset.domains[idx]
        v1 = augment(xb, spec, rng_aug)
        v2 = augment(xb, spec, rng_aug)
        assignment = sample_positives_cdc(yb, db, rng_pos)
        with Tape() as tape:
            model.watch(tape)
            z1 = model.embed(v1, training=True)
            z2 = model.embed(v2, training=True)
            loss = infonce_loss(ContrastBatch(z=z1, labels=yb, domains=db, z_alt=z2,
                                              positive_assignment=assignment), cfg)
        curve.append(loss.item())
        flat = model.descend(adams, flat, tape.gradients(loss))

    var_final = intra_class_variance(model.embed(dataset.X).data, dataset.labels)
    elapsed = time.perf_counter() - started
    plateau_drift = abs(np.mean(curve[-50:]) - np.mean(curve[-150:-100]))
    ratio = var_final / var_init
    assert elapsed < 120.0
    assert plateau_drift < 0.05, f"contrastive loss has not plateaued ({plateau_drift:.3f})"
    assert ratio < 0.10, f"variance ratio {ratio:.3f} not below 10%"
    report(6, f"intra-class variance {var_init:.4f} -> {var_final:.4f} "
              f"(ratio {ratio:.3f}), loss plateau drift {plateau_drift:.4f}; {elapsed:.0f}s")


# -- 7. byte-identical reruns ---------------------------------------------------------

def test_criterion_7_determinism(tmp_path, capsys):
    # toy command
    main(["toy", "--variant", "weak", "--seed", "5"])
    toy_first = capsys.readouterr().out
    main(["toy", "--variant", "weak", "--seed", "5"])
    assert capsys.readouterr().out == toy_first

    # train command on a small config
    config = tmp_path / "micro.cfg"
    config.write_text(
        "experiment = determinism\n"
        f"output_dir = {tmp_path / 'runs'}\n"
        "seeds = 0\n"
        "dataset.domains = 3\ndataset.classes = 2\ndataset.per_domain_class = 12\n"
        "dataset.rotation_step = 0.4\ndataset.class_separation = 2.5\n"
        "model.encoder_hidden = 12\nmodel.embed_dim = 6\nmodel.head_hidden = 12\n"
        "optim.steps = 60\noptim.batch_size = 8\noptim.eval_every = 20\n"
        "loss.cdc = true\nloss.pma = true\nloss.gt = true\n"
        "anchor.steps = 30\nanchor.batch_size = 12\n"
    )
    assert main(["train", "--config", str(config)]) == 0
    train_first = capsys.readouterr().out
    result_csv = tmp_path / "runs" / "determinism" / "train" / "seed0" / "result.csv"
    first_bytes = result_csv.read_bytes()
    losses_bytes = (result_csv.parent / "losses.csv").read_bytes()
    checkpoint_bytes = (result_csv.parent / "checkpoint.txt").read_bytes()
    assert main(["train", "--config", str(config)]) == 0
    assert capsys.readouterr().out == train_first
    assert result_csv.read_bytes() == first_bytes
    assert (result_csv.parent / "losses.csv").read_bytes() == losses_bytes
    assert (result_csv.parent / "checkpoint.txt").read_bytes() == checkpoint_bytes

    # connectivity command over a dump produced from the run checkpoint
    data = tmp_path / "data.txt"
    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "6", "--out", str(data)]) == 0
    dump = tmp_path / "emb.txt"
    assert main(["dump-embeddings", "--checkpoint", str(result_csv.parent / "checkpoint.txt"),
                 "--data", str(data), "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["connectivity", "--dump", str(dump)]) == 0
    conn_first = capsys.readouterr().out
    assert main(["connectivity", "--dump", str(dump)]) == 0
    assert capsys.readouterr().out == conn_first

    with capsys.disabled():
        report(7, "toy/train/connectivity reruns byte-identical (stdout and artifacts)")


# -- 8. protocol audit ------------------------------------------------------------------

def test_criterion_8_protocol_audit():
    # one fresh audited run so the check never runs on an empty ledger
    run = train(replace(CONNECTIVITY_CONFIG,
                        optim=OptimConfig(lr=5e-4, steps=100, batch_size=24,
                                          eval_every=50),
                        holdout=2, seed=9))
    AUDITED_RUNS.append(run)
    assert len(AUDITED_RUNS) >= 1 + len(SEEDS)
    leaks = 0
    batches_seen = 0
    for result in AUDITED_RUNS:
        batches_seen += sum(result.domain_batch_counts.values())
        if result.holdout in result.domain_batch_counts:
            leaks += 1
    assert leaks == 0
    report(8, f"{len(AUDITED_RUNS)} runs, {batches_seen} batched samples scanned, "
              f"zero held-out-domain leaks")
