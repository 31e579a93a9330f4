import math

import numpy as np
import pytest

from dccl.formats import load_checkpoint
from dccl.harness import (AnchorConfig, AugmentConfig, DatasetSpec,
                          ExperimentConfig, OptimConfig, TrainingDiverged,
                          ablation_grid, build_run_anchor, collect_embeddings,
                          leave_one_out, train)
from dccl.losses import LossConfig
from dccl.nets import ModelSpec


def micro_config(**overrides):
    defaults = dict(
        dataset=DatasetSpec(n_domains=3, n_classes=2, n_per_domain_class=12,
                            rotation_step=0.4, class_separation=2.5,
                            noise_std=0.3, seed=0),
        loss=LossConfig(),
        model=ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12),
        optim=OptimConfig(lr=1e-3, steps=60, batch_size=8, eval_every=20),
        anchor=AnchorConfig(steps=30, batch_size=12),
        augment=AugmentConfig(),
        holdout=0,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_erm_run_has_no_contrast_or_gen_terms():
    result = train(micro_config())
    assert all(row.contrast == 0.0 and row.gen == 0.0 for row in result.loss_curve)
    assert all(row.total == row.erm for row in result.loss_curve)
    assert 0.0 <= result.test_accuracy <= 1.0
    assert result.selected_step >= 1
    assert len(result.loss_curve) == 60


def test_run_is_bit_deterministic():
    cfg = micro_config(loss=LossConfig(cdc_enabled=True, pma_enabled=True,
                                       gt_enabled=True, aggressive_augmentation=True))
    a = train(cfg)
    b = train(cfg)
    assert a.test_accuracy == b.test_accuracy
    assert a.best_val_accuracy == b.best_val_accuracy
    assert a.selected_step == b.selected_step
    assert a.connectivity_selected == b.connectivity_selected
    assert [(r.step, r.total) for r in a.loss_curve] == [(r.step, r.total) for r in b.loss_curve]


def test_holdout_never_in_training_batches():
    for holdout in range(3):
        result = train(micro_config(holdout=holdout))
        assert holdout not in result.domain_batch_counts
        assert set(result.domain_batch_counts) == {m for m in range(3) if m != holdout}


def test_split_sizes_and_label_ratio():
    full = train(micro_config())
    # 2 source domains x 24 samples, 80/20 per domain
    assert full.n_train == 38 and full.n_val == 10
    half = train(micro_config(label_ratio=0.5))
    assert half.n_train == math.ceil(0.5 * 38)
    tiny = train(micro_config(label_ratio=0.26))
    assert tiny.n_train == math.ceil(0.26 * 38)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        train(micro_config(holdout=7))
    with pytest.raises(ValueError):
        micro_config(split_fraction=1.2).validate()
    with pytest.raises(ValueError):
        micro_config(label_ratio=0.0).validate()


def test_divergence_aborts_with_step():
    cfg = micro_config(optim=OptimConfig(lr=1e200, steps=40, batch_size=8, eval_every=20))
    with pytest.raises(TrainingDiverged) as err:
        with np.errstate(all="ignore"):
            train(cfg)
    assert err.value.step >= 1
    assert f"step {err.value.step}" in str(err.value)


def test_leave_one_out_protocol():
    loo = leave_one_out(micro_config())
    assert len(loo.runs) == 3
    assert sorted(r.holdout for r in loo.runs) == [0, 1, 2]
    assert loo.average == pytest.approx(np.mean([r.test_accuracy for r in loo.runs]))
    for run in loo.runs:
        assert run.holdout not in run.domain_batch_counts


def test_no_shift_transfers_cleanly():
    cfg = micro_config(
        dataset=DatasetSpec(n_domains=3, n_classes=2, n_per_domain_class=30,
                            rotation_step=0.0, class_separation=3.0,
                            noise_std=0.3, seed=1),
        optim=OptimConfig(lr=1e-3, steps=200, batch_size=8, eval_every=40),
    )
    loo = leave_one_out(cfg)
    accs = [r.test_accuracy for r in loo.runs]
    assert min(accs) >= 0.97
    assert max(accs) - min(accs) <= 0.02


def test_erm_in_domain_high_and_ood_lower_at_strong_shift():
    cfg = micro_config(
        dataset=DatasetSpec(n_domains=4, n_classes=3, n_per_domain_class=40,
                            rotation_step=0.7, class_separation=3.0,
                            noise_std=0.3, seed=0),
        model=ModelSpec(),
        optim=OptimConfig(lr=5e-4, steps=400, batch_size=24, eval_every=50),
        holdout=0,
    )
    result = train(cfg)
    assert result.best_val_accuracy >= 0.99
    assert result.test_accuracy < result.best_val_accuracy


def test_in_domain_separability_example():
    cfg = micro_config(
        dataset=DatasetSpec(n_domains=4, n_classes=3, n_per_domain_class=40,
                            rotation_step=0.35, class_separation=3.0,
                            noise_std=0.3, seed=0),
        model=ModelSpec(),
        optim=OptimConfig(lr=5e-4, steps=400, batch_size=24, eval_every=50),
    )
    result = train(cfg)
    assert result.best_val_accuracy >= 0.99


def test_collect_embeddings_bijection_and_exclusion():
    cfg = micro_config()
    ds = cfg.dataset.build()
    anchor = build_run_anchor(cfg, ds)
    records = collect_embeddings(anchor, ds)
    assert len(records) == len(ds)
    assert [r.sample_id for r in records] == list(range(len(ds)))
    trimmed = collect_embeddings(anchor, ds, include_test_domain=False, test_domain=0)
    assert len(trimmed) == len(ds) - len(ds.domain_indices(0))
    assert all(r.domain_id != 0 for r in trimmed)


def test_run_dir_artifacts(tmp_path):
    cfg = micro_config()
    result = train(cfg, run_dir=tmp_path / "run")
    assert (tmp_path / "run" / "losses.csv").exists()
    assert (tmp_path / "run" / "result.csv").exists()
    model = load_checkpoint(tmp_path / "run" / "checkpoint.txt")
    ds = cfg.dataset.build()
    test_idx = ds.domain_indices(cfg.holdout)
    assert model.accuracy(ds.X[test_idx], ds.labels[test_idx]) == result.test_accuracy
    lines = (tmp_path / "run" / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,erm,contrast,gen,total"
    assert len(lines) == 1 + 60


def test_anchor_checksum_constant_across_harness_run():
    cfg = micro_config(loss=LossConfig(pma_enabled=True, gt_enabled=True))
    ds = cfg.dataset.build()
    anchor = build_run_anchor(cfg, ds)
    checksum = anchor.checksum()
    leave_one_out(cfg, anchor=anchor)
    assert anchor.checksum() == checksum


def test_grid_rows_and_worker_equivalence(tmp_path):
    from dccl.harness import DEFAULT_ROWS

    rows = tuple(r for r in DEFAULT_ROWS if r.name in ("erm", "pma", "full"))
    cfg = micro_config()
    seq = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=1,
                        out_dir=tmp_path / "seq")
    par = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=2,
                        out_dir=tmp_path / "par")
    par_in_memory = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=2)
    assert seq.table_csv() == par.table_csv() == par_in_memory.table_csv()
    assert (tmp_path / "seq" / "summary.csv").read_text() == \
        (tmp_path / "par" / "summary.csv").read_text()
    for name in ("erm", "pma", "full"):
        for seed in (0, 1):
            assert (tmp_path / "seq" / name / f"seed{seed}" / "holdout0" / "result.csv").exists()


def test_grid_table_shape():
    from dccl.harness import DEFAULT_ROWS

    names = [r.name for r in DEFAULT_ROWS]
    assert names == ["erm", "self_contrast", "cdc", "pma", "gt", "pma_gt",
                     "cdc_pma", "cdc_gt", "full_no_aggressive", "full"]
