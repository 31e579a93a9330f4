import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from dccl import harness
from dccl.connectivity import connectivity_report
from dccl.formats import load_checkpoint
from dccl.harness import (DEFAULT_ROWS, AblationRow, AnchorConfig, AugmentConfig,
                          DatasetSpec, ExperimentConfig, OptimConfig, TrainingDiverged,
                          ablation_grid, build_run_anchor, collect_embeddings, train,
                          train_cell)
from dccl.losses import LossConfig
from dccl.nets import Model, ModelSpec

from conftest import model_checksum


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


def loo_grid(cfg):
    """The one-row grid that `dccl loo` runs, on cfg's seed."""
    row = AblationRow.of_loss("loo", "loo", cfg.loss)
    return ablation_grid(cfg, rows=(row,), seeds=(cfg.seed,))


def test_loss_row_leaves_its_config_unchanged():
    for base in DEFAULT_ROWS:
        cfg = base.apply(micro_config(loss=LossConfig(anchor_negatives=True, temperature=0.2)))
        assert AblationRow.of_loss("loo", "loo", cfg.loss).apply(cfg) == cfg, base.name


def test_leave_one_out_protocol():
    grid = loo_grid(micro_config())
    runs = list(grid.runs.values())
    assert list(grid.runs) == [("loo", 0, m) for m in range(3)]
    assert [r.holdout for r in runs] == [0, 1, 2]
    assert grid.seed_mean("loo", 0) == pytest.approx(np.mean([r.test_accuracy for r in runs]))
    for run in runs:
        assert run.holdout not in run.domain_batch_counts


def test_no_shift_transfers_cleanly():
    cfg = micro_config(
        dataset=DatasetSpec(n_domains=3, n_classes=2, n_per_domain_class=30,
                            rotation_step=0.0, class_separation=3.0,
                            noise_std=0.3, seed=1),
        optim=OptimConfig(lr=1e-3, steps=200, batch_size=8, eval_every=40),
    )
    accs = [r.test_accuracy for r in loo_grid(cfg).runs.values()]
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


def test_collect_embeddings_bijection():
    cfg = micro_config()
    ds = cfg.dataset.build()
    anchor = build_run_anchor(cfg, ds)
    records = collect_embeddings(anchor, ds)
    assert len(records) == len(ds)
    assert [r.sample_id for r in records] == list(range(len(ds)))


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


def test_result_csv_is_written_last(tmp_path, monkeypatch):
    def crash(model, path):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "save_checkpoint", crash)
    with pytest.raises(OSError):
        train(micro_config(optim=OptimConfig(lr=1e-3, steps=20, batch_size=8, eval_every=10)),
              run_dir=tmp_path / "run")
    assert (tmp_path / "run" / "losses.csv").exists()
    assert not (tmp_path / "run" / "result.csv").exists()


def test_anchor_checksum_constant_across_harness_run():
    cfg = micro_config(loss=LossConfig(pma_enabled=True, gt_enabled=True))
    ds = cfg.dataset.build()
    anchor = build_run_anchor(cfg, ds)
    checksum = model_checksum(anchor)
    for m in range(3):
        train(replace(cfg, holdout=m), anchor=anchor)
    # a cell steps its runs' parameters in place; none of them is the anchor's
    train_cell([replace(cfg, holdout=m) for m in range(3)], anchor=anchor)
    assert model_checksum(anchor) == checksum


def test_grid_rows_and_worker_equivalence(tmp_path):
    rows = tuple(r for r in DEFAULT_ROWS if r.name in ("erm", "pma", "full"))
    cfg = micro_config()
    seq = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=1,
                        out_dir=tmp_path / "seq")
    par = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=2,
                        out_dir=tmp_path / "par")
    par_in_memory = ablation_grid(cfg, rows=rows, seeds=(0, 1), workers=2)
    assert seq.table_csv() == par.table_csv() == par_in_memory.table_csv()
    files = sorted(p.relative_to(tmp_path / "seq")
                   for p in (tmp_path / "seq").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "par")
                           for p in (tmp_path / "par").rglob("*") if p.is_file())
    # 2 anchors and 3 files per run of 3 rows x 2 seeds x 3 holdouts
    assert len(files) == 2 + 3 * 18
    for rel in files:
        assert (tmp_path / "seq" / rel).read_bytes() == (tmp_path / "par" / rel).read_bytes(), rel
    for name in ("erm", "pma", "full"):
        for seed in (0, 1):
            assert [seq.runs[name, seed, m].holdout for m in range(3)] == [0, 1, 2]
            assert (tmp_path / "seq" / name / f"seed{seed}" / "holdout0" / "result.csv").exists()


def test_grid_needs_two_domains_before_any_work(tmp_path, monkeypatch):
    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    cfg = micro_config(dataset=DatasetSpec(n_domains=1, n_classes=2, n_per_domain_class=12))
    with pytest.raises(ValueError, match="leave-one-domain-out needs at least 2 domains"):
        ablation_grid(cfg, out_dir=tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("rows, seeds", [((), (0,)), (DEFAULT_ROWS, ())], ids=["rows", "seeds"])
def test_grid_needs_a_row_and_a_seed_before_any_work(tmp_path, monkeypatch, rows, seeds):
    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    with pytest.raises(ValueError, match="an ablation grid needs at least one row and one seed"):
        ablation_grid(micro_config(), rows=rows, seeds=seeds, out_dir=tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the process pool and log, in order, its size
    ("pool", max_workers), each job it is handed ("cell", its rows, seed,
    anchored), which it runs at once in this process, and each anchor
    build ("anchor", seed)."""
    log = []
    names = {row.apply(micro_config()).loss: row.name for row in DEFAULT_ROWS}

    class RecordingPool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            log.append(("pool", max_workers))

        def submit(self, fn, cfgs, anchor, run_dirs):
            rows = tuple(dict.fromkeys(names[cfg.loss] for cfg in cfgs))
            log.append(("cell", rows, cfgs[0].seed, anchor is not None))
            future = concurrent.futures.Future()
            future.set_result(fn(cfgs, anchor, run_dirs))
            return future

    def recorded_anchor(cfg, dataset):
        log.append(("anchor", cfg.seed))
        return build(cfg, dataset)

    build = harness.build_run_anchor
    monkeypatch.setattr(harness, "build_run_anchor", recorded_anchor)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return log


def short_grid_config():
    return micro_config(optim=OptimConfig(lr=1e-3, steps=2, batch_size=8, eval_every=2),
                        anchor=AnchorConfig(steps=2, batch_size=12))


@pytest.mark.parametrize("workers, rows, seeds", [
    (64, ("erm",), (0,)), (2, ("erm",), (0,)), (3, ("erm", "pma"), (0, 1)),
    (64, ("erm", "pma"), (0, 1)), (64, ("self_contrast", "cdc"), (0, 1)),
])
def test_grid_pool_has_at_most_one_process_per_cell(recording_pool, workers, rows, seeds):
    ablation_grid(short_grid_config(), rows=tuple(r for r in DEFAULT_ROWS if r.name in rows),
                  seeds=seeds, workers=workers)
    cells = [e for e in recording_pool if e[0] == "cell"]
    assert [e for e in recording_pool if e[0] == "pool"] == [("pool", min(workers, len(cells)))]
    assert sorted((name, seed) for _, names, seed, _ in cells for name in names) == sorted(
        (name, seed) for name in rows for seed in seeds)


def test_grid_pool_takes_anchor_free_cells_first_and_costliest_first(recording_pool, tmp_path):
    """A cell is one seed's rows of one loss structure, at most 8 runs:
    two rows of 3 holdouts each."""
    grid = ablation_grid(short_grid_config(), seeds=(0, 1), workers=2, out_dir=tmp_path)
    anchored = [("full_no_aggressive", "full"), ("pma_gt", "cdc_gt"), ("pma", "cdc_pma"),
                ("gt",)]
    assert recording_pool == [("pool", 2)] + [
        ("cell", rows, seed, False)
        for rows in (("self_contrast", "cdc"), ("erm",)) for seed in (0, 1)
    ] + [("anchor", 0)] + [("cell", rows, 0, True) for rows in anchored] + [
        ("anchor", 1)] + [("cell", rows, 1, True) for rows in anchored]
    assert list(grid.runs) == [(row.name, seed, m) for row in DEFAULT_ROWS
                               for seed in (0, 1) for m in range(3)]


def test_one_worker_builds_every_anchor_before_the_first_cell(recording_pool, monkeypatch):
    def counted_job(*args):
        recording_pool.append(("job",))
        return job(*args)

    job = harness._grid_job
    monkeypatch.setattr(harness, "_grid_job", counted_job)
    ablation_grid(short_grid_config(), seeds=(0, 1), workers=1)
    assert recording_pool == [("anchor", 0), ("anchor", 1)] + [("job",)] * 12


def _fresh_initial_connectivity(cfg):
    """What `train` scored before the memo: a model built with the run's own
    spec, generator included when GT is on."""
    dataset = cfg.dataset.build()
    init_s = int(np.random.SeedSequence(cfg.seed).generate_state(7)[0])
    model = Model(dataset.dim, dataset.n_classes,
                  replace(cfg.model, with_gen=cfg.loss.gt_enabled),
                  np.random.default_rng(init_s))
    return harness._mean_connectivity(model, dataset)


@pytest.mark.parametrize("base", [
    micro_config(),
    micro_config(model=ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12,
                                 batchnorm=False)),
    micro_config(model=ModelSpec(encoder_hidden=(12,), head_hidden=0), seed=3),
    micro_config(dataset=DatasetSpec(kind="example31", n_per_class=20), seed=1),
], ids=["default", "no_batchnorm", "no_head", "example31"])
def test_initial_connectivity_memo_matches_a_fresh_model(base):
    for row in DEFAULT_ROWS:
        cfg = row.apply(base)
        memo = harness._initial_connectivity(cfg.dataset, replace(cfg.model, with_gen=False),
                                             cfg.seed)
        assert memo == _fresh_initial_connectivity(cfg), row.name


def test_grid_scores_initial_connectivity_once_per_seed(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return connectivity_report(*args, **kwargs)

    monkeypatch.setattr(harness, "connectivity_report", counted)
    harness._initial_connectivity.cache_clear()
    rows = tuple(r for r in DEFAULT_ROWS if r.name in ("erm", "cdc", "gt"))
    grid = ablation_grid(micro_config(), rows=rows, seeds=(0,), workers=1)
    # one selected-checkpoint report per run, plus the seed's initial report
    assert len(calls) == len(rows) * 3 + 1
    inits = {run.connectivity_init for run in grid.runs.values()}
    assert inits == {_fresh_initial_connectivity(micro_config())}


def test_grid_table_shape():
    names = [r.name for r in DEFAULT_ROWS]
    assert names == ["erm", "self_contrast", "cdc", "pma", "gt", "pma_gt",
                     "cdc_pma", "cdc_gt", "full_no_aggressive", "full"]
