"""Training loop, leave-one-domain-out protocol, and the ablation grid.

Every run is a pure function of (config, seed): random streams for
initialization, splitting, batching, augmentation, positive sampling and
reparameterization noise are spawned from one seed sequence, so rerunning
a config reproduces every emitted number bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import formats
from .connectivity import EmbeddingRecord, connectivity_report
from .formats import fmt, save_checkpoint
from .losses import ContrastBatch, LossConfig, resolve_positives, total_loss
from .nets import (AnchorEncoder, Model, ModelSpec, TrainingDiverged, build_anchor,
                   dataset_hash)
from .optim import Adam
from .options import option
from .synthdata import (ADDITIVE, SCALING, AugmentationSpec, augment,
                        gen_example31_both, gen_rotated_gaussians, make_batches)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = option("rotated_gaussians", "data generator family",
                       choices=("rotated_gaussians", "example31"))
    n_domains: int = option(4, "number of domains", key="domains")
    n_classes: int = option(3, "number of classes", key="classes")
    n_per_domain_class: int = option(40, "samples per domain per class",
                                     key="per_domain_class")
    rotation_step: float = option(0.5, "per-domain rotation in radians")
    class_separation: float = option(3.0, "class-mean circle radius")
    noise_std: float = option(0.3, "isotropic noise level")
    n_per_class: int = option(128, "toy family: samples per class per domain")
    seed: int = option(0, "generator seed (fixed across training seeds)")

    def build(self):
        if self.kind == "rotated_gaussians":
            return gen_rotated_gaussians(
                self.n_domains, self.n_classes, self.n_per_domain_class,
                self.rotation_step, self.class_separation, self.noise_std,
                seed=self.seed)
        if self.kind == "example31":
            return gen_example31_both(self.n_per_class, seed=self.seed)
        raise ValueError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class AugmentConfig:
    kind: str = option(ADDITIVE, "jitter family", choices=(ADDITIVE, SCALING))
    standard_intensity: float = option(0.1, "standard jitter intensity")
    aggressive_intensity: float = option(0.5, "aggressive jitter intensity")

    def train_spec(self, aggressive):
        intensity = self.aggressive_intensity if aggressive else self.standard_intensity
        return AugmentationSpec(kind=self.kind, intensity=intensity)


@dataclass(frozen=True)
class OptimConfig:
    lr: float = option(5e-4, "step size")
    steps: int = option(2000, "training steps")
    batch_size: int = option(24, "batch size (divisible by source domains)")
    eval_every: int = option(50, "validation cadence in steps")


@dataclass(frozen=True)
class AnchorConfig:
    steps: int = option(1500, "anchor pretraining steps")
    lr: float = option(1e-3, "anchor pretraining step size")
    batch_size: int = option(32, "anchor pretraining batch size")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = DatasetSpec()
    loss: LossConfig = LossConfig()
    model: ModelSpec = ModelSpec()
    augment: AugmentConfig = AugmentConfig()
    optim: OptimConfig = OptimConfig()
    anchor: AnchorConfig = AnchorConfig()
    holdout: int = option(0, "held-out test domain for the train command")
    seed: int = 0
    split_fraction: float = option(0.8, "train share of each source domain")
    label_ratio: float = option(1.0, "fraction of training labels kept")

    def validate(self):
        self.loss.validate()
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must lie in (0, 1), got {self.split_fraction}")
        if not 0.0 < self.label_ratio <= 1.0:
            raise ValueError(f"label_ratio must lie in (0, 1], got {self.label_ratio}")
        if self.optim.steps < 1 or self.optim.batch_size < 2:
            raise ValueError("need at least 1 step and a batch of at least 2")
        return self

    @property
    def needs_anchor(self):
        return (self.loss.pma_enabled or self.loss.gt_enabled
                or self.loss.anchor_negatives)


@dataclass
class LossRow:
    step: int
    erm: float
    contrast: float
    gen: float
    total: float


@dataclass
class RunResult:
    seed: int
    holdout: int
    test_accuracy: float
    best_val_accuracy: float
    selected_step: int
    loss_curve: list
    connectivity_init: float
    connectivity_selected: float
    domain_batch_counts: dict
    n_train: int
    n_val: int
    wall_clock: float

    def result_rows(self):
        """Stable key/value rows for the result table (no wall clock)."""
        return [
            ("seed", str(self.seed)),
            ("holdout", str(self.holdout)),
            ("test_accuracy", fmt(self.test_accuracy)),
            ("best_val_accuracy", fmt(self.best_val_accuracy)),
            ("selected_step", str(self.selected_step)),
            ("connectivity_init", fmt(self.connectivity_init)),
            ("connectivity_selected", fmt(self.connectivity_selected)),
            ("n_train", str(self.n_train)),
            ("n_val", str(self.n_val)),
        ]


def split_sources(dataset, holdout, split_fraction, rng):
    """Per-domain shuffled split of the source domains; the held-out domain
    appears in neither side."""
    train_idx, val_idx = [], []
    for m in range(dataset.n_domains):
        if m == holdout:
            continue
        idx = dataset.domain_indices(m)
        order = rng.permutation(len(idx))
        n_train = int(round(split_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1) if len(idx) > 1 else len(idx)
        train_idx.append(idx[order[:n_train]])
        val_idx.append(idx[order[n_train:]])
    return np.concatenate(train_idx), np.concatenate(val_idx)


def build_run_anchor(cfg, dataset):
    spec = replace(cfg.model, with_gen=False)
    return build_anchor(dataset, steps=cfg.anchor.steps, seed=cfg.seed, spec=spec,
                        lr=cfg.anchor.lr, batch_size=cfg.anchor.batch_size)


def collect_embeddings(encoder, dataset, include_test_domain=True, test_domain=None):
    """Evaluation-mode embeddings of a dataset, one record per sample,
    augmentation disabled."""
    keep = np.arange(len(dataset))
    if not include_test_domain:
        if test_domain is None:
            raise ValueError("include_test_domain=False needs test_domain")
        keep = keep[dataset.domains[keep] != test_domain]
    if isinstance(encoder, AnchorEncoder):
        vectors = encoder.embed(dataset.X[keep])
    else:
        vectors = encoder.embed(dataset.X[keep], training=False).data
    return [
        EmbeddingRecord(sample_id=int(i), class_id=int(dataset.labels[i]),
                        domain_id=int(dataset.domains[i]), vector=vectors[j])
        for j, i in enumerate(keep)
    ]


def _mean_connectivity(model, dataset):
    report = connectivity_report(collect_embeddings(model, dataset), mode="pooled")
    return report.mean_score


def train(cfg, anchor=None, run_dir=None):
    """One leave-one-domain-out training run.

    Optimizes the combined objective with adaptive-moment gradient
    descent, evaluates on the source-domain validation split at a fixed
    cadence, selects the best validation checkpoint, and measures test
    accuracy exactly once on the held-out domain with augmentation off.
    """
    started = time.perf_counter()
    cfg.validate()
    dataset = cfg.dataset.build()
    if not 0 <= cfg.holdout < dataset.n_domains:
        raise ValueError(f"holdout domain {cfg.holdout} outside [0, {dataset.n_domains})")

    seq = np.random.SeedSequence(cfg.seed)
    (init_s, split_s, label_s, batch_s,
     augment_s, contrast_s, noise_s) = (int(s) for s in seq.generate_state(7))
    rng_split = np.random.default_rng(split_s)
    rng_augment = np.random.default_rng(augment_s)
    rng_contrast = np.random.default_rng(contrast_s)
    rng_noise = np.random.default_rng(noise_s)

    train_idx, val_idx = split_sources(dataset, cfg.holdout, cfg.split_fraction, rng_split)
    if cfg.label_ratio < 1.0:
        n_labeled = math.ceil(cfg.label_ratio * len(train_idx))
        rng_label = np.random.default_rng(label_s)
        chosen = rng_label.permutation(len(train_idx))[:n_labeled]
        train_idx = np.sort(train_idx[chosen])

    if cfg.needs_anchor:
        if anchor is None:
            anchor = build_run_anchor(cfg, dataset)
        if anchor.input_dim != dataset.dim:
            raise ValueError(
                f"anchor input width {anchor.input_dim} does not match data width {dataset.dim}"
            )
        z_pre_all = anchor.embed(dataset.X)
    else:
        z_pre_all = None

    model = Model(dataset.dim, dataset.n_classes,
                  replace(cfg.model, with_gen=cfg.loss.gt_enabled),
                  np.random.default_rng(init_s))
    params = model.parameters()
    adam = Adam(lr=cfg.optim.lr)
    train_ds = dataset.subset(train_idx)
    batches = make_batches(train_ds, cfg.optim.batch_size, seed=batch_s)
    train_aug = cfg.augment.train_spec(cfg.loss.aggressive_augmentation)

    connectivity_init = _mean_connectivity(model, dataset)

    curve = []
    domain_counts = Counter()
    best_acc, best_step, best_state = -1.0, 0, None
    for step in range(1, cfg.optim.steps + 1):
        pos = next(batches)
        orig = train_idx[pos]
        xb = dataset.X[orig]
        yb = dataset.labels[orig]
        db = dataset.domains[orig]
        if np.any(db == cfg.holdout):
            raise RuntimeError(f"held-out domain {cfg.holdout} leaked into a training batch")
        domain_counts.update(int(d) for d in db)

        view1 = augment(xb, train_aug, rng_augment)
        contrast_on = cfg.loss.contrast_enabled
        view2 = augment(xb, train_aug, rng_augment) if contrast_on else None
        assignment = (resolve_positives(cfg.loss, yb, db, rng_contrast)
                      if contrast_on else None)
        z_pre = z_pre_all[orig] if z_pre_all is not None else None
        noise = (rng_noise.standard_normal((len(orig), model.embed_dim))
                 if cfg.loss.gt_enabled else None)

        with ad.Tape() as tape:
            model.watch(tape)
            z1 = model.embed(view1, training=True)
            logits = model.logits(z1)
            z2 = model.embed(view2, training=True) if contrast_on else None
            batch = ContrastBatch(z=z1, labels=yb, domains=db, z_alt=z2,
                                  z_pre=z_pre, positive_assignment=assignment)
            breakdown = total_loss(batch, logits, cfg.loss, gen=model.gen, noise=noise)
        total_value = breakdown.total.item()
        if not np.isfinite(total_value):
            raise TrainingDiverged(step, total_value)
        adam.step(params, tape.gradients(breakdown.total))
        curve.append(LossRow(step, breakdown.erm, breakdown.contrast,
                             breakdown.gen, total_value))

        if step % cfg.optim.eval_every == 0 or step == cfg.optim.steps:
            val_acc = model.accuracy(dataset.X[val_idx], dataset.labels[val_idx])
            # ties go to the later checkpoint, so regularizers keep shaping
            # the selected model even once validation accuracy saturates
            if val_acc >= best_acc:
                best_acc, best_step, best_state = val_acc, step, model.get_state()

    model.set_state(best_state)
    test_idx = dataset.domain_indices(cfg.holdout)
    test_acc = model.accuracy(dataset.X[test_idx], dataset.labels[test_idx])
    connectivity_selected = _mean_connectivity(model, dataset)

    result = RunResult(
        seed=cfg.seed, holdout=cfg.holdout, test_accuracy=test_acc,
        best_val_accuracy=best_acc, selected_step=best_step, loss_curve=curve,
        connectivity_init=connectivity_init,
        connectivity_selected=connectivity_selected,
        domain_batch_counts=dict(sorted(domain_counts.items())),
        n_train=len(train_idx), n_val=len(val_idx),
        wall_clock=time.perf_counter() - started,
    )
    if run_dir is not None:
        model.provenance = {"seed": cfg.seed, "data_hash": dataset_hash(dataset)}
        _write_run_dir(Path(run_dir), model, result)
    return result


def _write_run_dir(run_dir, model, result):
    run_dir.mkdir(parents=True, exist_ok=True)
    loss_lines = ["step,erm,contrast,gen,total"]
    loss_lines += [
        f"{r.step},{fmt(r.erm)},{fmt(r.contrast)},{fmt(r.gen)},{fmt(r.total)}"
        for r in result.loss_curve
    ]
    (run_dir / "losses.csv").write_text("\n".join(loss_lines) + "\n")
    result_lines = ["key,value"] + [f"{k},{v}" for k, v in result.result_rows()]
    (run_dir / "result.csv").write_text("\n".join(result_lines) + "\n")
    save_checkpoint(model, run_dir / "checkpoint.txt")


@dataclass
class LooResult:
    runs: list

    @property
    def average(self):
        return float(np.mean([r.test_accuracy for r in self.runs]))

    def accuracy_by_holdout(self):
        return {r.holdout: r.test_accuracy for r in self.runs}


def leave_one_out(cfg, anchor=None, run_dir=None):
    """One run per held-out domain; the average accuracy is the headline."""
    dataset = cfg.dataset.build()
    if dataset.n_domains < 2:
        raise ValueError("leave-one-domain-out needs at least 2 domains")
    if cfg.needs_anchor and anchor is None:
        anchor = build_run_anchor(cfg, dataset)
    runs = []
    for m in range(dataset.n_domains):
        sub_dir = None if run_dir is None else Path(run_dir) / f"holdout{m}"
        runs.append(train(replace(cfg, holdout=m), anchor=anchor, run_dir=sub_dir))
    return LooResult(runs=runs)


@dataclass(frozen=True)
class AblationRow:
    name: str
    label: str
    cdc: bool = False
    pma: bool = False
    gt: bool = False
    self_contrast: bool = False
    aggressive: bool = False

    def apply(self, cfg):
        loss = replace(cfg.loss, cdc_enabled=self.cdc, pma_enabled=self.pma,
                       gt_enabled=self.gt, self_contrast_only=self.self_contrast,
                       aggressive_augmentation=self.aggressive)
        return replace(cfg, loss=loss)


DEFAULT_ROWS = (
    AblationRow("erm", "ERM"),
    AblationRow("self_contrast", "with Self-Contrast", self_contrast=True, aggressive=True),
    AblationRow("cdc", "CDC", cdc=True, aggressive=True),
    AblationRow("pma", "PMA", pma=True, aggressive=True),
    AblationRow("gt", "GT", gt=True, aggressive=True),
    AblationRow("pma_gt", "PMA+GT", pma=True, gt=True, aggressive=True),
    AblationRow("cdc_pma", "CDC+PMA", cdc=True, pma=True, aggressive=True),
    AblationRow("cdc_gt", "CDC+GT", cdc=True, gt=True, aggressive=True),
    AblationRow("full_no_aggressive", "w/o Aggressive Aug", cdc=True, pma=True, gt=True),
    AblationRow("full", "full", cdc=True, pma=True, gt=True, aggressive=True),
)


@dataclass
class GridResult:
    rows: tuple
    seeds: tuple
    n_domains: int
    results: dict  # row name -> {seed -> LooResult}

    def row_mean(self, name):
        return float(np.mean([self.results[name][s].average for s in self.seeds]))

    def row_domain_mean(self, name, holdout):
        return float(np.mean([
            self.results[name][s].accuracy_by_holdout()[holdout] for s in self.seeds
        ]))

    def table_csv(self):
        cols = ",".join(f"holdout{m}" for m in range(self.n_domains))
        lines = [f"row,cdc,pma,gt,aggressive,{cols},avg"]
        for row in self.rows:
            marks = [_mark_csv(v) for v in (row.cdc, row.pma, row.gt, row.aggressive)]
            per_dom = [fmt(self.row_domain_mean(row.name, m)) for m in range(self.n_domains)]
            lines.append(",".join([row.name, *marks, *per_dom, fmt(self.row_mean(row.name))]))
        return "\n".join(lines) + "\n"

    def table_text(self):
        header = (["row", "CDC", "PMA", "GT", "AGG"]
                  + [f"d{m}" for m in range(self.n_domains)] + ["avg"])
        body = []
        for row in self.rows:
            marks = [_mark(v) for v in (row.cdc, row.pma, row.gt, row.aggressive)]
            per_dom = [f"{self.row_domain_mean(row.name, m):.4f}" for m in range(self.n_domains)]
            body.append([row.label, *marks, *per_dom, f"{self.row_mean(row.name):.4f}"])
        widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(header)]
        render = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return "\n".join([render(header)] + [render(b) for b in body]) + "\n"


def _mark(v):
    return "x" if v else "-"


def _mark_csv(v):
    return "1" if v else "0"


def _grid_job(cfg, anchor, run_dir):
    """One (row, seed) cell of the grid: the leave-one-domain-out runs of
    one config.  Module-level, so a process pool can pickle it by name."""
    return leave_one_out(cfg, anchor=anchor, run_dir=run_dir)


def ablation_grid(cfg, rows=DEFAULT_ROWS, seeds=(0, 1, 2), workers=1, out_dir=None):
    """Leave-one-domain-out average for every ablation row and seed.

    Runs are mutually independent; `workers` > 1 executes them in
    separate processes.  Anchors are built once per seed, checkpointed
    under out_dir when given, and shared by every row of that seed.
    """
    dataset = cfg.dataset.build()
    out_root = None if out_dir is None else Path(out_dir)
    anchors = {}
    if any(row.pma or row.gt for row in rows):
        for seed in seeds:
            anchor = build_run_anchor(replace(cfg, seed=seed), dataset)
            if out_root is not None:
                anchor_dir = out_root / "anchors"
                anchor_dir.mkdir(parents=True, exist_ok=True)
                path = anchor_dir / f"anchor_seed{seed}.txt"
                save_checkpoint(anchor, path)
                # every row runs on the anchor as saved, so a grid cell can
                # be rerun from its checkpoint alone
                anchor = formats.load_checkpoint(path)
            anchors[seed] = anchor

    jobs = {}
    for row in rows:
        for seed in seeds:
            run_dir = None if out_root is None else out_root / row.name / f"seed{seed}"
            jobs[row.name, seed] = (row.apply(replace(cfg, seed=seed)), anchors.get(seed),
                                    run_dir)

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(_grid_job, *job) for key, job in jobs.items()}
            done = {key: future.result() for key, future in futures.items()}
    else:
        done = {key: _grid_job(*job) for key, job in jobs.items()}
    results = {row.name: {seed: done[row.name, seed] for seed in seeds} for row in rows}
    grid = GridResult(rows=tuple(rows), seeds=tuple(seeds),
                      n_domains=dataset.n_domains, results=results)
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "summary.csv").write_text(grid.table_csv())
        (out_root / "summary.txt").write_text(grid.table_text())
    return grid
