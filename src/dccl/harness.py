"""Training loop and the ablation grid, the one leave-one-domain-out runner.

Every run is a pure function of (config, seed): random streams for
initialization, splitting, batching, augmentation, positive sampling and
reparameterization noise are spawned from one seed sequence, so rerunning
a config reproduces every emitted number bit for bit.  The grid trains
the holdouts of each (row, seed) cell in lockstep, on one stacked model,
and each of them still gets the bytes of its own run.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import formats
from .connectivity import EmbeddingRecord, connectivity_report
from .formats import save_checkpoint
from .losses import ContrastBatch, LossConfig, resolve_positives, total_loss
from .nets import (AnchorConfig, Model, ModelSpec, TrainingDiverged, anchor_split,
                   build_anchor, dataset_hash)
from .optim import Adam
from .options import check_ranges, fmt, fmt_or_undefined, option
from .synthdata import (ADDITIVE, SCALING, AugmentationSpec, augment, check_batch_size,
                        gen_example31_both, gen_rotated_gaussians, make_batches)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = option("rotated_gaussians", "data generator family",
                       choices=("rotated_gaussians", "example31"))
    n_domains: int = option(4, "number of domains", key="domains", within="[2, inf)")
    n_classes: int = option(3, "number of classes", key="classes", within="[2, inf)")
    n_per_domain_class: int = option(40, "samples per domain per class",
                                     key="per_domain_class", within="[1, inf)")
    rotation_step: float = option(0.5, "per-domain rotation in radians")
    class_separation: float = option(3.0, "class-mean circle radius", within="(0, inf)")
    noise_std: float = option(0.3, "isotropic noise level", within="[0, inf)")
    n_per_class: int = option(128, "toy family: samples per class per domain",
                              within="[1, inf)")
    seed: int = option(0, "generator seed (fixed across training seeds)", within="[0, inf)")

    def build(self):
        if self.kind == "rotated_gaussians":
            return gen_rotated_gaussians(
                self.n_domains, self.n_classes, self.n_per_domain_class,
                self.rotation_step, self.class_separation, self.noise_std,
                seed=self.seed)
        if self.kind == "example31":
            return gen_example31_both(self.n_per_class, seed=self.seed)
        raise ValueError(f"unknown dataset kind {self.kind!r}")

    @property
    def domain_count(self):
        """Domains that `build` makes; example31 always has two."""
        return 2 if self.kind == "example31" else self.n_domains


@dataclass(frozen=True)
class AugmentConfig:
    kind: str = option(ADDITIVE, "jitter family", choices=(ADDITIVE, SCALING))
    standard_intensity: float = option(0.1, "standard jitter intensity", within="[0, inf)")
    aggressive_intensity: float = option(0.5, "aggressive jitter intensity", within="[0, inf)")

    def train_spec(self, aggressive):
        intensity = self.aggressive_intensity if aggressive else self.standard_intensity
        return AugmentationSpec(kind=self.kind, intensity=intensity)


@dataclass(frozen=True)
class OptimConfig:
    lr: float = option(5e-4, "step size", within="(0, inf)")
    steps: int = option(2000, "training steps", within="[1, inf)")
    batch_size: int = option(24, "batch size (divisible by source domains)", within="[2, inf)")
    eval_every: int = option(50, "validation cadence in steps", within="[1, inf)")


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
    split_fraction: float = option(0.8, "train share of each source domain", within="(0, 1)")
    label_ratio: float = option(1.0, "fraction of training labels kept", within="(0, 1]")

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seeds must be at least 0, got {self.seed}")
        check_ranges(self)
        # each block's own `validate` adds its cross-field checks
        self.loss.validate()
        self.model.validate()
        n_domains = self.dataset.domain_count
        if not 0 <= self.holdout < n_domains:
            raise ValueError(f"holdout domain {self.holdout} outside [0, {n_domains})")
        if n_domains > 1:
            check_batch_size(self.optim.batch_size, n_domains - 1)
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
            ("connectivity_init", fmt_or_undefined(self.connectivity_init)),
            ("connectivity_selected", fmt_or_undefined(self.connectivity_selected)),
            ("n_train", str(self.n_train)),
            ("n_val", str(self.n_val)),
        ]


def build_run_anchor(cfg, dataset):
    return build_anchor(dataset, cfg.anchor, replace(cfg.model, with_gen=False), cfg.seed)


def collect_embeddings(model, dataset):
    """Evaluation-mode embeddings of a dataset, one record per sample,
    augmentation disabled."""
    vectors = model.embed(dataset.X).data
    return [
        EmbeddingRecord(sample_id=i, class_id=int(dataset.labels[i]),
                        domain_id=int(dataset.domains[i]), vector=vectors[i])
        for i in range(len(dataset))
    ]


def _mean_connectivity(model, dataset):
    report = connectivity_report(collect_embeddings(model, dataset), mode="pooled")
    return report.mean_score


def _seed_streams(seed):
    """Seeds of a run's init, split, label, batch, augment, contrast and
    noise streams."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(7)]


@functools.lru_cache(maxsize=None)
def _initial_connectivity(dataset_spec, model_spec, seed):
    """Pooled connectivity of a seed's untrained model, memoized for the
    life of the process.  It depends on neither the holdout nor the loss
    terms, and `Model` builds the generator last, so callers key it with
    `with_gen=False`.  Batch norm uses its initial statistics."""
    dataset = dataset_spec.build()
    model = Model(dataset.dim, dataset.n_classes, model_spec,
                  np.random.default_rng(_seed_streams(seed)[0]))
    return _mean_connectivity(model, dataset)


def train_split(cfg, dataset):
    """A run's labelled training rows, validation rows (the held-out domain
    in neither) and batch stream, which raises on a domain too small for
    its share of a batch before any batch is drawn."""
    _, split_s, label_s, batch_s, *_ = _seed_streams(cfg.seed)
    rng_split = np.random.default_rng(split_s)
    train_idx, val_idx = [], []
    for m in range(dataset.n_domains):
        if m == cfg.holdout:
            continue
        idx = dataset.domain_indices(m)
        order = rng_split.permutation(len(idx))
        n_train = int(round(cfg.split_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1) if len(idx) > 1 else len(idx)
        train_idx.append(idx[order[:n_train]])
        val_idx.append(idx[order[n_train:]])
    train_idx, val_idx = np.concatenate(train_idx), np.concatenate(val_idx)
    if cfg.label_ratio < 1.0:
        n_labeled = math.ceil(cfg.label_ratio * len(train_idx))
        chosen = np.random.default_rng(label_s).permutation(len(train_idx))[:n_labeled]
        train_idx = np.sort(train_idx[chosen])
    return train_idx, val_idx, make_batches(dataset.subset(train_idx), cfg.optim.batch_size,
                                            seed=batch_s, key="optim.batch_size")


def check_splits(cfg, seeds, holdouts, anchor):
    """Raise before a command writes anything if a (seed, holdout) run's
    split or, with `anchor`, a seed's anchor split is too small for its
    batch; no batch is drawn and no anchor is trained."""
    dataset = cfg.dataset.build()
    for seed in seeds:
        for m in holdouts:
            train_split(replace(cfg, seed=seed, holdout=m), dataset)
        if anchor:
            anchor_split(dataset, cfg.anchor, seed)


def train(cfg, anchor=None, run_dir=None):
    """One leave-one-domain-out training run: `train_cell` of one run.

    Optimizes the combined objective with adaptive-moment gradient
    descent, evaluates on the source-domain validation split at a fixed
    cadence, selects the best validation checkpoint, and measures test
    accuracy exactly once on the held-out domain with augmentation off.
    """
    return train_cell([cfg], anchor, [run_dir])[0]


class _Run:
    """One run of a cell and what it does on its own: its seed streams,
    split and batch stream, each step's batch, augmentation, positives
    and noise, its model, its loss curve and its checkpoint selection."""

    def __init__(self, cfg, dataset):
        self.cfg = cfg
        init_s, _, _, _, augment_s, contrast_s, noise_s = _seed_streams(cfg.seed)
        self.rng_augment = np.random.default_rng(augment_s)
        self.rng_contrast = np.random.default_rng(contrast_s)
        self.rng_noise = np.random.default_rng(noise_s)
        # a domain too small for its share of a batch fails here, before the anchor
        self.train_idx, self.val_idx, self.batches = train_split(cfg, dataset)
        self.model = Model(dataset.dim, dataset.n_classes,
                           replace(cfg.model, with_gen=cfg.loss.gt_enabled),
                           np.random.default_rng(init_s))
        self.curve = []
        self.domain_counts = np.zeros(dataset.n_domains, dtype=np.int64)
        self.best_acc, self.best_step, self.best_state = -1.0, 0, None

    def draw(self, dataset, augmentation, z_pre_all):
        """The step's (view1, view2, labels, domains, positives, z_pre, noise),
        None where the loss leaves a part out."""
        cfg = self.cfg
        orig = self.train_idx[next(self.batches)]
        xb = dataset.X[orig]
        yb = dataset.labels[orig]
        db = dataset.domains[orig]
        if (db == cfg.holdout).any():
            raise RuntimeError(f"held-out domain {cfg.holdout} leaked into a training batch")
        self.domain_counts += np.bincount(db, minlength=dataset.n_domains)

        view1 = augment(xb, augmentation, self.rng_augment)
        contrast_on = cfg.loss.contrast_enabled
        view2 = augment(xb, augmentation, self.rng_augment) if contrast_on else None
        assignment = (resolve_positives(cfg.loss, yb, db, self.rng_contrast)
                      if contrast_on else None)
        z_pre = z_pre_all[orig] if z_pre_all is not None else None
        noise = (self.rng_noise.standard_normal((len(orig), self.model.embed_dim))
                 if cfg.loss.gt_enabled else None)
        return view1, view2, yb, db, assignment, z_pre, noise

    def evaluate(self, step, dataset):
        val_acc = self.model.accuracy(dataset.X[self.val_idx], dataset.labels[self.val_idx])
        # ties go to the later checkpoint, so regularizers keep shaping
        # the selected model even once validation accuracy saturates
        if val_acc >= self.best_acc:
            self.best_acc, self.best_step, self.best_state = val_acc, step, self.model.get_state()

    def finish(self, dataset, connectivity_init, started, run_dir):
        """Test the selected checkpoint and write the run directory."""
        cfg, model = self.cfg, self.model
        model.set_state(self.best_state)
        test_idx = dataset.domain_indices(cfg.holdout)
        test_acc = model.accuracy(dataset.X[test_idx], dataset.labels[test_idx])
        connectivity_selected = _mean_connectivity(model, dataset)

        result = RunResult(
            seed=cfg.seed, holdout=cfg.holdout, test_accuracy=test_acc,
            best_val_accuracy=self.best_acc, selected_step=self.best_step,
            loss_curve=self.curve, connectivity_init=connectivity_init,
            connectivity_selected=connectivity_selected,
            domain_batch_counts={m: int(c) for m, c in enumerate(self.domain_counts) if c},
            n_train=len(self.train_idx), n_val=len(self.val_idx),
            wall_clock=time.perf_counter() - started,
        )
        if run_dir is not None:
            model.provenance = {"seed": str(cfg.seed), "data_hash": dataset_hash(dataset)}
            _write_run_dir(Path(run_dir), model, result)
        return result


def _stack(parts):
    """The runs' arrays of one part of a step on a run axis, None for a
    part the loss leaves out; np.array stacks as np.stack does, faster."""
    return None if parts[0] is None else np.array(parts)


def _per_run(term, runs):
    """A loss term's value for each of `runs` runs, as floats: the entries
    of a stack's per-run array, else its one value."""
    return term.tolist() if getattr(term, "ndim", 0) else [float(term)] * runs


def train_cell(cfgs, anchor=None, run_dirs=None):
    """Leave-one-domain-out runs that differ in their holdout only, trained
    in lockstep: one `RunResult` per config, each with the bytes that its
    own `train` gives, and its run directory written when `run_dirs` names
    one.

    Each step draws every run's batch, augmentation, positives and noise
    from that run's own streams, then embeds, scores and differentiates
    all runs at once on a `Model.lockstep` cell, whose (R, N) array holds
    one run's parameters per row, and each run's `Adam` steps its row.
    Each run's model views its row again before evaluation, which, with
    checkpoint selection, the test and the run directory, stays per run,
    in config order.  A failure in any run raises out of the cell; `_grid_job`
    then replays the cell one run at a time.
    """
    started = time.perf_counter()
    cfg = cfgs[0]
    for run_cfg in cfgs:
        run_cfg.validate()
        if replace(run_cfg, holdout=cfg.holdout) != cfg:
            raise ValueError("the runs of a cell may differ in their holdout only")
    dataset = cfg.dataset.build()
    runs = [_Run(run_cfg, dataset) for run_cfg in cfgs]

    if cfg.needs_anchor:
        if anchor is None:
            anchor = build_run_anchor(cfg, dataset)
        if anchor.input_dim != dataset.dim:
            raise ValueError(
                f"anchor input width {anchor.input_dim} does not match data width {dataset.dim}"
            )
        z_pre_all = anchor.embed(dataset.X).data
    else:
        z_pre_all = None
    train_aug = cfg.augment.train_spec(cfg.loss.aggressive_augmentation)
    connectivity_init = _initial_connectivity(cfg.dataset, replace(cfg.model, with_gen=False),
                                              cfg.seed)

    models = [run.model for run in runs]
    adams = [Adam(lr=cfg.optim.lr) for _ in runs]
    stacked = len(runs) > 1
    cell, flat = Model.lockstep(models)
    for step in range(1, cfg.optim.steps + 1):
        drawn = [run.draw(dataset, train_aug, z_pre_all) for run in runs]
        view1, view2, yb, db, assignment, z_pre, noise = (
            map(_stack, zip(*drawn)) if stacked else drawn[0])
        with ad.Tape() as tape:
            cell.watch(tape)
            z1, *z2 = cell.embed([view1] if view2 is None else [view1, view2], training=True)
            logits = cell.logits(z1)
            batch = ContrastBatch(z=z1, labels=yb, domains=db, z_alt=z2[0] if z2 else None,
                                  z_pre=z_pre, positive_assignment=assignment)
            breakdown = total_loss(batch, logits, cfg.loss, gen=cell.parameters(), noise=noise)
        values = zip(*[_per_run(term, len(runs)) for term in (
            breakdown.erm, breakdown.contrast, breakdown.gen, breakdown.total.data)])
        rows = [LossRow(step, *terms) for terms in values]
        for row in rows:
            if not math.isfinite(row.total):
                raise TrainingDiverged(step, row.total)
        flat = cell.descend(adams, flat, tape.gradients(breakdown.total, stacked=stacked))
        for run, row in zip(runs, rows):
            run.curve.append(row)

        if step % cfg.optim.eval_every == 0 or step == cfg.optim.steps:
            cell.point_runs(models, flat)
            for run in runs:
                run.evaluate(step, dataset)

    return [run.finish(dataset, connectivity_init, started, run_dir)
            for run, run_dir in zip(runs, run_dirs or [None] * len(runs))]


def _write_run_dir(run_dir, model, result):
    run_dir.mkdir(parents=True, exist_ok=True)
    loss_lines = ["step,erm,contrast,gen,total"]
    loss_lines += [
        f"{r.step},{fmt(r.erm)},{fmt(r.contrast)},{fmt(r.gen)},{fmt(r.total)}"
        for r in result.loss_curve
    ]
    formats.write_text(run_dir / "losses.csv", "\n".join(loss_lines) + "\n")
    save_checkpoint(model, run_dir / "checkpoint.txt")
    # written last: a run directory with a result.csv holds a finished run
    result_lines = ["key,value"] + [f"{k},{v}" for k, v in result.result_rows()]
    formats.write_text(run_dir / "result.csv", "\n".join(result_lines) + "\n")


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

    @classmethod
    def of_loss(cls, name, label, loss):
        """The row of `loss`'s own toggles, which `apply` leaves as they are."""
        return cls(name, label, cdc=loss.cdc_enabled, pma=loss.pma_enabled, gt=loss.gt_enabled,
                   self_contrast=loss.self_contrast_only,
                   aggressive=loss.aggressive_augmentation)


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
    runs: dict  # (row name, seed, holdout) -> RunResult

    def accuracy(self, name, seed, holdout):
        return self.runs[name, seed, holdout].test_accuracy

    def seed_mean(self, name, seed):
        """The leave-one-domain-out average of one row and seed."""
        return float(np.mean([self.accuracy(name, seed, m) for m in range(self.n_domains)]))

    def row_mean(self, name):
        return float(np.mean([self.seed_mean(name, s) for s in self.seeds]))

    def row_domain_mean(self, name, holdout):
        return float(np.mean([self.accuracy(name, s, holdout) for s in self.seeds]))

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


def _grid_job(cfgs, anchor, run_dirs, keep_going):
    """One (row, seed) cell of the grid, its holdouts trained in lockstep
    by `train_cell`.  Module-level, so a process pool can pickle it by
    name.

    If any run of the cell fails, the cell reruns its runs one at a time
    with `train`, in holdout order, so that it raises, and leaves written,
    what one job per run would: the first failing run's error, after the
    runs before it wrote their directories.  With `keep_going` (a pool,
    where the other jobs ran on) the runs after it also run and write
    theirs first.
    """
    try:
        return train_cell(cfgs, anchor, run_dirs)
    except Exception:
        if len(cfgs) == 1:
            raise
    results, failure = [], None
    for cfg, run_dir in zip(cfgs, run_dirs):
        try:
            results.append(train(cfg, anchor=anchor, run_dir=run_dir))
        except Exception as exc:
            if not keep_going:
                raise
            failure = failure or exc
    if failure is not None:
        raise failure
    return results


def ablation_grid(cfg, rows=DEFAULT_ROWS, seeds=(0, 1, 2), workers=1, out_dir=None):
    """Leave-one-domain-out average for every ablation row and seed; the
    one runner of many holdouts (`dccl loo` is a grid of one row).

    Cells are mutually independent: a cell is one row and seed, and its
    holdouts train in lockstep as one job (`_grid_job`).  `workers` > 1
    executes the jobs in separate processes.  Anchors are built once per
    seed, checkpointed under out_dir when given, and shared by every row
    of that seed; each seed's initial connectivity is scored once, before
    the pool starts, so forked workers inherit it.  Under out_dir the grid
    writes `<row>/seed<s>/holdout<m>/` run directories and `anchors/`,
    nothing else.
    """
    n_domains = cfg.dataset.domain_count
    if n_domains < 2:
        raise ValueError("leave-one-domain-out needs at least 2 domains")
    out_root = None if out_dir is None else Path(out_dir)
    anchors = {}
    if any(row.apply(cfg).needs_anchor for row in rows):
        dataset = cfg.dataset.build()
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
    for seed in seeds:
        _initial_connectivity(cfg.dataset, replace(cfg.model, with_gen=False), seed)

    holdouts = range(n_domains)
    jobs = {}
    for row in rows:
        for seed in seeds:
            run_dirs = [None if out_root is None
                        else out_root / row.name / f"seed{seed}" / f"holdout{m}" for m in holdouts]
            cfgs = [row.apply(replace(cfg, seed=seed, holdout=m)) for m in holdouts]
            jobs[row.name, seed] = (cfgs, anchors.get(seed), run_dirs, workers > 1)

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(_grid_job, *job) for key, job in jobs.items()}
            cells = {key: future.result() for key, future in futures.items()}
    else:
        cells = {key: _grid_job(*job) for key, job in jobs.items()}
    runs = {(name, seed, m): result for (name, seed), results in cells.items()
            for m, result in zip(holdouts, results)}
    return GridResult(rows=tuple(rows), seeds=tuple(seeds), n_domains=n_domains, runs=runs)
