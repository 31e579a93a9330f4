"""Training loop and the ablation grid, the one leave-one-domain-out runner.

Every run is a pure function of (config, seed): random streams for
initialization, splitting, batching, augmentation, positive sampling and
reparameterization noise are spawned from one seed sequence, so rerunning
a config reproduces every emitted number bit for bit.  The grid trains
the runs of each cell in lockstep, on one stacked model: runs of one loss
structure (`CELL_KEY`), which may differ in their holdout and in the
toggles that change only what each run draws (`RUN_OWN`).  Each of them
still gets the bytes of its own run.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import formats
from .connectivity import EmbeddingRecord, connectivity_report
from .formats import save_checkpoint
from .losses import ContrastBatch, LossConfig, resolve_positives, total_loss
from .nets import AnchorConfig, Model, ModelSpec, anchor_split, seed_streams
from .optim import Adam
from .options import ConfigError, check_ranges, config_fields, fmt, fmt_or_undefined, option
from .synthdata import (ADDITIVE, SCALING, AugmentationSpec, augment, check_batch_size,
                        gen_example31_both, gen_rotated_gaussians, make_batches)


class TrainingDiverged(RuntimeError):
    """A training step met a non-finite loss; `cli` maps it to exit code 2."""

    def __init__(self, step, value, what="loss"):
        super().__init__(f"non-finite {what} ({value}) at step {step}")
        self.step = step
        self.value = value
        self.what = what

    def __reduce__(self):
        # a grid worker's exception reaches the parent pickled
        return type(self), (self.step, self.value, self.what)


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
            raise ConfigError(f"seeds must be at least 0, got {self.seed}")
        check_ranges(self)
        # each block's own `validate` adds its cross-field checks
        self.loss.validate()
        self.model.validate()
        n_domains = self.dataset.domain_count
        if not 0 <= self.holdout < n_domains:
            raise ConfigError(f"holdout domain {self.holdout} outside [0, {n_domains})")
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


def dataset_hash(dataset):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.X).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    digest.update(np.ascontiguousarray(dataset.domains).tobytes())
    return digest.hexdigest()


def build_anchor(dataset, anchor_cfg, spec, seed):
    """Train a model with plain cross-entropy on pooled all-domain data and
    return it as a Model of kind "anchor", never to be trained again.

    The pooled data covers every domain with its labels, the held-out one
    of any run included: runs never train on held-out rows, but the anchor
    does.  Each step is a one-run `_step` with every loss term off.
    Provenance records the seed, a dataset hash, and the accuracy on a
    pooled validation split of a fifth of the data.
    """
    if len(dataset) == 0:
        raise ValueError("cannot build an anchor from an empty dataset")
    val_idx, train, batches = anchor_split(dataset, anchor_cfg, seed)
    model = Model(dataset.dim, dataset.n_classes, spec,
                  np.random.default_rng(seed_streams(seed)[0]))
    model, flat = Model.lockstep([model])
    adams, erm = [Adam(lr=anchor_cfg.lr)], LossConfig()
    for step in range(1, anchor_cfg.steps + 1):
        idx = next(batches)
        _step(model, flat, adams, erm, [(train.X[idx], None, train.labels[idx], None, None, None)],
              step, what="anchor loss")
    val_acc = model.accuracy(dataset.X[val_idx], dataset.labels[val_idx])
    model.kind = "anchor"
    model.provenance = {"seed": str(seed), "data_hash": dataset_hash(dataset),
                        "val_accuracy": fmt(val_acc)}
    return model


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


@functools.lru_cache(maxsize=None)
def _initial_connectivity(dataset_spec, model_spec, seed):
    """Pooled connectivity of a seed's untrained model, memoized for the
    life of the process.  It depends on neither the holdout nor the loss
    terms, and `Model` builds the generator last, so callers key it with
    `with_gen=False`.  Batch norm uses its initial statistics."""
    dataset = dataset_spec.build()
    model = Model(dataset.dim, dataset.n_classes, model_spec,
                  np.random.default_rng(seed_streams(seed)[0]))
    return _mean_connectivity(model, dataset)


def train_split(cfg, dataset):
    """A run's labelled training rows, validation rows (the held-out domain
    in neither) and batch stream, which raises on a domain too small for
    its share of a batch before any batch is drawn."""
    _, split_s, label_s, batch_s, *_ = seed_streams(cfg.seed)
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
        init_s, _, _, _, augment_s, contrast_s, noise_s = seed_streams(cfg.seed)
        self.rng_augment = np.random.default_rng(augment_s)
        self.rng_contrast = np.random.default_rng(contrast_s)
        self.rng_noise = np.random.default_rng(noise_s)
        # a domain too small for its share of a batch fails here, before the anchor
        self.train_idx, self.val_idx, self.batches = train_split(cfg, dataset)
        self.augmentation = cfg.augment.train_spec(cfg.loss.aggressive_augmentation)
        self.model = Model(dataset.dim, dataset.n_classes,
                           replace(cfg.model, with_gen=cfg.loss.gt_enabled),
                           np.random.default_rng(init_s))
        self.curve = []
        self.domain_counts = np.zeros(dataset.n_domains, dtype=np.int64)
        self.best_acc, self.best_step, self.best_state = -1.0, 0, None

    def draw(self, dataset, z_pre_all):
        """The step's (view1, view2, labels, positives, z_pre, noise),
        None where the loss leaves a part out."""
        cfg = self.cfg
        orig = self.train_idx[next(self.batches)]
        xb = dataset.X[orig]
        yb = dataset.labels[orig]
        db = dataset.domains[orig]
        if (db == cfg.holdout).any():
            raise RuntimeError(f"held-out domain {cfg.holdout} leaked into a training batch")
        self.domain_counts += np.bincount(db, minlength=dataset.n_domains)

        view1 = augment(xb, self.augmentation, self.rng_augment)
        contrast_on = cfg.loss.contrast_enabled
        view2 = augment(xb, self.augmentation, self.rng_augment) if contrast_on else None
        assignment = (resolve_positives(cfg.loss, yb, self.rng_contrast)
                      if contrast_on else None)
        z_pre = z_pre_all[orig] if z_pre_all is not None else None
        noise = (self.rng_noise.standard_normal((len(orig), self.model.embed_dim))
                 if cfg.loss.gt_enabled else None)
        return view1, view2, yb, assignment, z_pre, noise

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


def _step(cell, flat, adams, loss, drawn, step, what="loss"):
    """One training step of a cell: embed, score and differentiate the
    runs' `drawn` parts, stacked on a run axis when there are several,
    under objective `loss`, then step each run's row of `flat` with its
    `adams` entry.  Returns each run's `LossRow`; raises `TrainingDiverged`
    before any row moves if a run's total is not finite."""
    stacked = len(drawn) > 1
    view1, view2, yb, assignment, z_pre, noise = (
        map(_stack, zip(*drawn)) if stacked else drawn[0])
    with ad.Tape() as tape:
        cell.watch(tape)
        z1, *z2 = cell.embed([view1] if view2 is None else [view1, view2], training=True)
        batch = ContrastBatch(z=z1, labels=yb, z_alt=z2[0] if z2 else None,
                              z_pre=z_pre, positive_assignment=assignment)
        breakdown = total_loss(batch, cell.logits(z1), loss, gen=cell.parameters(), noise=noise)
    values = zip(*[_per_run(term, len(drawn)) for term in (
        breakdown.erm, breakdown.contrast, breakdown.gen, breakdown.total.data)])
    rows = [LossRow(step, *terms) for terms in values]
    for row in rows:
        if not math.isfinite(row.total):
            raise TrainingDiverged(step, row.total, what=what)
    cell.descend(adams, flat, tape.gradients(breakdown.total, stacked=stacked))
    return rows


def _stack(parts):
    """The runs' arrays of one part of a step on a run axis, None for a
    part the loss leaves out; np.array stacks as np.stack does, faster."""
    return None if parts[0] is None else np.array(parts)


def _per_run(term, runs):
    """A loss term's value for each of `runs` runs, as floats: the entries
    of a stack's per-run array, else its one value."""
    return term.tolist() if getattr(term, "ndim", 0) else [float(term)] * runs


# A cell's loss structure: runs that agree in these, and in every config
# field but their `RUN_OWN` ones, step through the same ops on tensors of
# the same shapes, and need the same seed's anchor and initial connectivity.
CELL_KEY = ("seed", "loss.contrast_enabled", "loss.gt_enabled", "needs_anchor")
# The fields in which the runs of a cell may differ: each changes only what
# a run draws, its batches, augmentation intensity and positives.
RUN_OWN = ("holdout", "loss.cdc_enabled", "loss.pma_enabled", "loss.self_contrast_only",
           "loss.aggressive_augmentation")


def _cell_mismatch(cfg, other):
    """The first field, dotted, that keeps `other` out of `cfg`'s cell, or None."""
    dotted = (block + f.name for block, f, _ in config_fields(cfg))
    names = [name for name in (*CELL_KEY, *dotted) if name not in RUN_OWN]
    return next((name for name in names if attrgetter(name)(cfg) != attrgetter(name)(other)),
                None)


def train_cell(cfgs, anchor=None, run_dirs=None):
    """Leave-one-domain-out runs of one loss structure, trained in lockstep:
    one `RunResult` per config, each with the bytes that its own `train`
    gives, and its run directory written when `run_dirs` names one.  The
    runs may differ in their `RUN_OWN` fields only: holdout, CDC, PMA,
    self-contrast and aggressive augmentation.

    Each step draws every run's batch, augmentation, positives and noise
    from that run's own streams and under its own toggles, then `_step`s
    a `Model.lockstep` cell, whose (R, N) array each run's model views
    its row of.  Evaluation, with checkpoint selection, the test and the
    run directory, stays per run, in config order.  A failure in any run
    raises out of the cell; `_grid_job` then replays the cell one run at
    a time.
    """
    started = time.perf_counter()
    cfg = cfgs[0]
    for run_cfg in cfgs:
        run_cfg.validate()
    for run_cfg in cfgs[1:]:
        differs = _cell_mismatch(cfg, run_cfg)
        if differs:
            raise ValueError(f"the runs of a cell must agree in {differs}")
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
    connectivity_init = _initial_connectivity(cfg.dataset, replace(cfg.model, with_gen=False),
                                              cfg.seed)

    adams = [Adam(lr=cfg.optim.lr) for _ in runs]
    cell, flat = Model.lockstep([run.model for run in runs])
    for step in range(1, cfg.optim.steps + 1):
        drawn = [run.draw(dataset, z_pre_all) for run in runs]
        for run, row in zip(runs, _step(cell, flat, adams, cfg.loss, drawn, step)):
            run.curve.append(row)

        if step % cfg.optim.eval_every == 0 or step == cfg.optim.steps:
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


def _grid_job(cfgs, anchor, run_dirs):
    """One cell of the grid, its runs trained in lockstep by `train_cell`:
    each run's `RunResult`, or the exception it raised.  Module-level, so a
    process pool can pickle it by name.

    If any run of the cell fails, the cell reruns its runs one at a time
    with `train`, in config order, so that each run ends, and leaves
    written, as a job of its own would: with its directory, or with its
    own error.
    """
    try:
        return train_cell(cfgs, anchor, run_dirs)
    except Exception as exc:
        if len(cfgs) == 1:
            return [exc]
    results = []
    for cfg, run_dir in zip(cfgs, run_dirs):
        try:
            results.append(train(cfg, anchor=anchor, run_dir=run_dir))
        except Exception as exc:
            results.append(exc)
    return results


# The most runs that one grid cell stacks.  On 2 CPUs, perfbench's
# grid-short ran no faster with cells of 16 runs than with cells of 8, and
# its peak memory rose about 5 % more.
CELL_RUNS = 8


def _cost(cfgs):
    """How many costly loss terms a cell's runs have on, summed over its
    runs: the rank of the cell's training time, which the grid starts
    costliest first."""
    return sum(c.loss.cdc_enabled + c.loss.pma_enabled + c.loss.gt_enabled
               + c.loss.self_contrast_only for c in cfgs)


def _grid_anchors(cfg, seeds, out_root):
    """Build each seed's anchor, in seed order, and yield (seed, anchor).
    Under out_root the anchor is checkpointed and yielded as read back,
    so a grid cell can be rerun from its checkpoint alone."""
    dataset = cfg.dataset.build()
    for seed in seeds:
        anchor = build_run_anchor(replace(cfg, seed=seed), dataset)
        if out_root is not None:
            anchor_dir = out_root / "anchors"
            anchor_dir.mkdir(parents=True, exist_ok=True)
            path = anchor_dir / f"anchor_seed{seed}.txt"
            save_checkpoint(anchor, path)
            anchor = formats.load_checkpoint(path)
        yield seed, anchor


def _grid_order(cells, cfg, seeds, out_root):
    """(cell index, anchor) of each cell in start order, lazily: the cells
    that need no anchor, then each seed's other cells as that seed's anchor
    is built, each group costliest first (`_cost`), ties in cell order."""
    by_cost = sorted(range(len(cells)), key=lambda i: -_cost(cells[i][1]))
    anchored = {i for i in by_cost if cells[i][1][0].needs_anchor}
    yield from ((i, None) for i in by_cost if i not in anchored)
    for seed, anchor in _grid_anchors(cfg, seeds, out_root) if anchored else ():
        yield from ((i, anchor) for i in by_cost
                    if i in anchored and cells[i][1][0].seed == seed)


def ablation_grid(cfg, rows=DEFAULT_ROWS, seeds=(0, 1, 2), workers=1, out_dir=None):
    """Leave-one-domain-out average for every ablation row and seed; the
    one runner of many holdouts (`dccl loo` is a grid of one row).

    Cells are mutually independent.  A cell is one seed's runs of rows
    that share a loss structure (`CELL_KEY`), trained in lockstep as one
    job (`_grid_job`).  Rows stay whole: a cell takes the rows of its
    structure in row order while it holds at most `CELL_RUNS` runs, and a
    row of more runs is a cell alone.  The default rows on 4 domains give
    six cells per seed: ERM; self-contrast and CDC; PMA and CDC+PMA; GT;
    PMA+GT and CDC+GT; the full method without and with aggressive
    augmentation.

    Cells start in one order for any worker count (`_grid_order`), and
    the parent builds each seed's anchor once, checkpoints it under
    out_dir when given, and hands that seed's cells the anchor as read
    back.  One worker runs each cell as it comes; more workers score each
    seed's initial connectivity first, so forked workers inherit it, and
    hand each cell to a pool of at most one process per cell.  An anchor
    that fails starts no further cell and raises once the started ones
    finish.  Otherwise every cell runs to its end, and the grid raises
    the error of the first failing run in (row, seed, holdout) order,
    after every run that did not fail wrote its directory.  Under out_dir
    the grid writes `<row>/seed<s>/holdout<m>/` run directories and
    `anchors/`, nothing else.
    """
    n_domains = cfg.dataset.domain_count
    if n_domains < 2:
        raise ValueError("leave-one-domain-out needs at least 2 domains")
    if not rows or not seeds:
        raise ValueError("an ablation grid needs at least one row and one seed")
    out_root = None if out_dir is None else Path(out_dir)
    holdouts = range(n_domains)
    groups, open_group = [], {}
    for row in rows:
        key = attrgetter(*CELL_KEY)(row.apply(cfg))
        if key not in open_group or (len(open_group[key]) + 1) * n_domains > CELL_RUNS:
            open_group[key] = []
            groups.append(open_group[key])
        open_group[key].append(row)
    cells = []  # (the cell's runs as (row name, seed, holdout), their configs, their dirs)
    for group in groups:
        for seed in seeds:
            keys = [(row.name, seed, m) for row in group for m in holdouts]
            cfgs = [row.apply(replace(cfg, seed=seed, holdout=m))
                    for row in group for m in holdouts]
            run_dirs = [None if out_root is None
                        else out_root / name / f"seed{seed}" / f"holdout{m}"
                        for name, _, m in keys]
            cells.append((keys, cfgs, run_dirs))
    order = _grid_order(cells, cfg, seeds, out_root)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        for seed in seeds:  # forked workers inherit the memo
            _initial_connectivity(cfg.dataset, replace(cfg.model, with_gen=False), seed)
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            try:
                futures = {i: pool.submit(_grid_job, cells[i][1], anchor, cells[i][2])
                           for i, anchor in order}
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            outcomes = {i: future.result() for i, future in futures.items()}
    else:
        outcomes = {i: _grid_job(cells[i][1], anchor, cells[i][2]) for i, anchor in order}
    done = {key: outcome for i, results in outcomes.items()
            for key, outcome in zip(cells[i][0], results)}
    runs = {(row.name, seed, m): done[row.name, seed, m]
            for row in rows for seed in seeds for m in holdouts}
    failure = next((r for r in runs.values() if isinstance(r, Exception)), None)
    if failure is not None:
        raise failure
    return GridResult(rows=tuple(rows), seeds=tuple(seeds), n_domains=n_domains, runs=runs)
