"""Lockstep grid cells: a stack of R runs gives each run its own bytes.

Each fused op, called on R operand sets stacked on a leading run axis,
must give slice by slice the bytes of R separate calls, for its value and
for every gradient its backward rule hands back.  A `Model.lockstep`
step must give each run the step it takes alone.  The grid trains the
runs of each cell, one seed's rows of one loss structure, in lockstep, so
its files must equal per-run `train` calls, also under an OpenBLAS kernel
other than the golden hashes'; and a failing run must fail the grid as a
job per run would.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dccl
from dccl import autodiff as ad
from dccl import harness
from dccl.autodiff import Tape, Tensor
from dccl.harness import (DEFAULT_ROWS, AblationRow, DatasetSpec, ExperimentConfig,
                          OptimConfig, TrainingDiverged, ablation_grid, train_cell)
from dccl.losses import ContrastBatch, LossConfig, total_loss
from dccl.nets import AnchorConfig, Model, ModelSpec
from dccl.optim import Adam

from test_golden import ABLATE, ABLATE_HASHES, blas_kernel, sha256

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
RUNS = st.integers(1, 3)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def tensors_in(args):
    for arg in args:
        if isinstance(arg, Tensor):
            yield arg
        elif isinstance(arg, (list, tuple)):
            yield from tensors_in(arg)


def recorded(op, *args, **kwargs):
    """The output of one fused-op call and the backward rule it recorded;
    every Tensor argument is watched, so the call always records."""
    with Tape() as tape:
        for t in tensors_in(args):
            tape.watch(t)
        out = op(*args, **kwargs)
    return out, tape._ops[-1][2]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(
        b).tobytes()


def assert_slices(stacked, separate, axis=0):
    """Slice r of `stacked` along `axis` holds the bytes of separate[r]."""
    assert len(separate) == stacked.shape[axis]
    for r, one in enumerate(separate):
        assert same_bytes(np.take(stacked, r, axis=axis), one), f"run {r}"


def assert_rule(stacked_rule, stacked_g, rules, gs, axis=0):
    """Every gradient of the stacked rule, slice by slice, against the
    per-run rules."""
    stacked_out = stacked_rule(stacked_g)
    separate_out = [rule(g) for rule, g in zip(rules, gs)]
    assert len(stacked_out) == len(separate_out[0])
    for i, grad in enumerate(stacked_out):
        assert_slices(grad, [out[i] for out in separate_out], axis=axis)


def check_loss_op(op, runs, rng, stack_args, run_args, **kwargs):
    """A loss op: (R,) values and the rule under an (R,) upstream gradient."""
    out, rule = recorded(op, *stack_args, **kwargs)
    singles = [recorded(op, *args, **kwargs) for args in run_args]
    assert_slices(out.data, [one.data for one, _ in singles])
    g = rng.standard_normal(runs)
    assert_rule(rule, g, [r for _, r in singles], [np.array(x) for x in g])


def stacked_tensors(arrays):
    return Tensor(np.array(arrays)), [Tensor(a) for a in arrays]


# -- each fused op, stacked, equals its per-run calls ----------------------------

@PROPERTY
@given(RUNS, st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_affine_stack_equals_runs(runs, n, i, o, seed):
    rng = np.random.default_rng(seed)
    x, xs = stacked_tensors([rng.standard_normal((n, i)) for _ in range(runs)])
    W, Ws = stacked_tensors([rng.standard_normal((i, o)) for _ in range(runs)])
    b, bs = stacked_tensors([rng.standard_normal(o) for _ in range(runs)])
    out, rule = recorded(ad.affine, x, W, b)
    singles = [recorded(ad.affine, *args) for args in zip(xs, Ws, bs)]
    assert_slices(out.data, [one.data for one, _ in singles])
    g = rng.standard_normal((runs, n, o))
    assert_rule(rule, g, [r for _, r in singles], list(g))


@PROPERTY
@given(RUNS, st.integers(1, 3), st.integers(2, 6), st.integers(1, 4), st.booleans(),
       st.sampled_from([1e-5, 0.3]), st.integers(0, 2**32 - 1))
def test_embed_views_stack_equals_runs(runs, n_views, n, d, bn, eps, seed):
    rng = np.random.default_rng(seed)
    widths = [(d, 5), (5, 4), (4, 3)]
    params = [{"W": [rng.standard_normal(shape) for _ in range(runs)],
               "b": [0.1 * rng.standard_normal(shape[1]) for _ in range(runs)],
               "gamma": [rng.standard_normal(shape[1]) for _ in range(runs)],
               "beta": [rng.standard_normal(shape[1]) for _ in range(runs)]}
              for shape in widths]

    def layers(pick):
        out = []
        for k, p in enumerate(params):
            norm = (pick(p["gamma"]), pick(p["beta"])) if bn and k == 1 else None
            out.append((pick(p["W"]), pick(p["b"]), norm, k < 2))
        return out

    views = rng.standard_normal((n_views, runs, n, d))
    (outs, stats), rule = recorded(ad.embed_views, views, layers(lambda a: Tensor(np.array(a))),
                                   eps)
    singles = [recorded(ad.embed_views, views[:, r], layers(lambda a, r=r: Tensor(a[r])), eps)
               for r in range(runs)]
    for v, z in enumerate(outs):
        assert_slices(z.data, [one[0][v].data for one, _ in singles])
    for k, (mu, var) in enumerate(stats):
        assert_slices(mu, [one[1][k][0] for one, _ in singles], axis=1)
        assert_slices(var, [one[1][k][1] for one, _ in singles], axis=1)
    gs = [rng.standard_normal((runs, n, 3)) for _ in range(n_views)]
    assert_rule(rule, gs, [r for _, r in singles], [[g[r] for g in gs] for r in range(runs)])


@PROPERTY
@given(RUNS, st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_softmax_cross_entropy_stack_equals_runs(runs, n, m, seed):
    rng = np.random.default_rng(seed)
    logits, singles = stacked_tensors([3.0 * rng.standard_normal((n, m)) for _ in range(runs)])
    labels = rng.integers(0, m, (runs, n))
    check_loss_op(ad.softmax_cross_entropy, runs, rng, (logits, labels),
                  list(zip(singles, labels)))


@PROPERTY
@given(RUNS, st.integers(2, 7), st.integers(1, 5), st.booleans(), st.booleans(),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_contrastive_term_stack_equals_runs(runs, n, d, anchor_rows, anchor_negatives,
                                            standard, shared, seed):
    rng = np.random.default_rng(seed)
    z_raw = [unit_rows(rng.standard_normal((n, d))) for _ in range(runs)]
    alt_raw = z_raw if shared else [unit_rows(rng.standard_normal((n, d)))
                                    for _ in range(runs)]
    for a in alt_raw:
        # signed zeros in a positive must survive a run without anchor rows
        a[rng.random(a.shape) < 0.1] = -0.0
    positive = rng.integers(0, n, (runs, n))
    if anchor_rows:
        # some runs of the stack may take no anchor row at all
        positive[(rng.random((runs, n)) < 0.5) & (rng.random((runs, 1)) < 0.7)] = -1
    z_pre = unit_rows(rng.standard_normal((runs, n, d)))
    temperature = rng.uniform(0.05, 1.0)
    z, zs = stacked_tensors(z_raw)
    z_alt, alts = (z, zs) if shared else stacked_tensors(alt_raw)
    check_loss_op(ad.contrastive_term, runs, rng, (z, z_alt, positive, z_pre, temperature),
                  list(zip(zs, alts, positive, z_pre, [temperature] * runs)),
                  anchor_negatives=anchor_negatives, standard=standard)


@PROPERTY
@given(RUNS, st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_generative_term_stack_equals_runs(runs, n, d, seed):
    rng = np.random.default_rng(seed)
    z, zs = stacked_tensors([rng.standard_normal((n, d)) for _ in range(runs)])
    bias, biases = stacked_tensors([rng.uniform(-1.0, 1.0, d) for _ in range(runs)])
    W, Ws = stacked_tensors([np.eye(d) + 0.3 * rng.standard_normal((d, d))
                             for _ in range(runs)])
    b, bs = stacked_tensors([0.1 * rng.standard_normal(d) for _ in range(runs)])
    z_pre, noise = rng.standard_normal((2, runs, n, d))
    check_loss_op(ad.generative_term, runs, rng, (z, z_pre, noise, bias, W, b),
                  list(zip(zs, z_pre, noise, biases, Ws, bs)))


def test_stacked_root_is_opt_in():
    with Tape() as tape:
        t = tape.watch(Tensor([1.0, 2.0]))
        out = t * 3.0
    assert np.array_equal(tape.gradients(out, stacked=True)[t.node_id], [3.0, 3.0])
    with Tape() as tape:
        t = tape.watch(Tensor(np.ones((2, 2))))
        out = t * 3.0
    with pytest.raises(ad.ShapeError, match="scalar-shaped or one value per run"):
        tape.gradients(out, stacked=True)


# -- Model.lockstep --------------------------------------------------------------

def model_steps(models, runs_views, labels, positives, z_pre, noise, cfg, steps):
    """`steps` Adam steps of `models` in lockstep; each step's per-run
    totals, and every model's parameters and running statistics after."""
    adams = [Adam(lr=0.05) for _ in models]
    totals = []
    cell, flat = Model.lockstep(models)
    for _ in range(steps):
        stack = (lambda parts: parts[0]) if len(models) == 1 else np.array
        with Tape() as tape:
            cell.watch(tape)
            z1, z2 = cell.embed([stack(v) for v in zip(*runs_views)], training=True)
            batch = ContrastBatch(z=z1, labels=stack(labels), z_alt=z2,
                                  z_pre=stack(z_pre), positive_assignment=stack(positives))
            breakdown = total_loss(batch, cell.logits(z1), cfg, gen=cell.parameters(),
                                   noise=stack(noise))
        totals.append(np.atleast_1d(breakdown.total.data))
        cell.descend(adams, flat, tape.gradients(breakdown.total, stacked=len(models) > 1))
    return totals, [model.get_state() for model in models]


@pytest.mark.parametrize("batchnorm", [True, False])
def test_stacked_model_steps_equal_each_run_alone(batchnorm):
    rng = np.random.default_rng(4)
    spec = ModelSpec(encoder_hidden=(8, 6), embed_dim=4, head_hidden=6, batchnorm=batchnorm,
                     with_gen=True)
    cfg = LossConfig(cdc_enabled=True, pma_enabled=True, gt_enabled=True, gen_weight=0.3)
    runs, n = 3, 7
    views = rng.standard_normal((runs, 2, n, 3))
    labels = rng.integers(0, 2, (runs, n))
    # run r takes anchor positives in the rows r, r + 3, ...; others its reversed rows
    positives = np.where(np.arange(n) % 3 == np.arange(runs)[:, None], -1,
                         np.arange(n)[::-1])
    z_pre = unit_rows(rng.standard_normal((runs, n, 4)))
    noise = rng.standard_normal((runs, n, 4))

    def fresh(r):
        return Model(3, 2, spec, np.random.default_rng(10 + r))

    totals, states = model_steps([fresh(r) for r in range(runs)], views, labels, positives,
                                 z_pre, noise, cfg, steps=3)
    for r in range(runs):
        one = slice(r, r + 1)
        alone, (state,) = model_steps([fresh(r)], views[one], labels[one], positives[one],
                                      z_pre[one], noise[one], cfg, steps=3)
        assert [same_bytes(t[r], a[0]) for t, a in zip(totals, alone)] == [True] * 3
        assert states[r].keys() == state.keys()
        for name in state:
            assert same_bytes(states[r][name], state[name]), name


# -- the grid's cells ---------------------------------------------------------------

def cell_config(**overrides):
    defaults = dict(
        dataset=DatasetSpec(n_domains=4, n_classes=2, n_per_domain_class=10,
                            rotation_step=0.4, class_separation=2.5, seed=0),
        model=ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12),
        optim=OptimConfig(lr=1e-3, steps=12, batch_size=9, eval_every=4),
        anchor=AnchorConfig(steps=10, batch_size=12))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_grid_trains_each_cell_in_lockstep(monkeypatch):
    def per_run(*args, **kwargs):
        raise AssertionError("a cell fell back to one run at a time")

    monkeypatch.setattr(harness, "train", per_run)
    rows = (AblationRow("full", "full", cdc=True, pma=True, gt=True, aggressive=True),
            AblationRow("erm", "ERM"))
    grid = ablation_grid(cell_config(), rows=rows, seeds=(0, 1))
    assert sorted(grid.runs) == [(name, s, m) for name in ("erm", "full")
                                 for s in (0, 1) for m in range(4)]


ROWS = {row.name: row for row in DEFAULT_ROWS}


def row_cell(*names, cfg=None):
    """The configs of a grid cell of the named rows, each over 4 holdouts."""
    cfg = cfg or cell_config()
    return [ROWS[name].apply(replace(cfg, holdout=m)) for name in names for m in range(4)]


def test_each_run_model_after_a_cell_equals_its_own_train(monkeypatch):
    """Each run's model, which views its row of the cell's array, ends
    with the parameters and running statistics of its own `train`; the
    cell's runs differ in holdout, in PMA and in augmentation intensity."""
    finals = []
    finish = harness._Run.finish

    def recording(run, *args):
        finals.append(run.model.get_state())
        return finish(run, *args)

    monkeypatch.setattr(harness._Run, "finish", recording)
    cfgs = row_cell("cdc_gt", "full_no_aggressive")
    train_cell(cfgs)
    in_cell = finals[:]
    finals.clear()
    for cfg in cfgs:
        harness.train(cfg)
    assert len(in_cell) == len(finals) == 8
    for m, (state, alone) in enumerate(zip(in_cell, finals)):
        assert state.keys() == alone.keys()
        for name in alone:
            assert same_bytes(state[name], alone[name]), (m, name)


def test_a_cell_steps_each_runs_adam_once_per_step(monkeypatch):
    """perfbench's speed gauge polls at every `optim.Adam.step` call, and
    its tracer opens a step span at each batch draw and closes it at the
    next `Adam.step`: both count on one draw and one `Adam.step` per run
    per step, and one `Adam.step` per anchor step.  The tracer also spans
    `harness.augment`, `harness.resolve_positives`, `harness.total_loss`
    and `nets.Model.embed`, whose per-step counts are pinned here: one
    augmentation per view of each run, one positive resolution per
    contrastive run, and one objective and one training-mode embedding
    per cell step and per anchor step.  Anchor steps draw from
    `synthdata.make_batches`, not `harness.make_batches`, so they open no
    step span."""
    from dccl import nets, optim

    adam_calls, draws = [], []
    step, make_batches = optim.Adam.step, harness.make_batches
    hooks = {"augment": 0, "resolve_positives": 0, "total_loss": 0, "embed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            hooks[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    embed = nets.Model.embed

    def counted_embed(model, x, training=False):
        hooks["embed"] += training
        return embed(model, x, training=training)

    for name in ("augment", "resolve_positives", "total_loss"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(nets.Model, "embed", counted_embed)

    def counted_step(adam, *args):
        adam_calls.append(adam)
        return step(adam, *args)

    def counted_batches(*args, **kwargs):
        stream, r = make_batches(*args, **kwargs), len(draws)
        draws.append(0)
        for batch in stream:
            draws[r] += 1
            yield batch

    monkeypatch.setattr(optim.Adam, "step", counted_step)
    monkeypatch.setattr(harness, "make_batches", counted_batches)
    cfg = cell_config()
    runs, steps, anchor_steps = 8, cfg.optim.steps, cfg.anchor.steps
    train_cell(row_cell("pma", "cdc_pma", cfg=cfg))
    per_adam = sorted(adam_calls.count(a) for a in set(adam_calls))
    assert (per_adam, draws) == ([anchor_steps] + [steps] * runs, [steps] * runs), (
        "perfbench's speed gauge and step spans need one optim.Adam.step call and one "
        "batch draw per run per step, and one optim.Adam.step per anchor step: a stacked "
        "Adam must change perfbench first")
    views = 2  # both rows contrast, so each run augments two views a step
    assert hooks == {"augment": steps * runs * views, "resolve_positives": steps * runs,
                     "total_loss": steps + anchor_steps, "embed": steps + anchor_steps}, (
        "perfbench's tracer spans these hooks per step: changing their counts must change "
        "perfbench first")


@pytest.mark.parametrize("runs, what", [(3, {}), (1, {"what": "anchor loss"})],
                         ids=["cell", "anchor"])
def test_a_diverging_step_moves_no_parameter(runs, what):
    """`harness._step` checks every run's total before `Model.descend`: a
    NaN view in one run of a 3-run cell, or in a one-run anchor-style
    step, raises `TrainingDiverged` naming its loss and leaves `flat` bit
    for bit as it was.  The batch-norm running statistics are not covered:
    the training-mode `embed` has moved them before the total is scored."""
    spec = ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12)
    rng = np.random.default_rng(0)
    x, labels = rng.standard_normal((9, 2)), np.arange(9) % 3
    bad = x.copy()
    bad[4, 1] = np.nan
    cell, flat = Model.lockstep([Model(2, 3, spec, np.random.default_rng(r))
                                 for r in range(runs)])
    before = flat.copy()
    drawn = [(bad if r == runs // 2 else x, None, labels, None, None, None) for r in range(runs)]
    with pytest.raises(TrainingDiverged) as caught:
        harness._step(cell, flat, [Adam() for _ in range(runs)], LossConfig(), drawn, 7, **what)
    assert (caught.value.step, caught.value.what) == (7, what.get("what", "loss"))
    assert np.isnan(caught.value.value)
    assert same_bytes(flat, before)


@pytest.mark.parametrize("model", [
    ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12, batchnorm=True),
    ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12, batchnorm=False),
    ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=0),
], ids=["batchnorm", "no-batchnorm", "no-head"])
def test_every_descent_has_a_gradient_for_every_parameter(monkeypatch, model):
    """`Model.descend` reads a gradient for each parameter of its cell, so
    every loss that trains a cell, and every anchor build, must reach every
    parameter."""
    from dccl import nets

    descend, descents = nets.Model.descend, []

    def checked(cell, adams, flat, grads):
        missing = [name for name, t in cell.parameters().items() if t.node_id not in grads]
        assert not missing, f"no gradient for {missing}"
        descents.append(cell)
        return descend(cell, adams, flat, grads)

    monkeypatch.setattr(nets.Model, "descend", checked)
    cfg = cell_config(model=model, optim=OptimConfig(lr=1e-3, steps=2, batch_size=9,
                                                     eval_every=2),
                      anchor=AnchorConfig(steps=2, batch_size=12))
    ablation_grid(cfg, seeds=(0,))
    # two anchor steps, then two steps of each of the six cells of the default rows
    assert len(descents) == 2 + 2 * 6


def test_a_cell_takes_runs_of_one_loss_structure():
    """A cell's runs may differ in holdout, CDC, self-contrast and
    aggressive augmentation (and PMA, in the tests above)."""
    contrast, cdc = (ROWS[name].apply(cell_config()) for name in ("self_contrast", "cdc"))
    calm = replace(cdc, loss=replace(cdc.loss, aggressive_augmentation=False))
    results = train_cell([contrast, replace(cdc, holdout=1), replace(calm, holdout=2)])
    assert [r.holdout for r in results] == [0, 1, 2]


@pytest.mark.parametrize("first, other, field", [
    ("erm", replace(cell_config(), seed=1), "seed"),
    ("erm", ROWS["cdc"].apply(cell_config()), "loss.contrast_enabled"),
    ("erm", ROWS["gt"].apply(cell_config()), "loss.gt_enabled"),
    ("cdc", ROWS["cdc_pma"].apply(cell_config()), "needs_anchor"),
    ("erm", cell_config(optim=OptimConfig(lr=2e-3, steps=12, batch_size=9, eval_every=4)),
     "optim.lr"),
], ids=["seed", "contrast", "gt", "anchor", "lr"])
def test_a_cell_rejects_runs_of_another_loss_structure(first, other, field):
    with pytest.raises(ValueError, match=f"the runs of a cell must agree in {field}$"):
        train_cell([ROWS[first].apply(cell_config()), replace(other, holdout=1)])


# (row, holdout) -> the step at which its total turns NaN
DIVERGE = {("cdc", 0): 3, ("self_contrast", 2): 5}


def inject_divergence(monkeypatch):
    """Make each run's total NaN at its DIVERGE step, wherever and however
    its steps run: a run is known by its config, and its step by the
    batches it has drawn."""
    fails = []
    draw, objective = harness._Run.draw, harness.total_loss

    def counted_draw(run, *args):
        run.drawn = getattr(run, "drawn", 0) + 1
        row = "cdc" if run.cfg.loss.cdc_enabled else "self_contrast"
        fails.append(DIVERGE.get((row, run.cfg.holdout)) == run.drawn)
        return draw(run, *args)

    def diverging(batch, *args, **kwargs):
        breakdown = objective(batch, *args, **kwargs)
        mask = [np.nan if fail else 1.0 for fail in fails]
        fails.clear()
        breakdown.total = breakdown.total * Tensor(np.reshape(mask, breakdown.total.shape))
        return breakdown

    monkeypatch.setattr(harness._Run, "draw", counted_draw)
    monkeypatch.setattr(harness, "total_loss", diverging)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_cell_fails_as_its_first_failing_run(tmp_path, monkeypatch, workers):
    """Self-contrast and CDC share one cell.  CDC's holdout 0 diverges
    first in lockstep (step 3), but self-contrast's holdout 2 comes first
    in (row, seed, holdout) order (step 5): the grid raises that one's
    divergence, for any worker count, after every other run wrote its
    directory."""
    inject_divergence(monkeypatch)
    with pytest.raises(TrainingDiverged) as caught:
        ablation_grid(cell_config(), rows=(ROWS["self_contrast"], ROWS["cdc"]), seeds=(0,),
                      workers=workers, out_dir=tmp_path)
    assert caught.value.step == DIVERGE["self_contrast", 2]
    for row, written in (("self_contrast", [0, 1, 3]), ("cdc", [1, 2, 3])):
        seed_dir = tmp_path / row / "seed0"
        assert sorted(p.name for p in seed_dir.iterdir()) == [f"holdout{m}" for m in written]
        for m in written:
            assert (seed_dir / f"holdout{m}" / "result.csv").exists()


LOCKSTEP_AGAINST_RUNS = """
from dataclasses import replace
from pathlib import Path
from dccl import harness
from dccl.cli import main
from dccl.config import experiment_config, load_config
from dccl.formats import load_checkpoint

assert main(["ablate", "--config", "ablate.cfg", "--workers", "1"]) == 0
grid = Path("runs/golden")
values = load_config("ablate.cfg")
cfg = experiment_config(values, seed=0)
anchor = load_checkpoint(grid / "anchors" / "anchor_seed0.txt")
for row in harness.DEFAULT_ROWS:
    for m in range(cfg.dataset.domain_count):
        rel = Path(row.name) / "seed0" / f"holdout{m}"
        harness.train(row.apply(replace(cfg, holdout=m)), anchor=anchor,
                      run_dir=Path("alone") / rel)
        for name in ("losses.csv", "checkpoint.txt", "result.csv"):
            if (grid / rel / name).read_bytes() != (Path("alone") / rel / name).read_bytes():
                print("differs:", rel / name)
"""


# a CPU whose default kernel is one of these also runs the older kernels
@pytest.mark.skipif(blas_kernel() not in ("SkylakeX", "Haswell"),
                    reason="needs numpy's OpenBLAS on a CPU with the Haswell instructions")
def test_lockstep_ablate_equals_runs_alone_on_a_non_fma_kernel(tmp_path):
    """The golden hashes hold for FMA kernels only, so they cannot tell
    whether lockstep cells keep each run's bits on other kernels: under
    Sandybridge, `ablate` must write what per-run `train` calls write."""
    (tmp_path / "ablate.cfg").write_text(ABLATE)
    src = str(Path(dccl.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LOCKSTEP_AGAINST_RUNS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "differs" not in proc.stdout, proc.stdout
    # the forced kernel took effect: without FMA the anchor's bits move
    anchor = tmp_path / "runs" / "golden" / "anchors" / "anchor_seed0.txt"
    assert sha256(anchor) != ABLATE_HASHES["anchors/anchor_seed0.txt"]
