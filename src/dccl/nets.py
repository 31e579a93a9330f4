"""The one network: MLP encoder, projection head, classifier, and the
variational generative transformer, as one `Model`.

One architecture serves everywhere: encoder -> projection head ->
unit-norm embedding z, with a linear classifier reading z.  A `Model`
keeps its weights in one parameter table and its batch-norm running
statistics in one statistics table, keyed by their checkpoint names;
the forward pass, the optimizer and checkpoints all read those tables.
The anchor is a `Model` of kind "anchor" that `harness.build_anchor`
trains on pooled all-domain data and freezes; its embeddings stand in for
a large pre-trained model's representation space.  This module holds no
optimizer or objective.  Training steps R runs' parameters in place as
the rows of one flat array, which a `Model.lockstep` cell and each run's
own model view for the whole run, so that one forward pass, loss and
reverse sweep serve a lockstep grid cell.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .options import ConfigError, check_ranges, option
from .synthdata import make_batches

SOFTPLUS_INV_ONE = math.log(math.e - 1.0)  # softplus(x) == 1
BN_MOMENTUM = 0.1  # the share of each training batch in the running statistics
BN_EPS = 1e-5


def generator(dim):
    """Initial arrays of the generative transformer, the `gen.*` entries of
    a `Model` built `with_gen`.

    The latent map runs from the tuned embedding toward the anchor
    embedding.  Its mean encoder is the identity on z, so the latent
    dimension equals the embedding dimension.  The per-dimension standard
    deviation is softplus of `gen.std_bias`, which starts where the
    posterior is the unit-Gaussian prior.  The affine decoder
    `gen.dec.{W,b}` starts at the identity.  `losses.gen_loss` runs the
    whole chain (reparameterize, decode, KL, reconstruction) as one tape op.
    """
    return {"gen.std_bias": np.full(dim, SOFTPLUS_INV_ONE),
            "gen.dec.W": np.eye(dim), "gen.dec.b": np.zeros(dim)}


@dataclass(frozen=True)
class ModelSpec:
    encoder_hidden: tuple = option((32, 32), "encoder layer widths", within="[1, inf)")
    embed_dim: int = option(16, "embedding dimension", within="[0, inf)")
    # a head width of 0 drops the head: embeddings are the normalized
    # encoder output directly
    head_hidden: int = option(32, "projection-head hidden width", within="[0, inf)")
    batchnorm: bool = option(True, "batch standardization in the head")
    with_gen: bool = False

    def validate(self):
        """Raise unless `Model` takes this spec; the message names the config key."""
        check_ranges(self, name="model.{}".format)
        if not self.encoder_hidden:
            raise ConfigError("model.encoder_hidden must list at least one width")
        if self.head_hidden > 0 and self.embed_dim < 1:
            raise ConfigError("model.embed_dim must be at least 1 while the head is on, "
                              f"got {self.embed_dim}")


@dataclass(frozen=True)
class AnchorConfig:
    steps: int = option(1500, "anchor pretraining steps", within="[1, inf)")
    lr: float = option(1e-3, "anchor pretraining step size", within="(0, inf)")
    batch_size: int = option(32, "anchor pretraining batch size", within="[1, inf)")


class Model:
    """Encoder -> projection head -> unit-norm embedding z, a linear
    classifier reading z, and with `spec.with_gen` the generator.

    The parameters are one name -> Tensor table and the head's batch-norm
    running statistics one name -> array table.  Both are keyed and
    ordered as in a checkpoint: `enc.{i}.{W,b}`, `head.l1.{W,b}`,
    `head.bn.{gamma,beta}`, `head.l2.{W,b}`, `cls.{W,b}`, then the
    `gen.*` entries of `generator`; `head.bn.{running_mean,running_var}`.
    `kind` is "model" for a trained run and "anchor" for a frozen anchor;
    `provenance` is free-form text, key -> value, that checkpoints keep.
    A cell made by `lockstep` holds every entry with a leading run axis."""

    def __init__(self, input_dim, n_classes, spec, rng):
        self.kind = "model"
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.spec = spec
        self.provenance = {}
        params, stats = {}, {}

        def affine(name, in_dim, out_dim, scale=None):
            scale = math.sqrt(2.0 / in_dim) if scale is None else scale
            params[f"{name}.W"] = scale * rng.standard_normal((in_dim, out_dim))
            params[f"{name}.b"] = np.zeros(out_dim)

        widths = (input_dim, *spec.encoder_hidden)
        for i in range(len(spec.encoder_hidden)):
            affine(f"enc.{i}", widths[i], widths[i + 1])
        self.embed_dim = widths[-1]
        if spec.head_hidden > 0:
            hidden, self.embed_dim = spec.head_hidden, spec.embed_dim
            affine("head.l1", widths[-1], hidden)
            if spec.batchnorm:
                params["head.bn.gamma"], params["head.bn.beta"] = np.ones(hidden), np.zeros(hidden)
                stats["head.bn.running_mean"] = np.zeros(hidden)
                stats["head.bn.running_var"] = np.ones(hidden)
            affine("head.l2", hidden, self.embed_dim, scale=math.sqrt(1.0 / hidden))
            # a rectifier-dead row must not land exactly at the origin, where
            # normalization is undefined
            params["head.l2.b"] = 0.01 * rng.standard_normal(self.embed_dim)
        affine("cls", self.embed_dim, n_classes, scale=math.sqrt(1.0 / self.embed_dim))
        if spec.with_gen:
            params.update(generator(self.embed_dim))
        self._params = {name: Tensor(arr) for name, arr in params.items()}
        self._layers = self._layers_of(self._params)
        self._stats = stats
        ends = np.cumsum([0] + [arr.size for arr in params.values()]).tolist()
        self._spans = tuple((slice(a, b), arr.shape)
                            for a, b, arr in zip(ends, ends[1:], params.values()))

    def _layers_of(self, p):
        """The embedding's layers over parameter table `p`, as
        `ad.embed_views` takes them: (W, b, (gamma, beta) or None, relu
        after) each.  They hold the table's Tensors, whose data `point`
        replaces, so they are built once per table."""
        spec = self.spec
        last = len(spec.encoder_hidden) - 1
        layers = [(p[f"enc.{i}.W"], p[f"enc.{i}.b"], None, i < last) for i in range(last + 1)]
        if spec.head_hidden > 0:
            bn = (p["head.bn.gamma"], p["head.bn.beta"]) if spec.batchnorm else None
            layers += [(p["head.l1.W"], p["head.l1.b"], bn, True),
                       (p["head.l2.W"], p["head.l2.b"], None, False)]
        return layers

    def embed(self, x, training=False):
        """Unit-norm embeddings of a batch, as a Tensor.

        In training mode `x` is one (n, d) array, or a list of equal-shape
        arrays, the views of one step; a list of Tensors comes back, one
        per view.  A cell takes each view as one (R, n, d) array, a batch
        per run.  All views are embedded as one tape op, `ad.embed_views`:
        batch norm uses each view's batch statistics and moves the running
        ones in place (momentum `BN_MOMENTUM`) view by view, in view order.
        Evaluation mode takes one array of rows and is a plain numpy walk
        over the same layers, with batch norm from the running statistics
        and rows normalized by `ad.normalize_rows`.  It records nothing,
        even under an active tape that watches the parameters, so no
        gradient flows through it.  The package embeds in that mode for the
        anchor's embeddings, validation and test accuracy, and
        connectivity."""
        if training:
            views = x if isinstance(x, list) else [x]
            for v in views:
                self._check_width(np.shape(v))
            zs, batch_stats = ad.embed_views(np.array(views, dtype=np.float64), self._layers,
                                             BN_EPS)
            m = BN_MOMENTUM
            for mu, var in batch_stats:
                running_mean, running_var = (self._stats["head.bn.running_mean"],
                                             self._stats["head.bn.running_var"])
                for v in range(len(views)):
                    running_mean[...] = (1.0 - m) * running_mean + m * mu[v]
                    running_var[...] = (1.0 - m) * running_var + m * var[v]
            return zs if isinstance(x, list) else zs[0]
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._check_width(h.shape)
        stats = self._stats
        for W, b, bn, relu in self._layers:
            h = h @ W.data + b.data
            if bn is not None:
                gamma, beta = bn
                inv = 1.0 / np.sqrt(stats["head.bn.running_var"] + BN_EPS)
                h = (h - stats["head.bn.running_mean"]) * inv * gamma.data + beta.data
            if relu:
                h = np.maximum(h, 0.0)
        return Tensor(ad.normalize_rows(h)[0])

    def _check_width(self, shape):
        width = shape[-1] if shape else 1  # a scalar is one row of width 1
        if width != self.input_dim:
            raise ad.ShapeError(f"batch width {width} does not match encoder input "
                                f"width {self.input_dim}")

    def logits(self, z):
        return ad.affine(z, self._params["cls.W"], self._params["cls.b"])

    def accuracy(self, x, labels):
        predicted = np.argmax(self.logits(self.embed(x)).data, axis=1)
        return float(np.mean(predicted == np.asarray(labels)))

    def point(self, flat):
        """Make each parameter a view of its span of `flat`, spans end to
        end in table order; the run axis of a cell's (R, N) array leads
        every view."""
        for tensor, (span, shape) in zip(self._params.values(), self._spans):
            tensor.data = flat[..., span].reshape(flat.shape[:-1] + shape)

    @classmethod
    def lockstep(cls, models):
        """The cell that trains R runs of one spec in lockstep, and the
        (R, N) array whose rows lay out their parameters for `point`.  The
        cell views that array and stacks the runs' running statistics, so
        that one `embed`, `logits` and loss serve all R; each run's model
        views its row of both, so it sees every step without being pointed
        again.  A cell of one run is its model, without a run axis."""
        flat = np.array([np.concatenate([t.data.reshape(-1) for t in m._params.values()])
                         for m in models])
        for model, row in zip(models, flat):
            model.point(row)
        if len(models) == 1:  # as a 1-run stack, loo-full ran 9.5 % slower (667 -> 604 items/s)
            return models[0], flat
        cell = copy.copy(models[0])
        cell._params = {name: Tensor(t.data) for name, t in cell._params.items()}
        cell._layers = cell._layers_of(cell._params)
        cell._stats = {name: np.array([m._stats[name] for m in models]) for name in cell._stats}
        cell.point(flat)
        for r, model in enumerate(models):
            model._stats = {name: arr[r] for name, arr in cell._stats.items()}
        return cell, flat

    def descend(self, adams, flat, grads):
        """Step run r's row of `flat` in place with `adams[r]` and its row
        of `grads` (node id -> array, with an entry for every parameter of
        this cell)."""
        grad = np.concatenate([grads[t.node_id].reshape(len(flat), -1)
                               for t in self._params.values()], axis=1)
        for adam, row, g in zip(adams, flat, grad):
            adam.step(row, g)

    def parameters(self):
        """The live parameter table, name -> Tensor."""
        return self._params

    def stats(self):
        """The live running-statistics table, name -> array."""
        return self._stats

    def watch(self, tape):
        for tensor in self._params.values():
            tape.watch(tensor)

    def get_state(self):
        state = {name: t.data.copy() for name, t in self._params.items()}
        state.update({name: arr.copy() for name, arr in self._stats.items()})
        return state

    def set_state(self, state):
        """Copy arrays into their slots, in place, so a lockstep run's model
        still views its rows of the cell.  An unknown name raises KeyError
        and an array whose shape differs from its slot's ShapeError."""
        for name, arr in state.items():
            if name in self._params:
                slot = self._params[name].data
            elif name in self._stats:
                slot = self._stats[name]
            else:
                raise KeyError(f"unknown state entry {name!r}")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != slot.shape:
                raise ad.ShapeError(f"array {name!r} has shape {arr.shape}, "
                                    f"its slot {slot.shape}")
            slot[...] = arr


def seed_streams(seed):
    """Seeds of a run's init, split, label, batch, augment, contrast and
    noise streams; the anchor of `seed` takes the first three as its
    init, split and batch streams."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(7)]


def anchor_split(dataset, anchor_cfg, seed):
    """The pooled validation rows, training set and batch stream of the
    anchor of `seed`, which raises on a domain too small for its share."""
    _, split_s, batch_s = seed_streams(seed)[:3]
    order = np.random.default_rng(split_s).permutation(len(dataset))
    n_val = max(1, int(round(0.2 * len(dataset))))
    train = dataset.subset(order[n_val:])
    # All pooled domains sit in every batch, so round the requested size
    # to the nearest multiple of the domain count.
    n_dom = len(np.unique(train.domains))
    per_domain = max(1, int(round(anchor_cfg.batch_size / n_dom)))
    # synthdata's, as perfbench's tracer spans each `harness.make_batches` draw as a step
    batches = make_batches(train, per_domain * n_dom, seed=batch_s, key="anchor.batch_size")
    return order[:n_val], train, batches
