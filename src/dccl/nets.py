"""Model zoo: MLP encoder, projection head, classifier, and the
variational generative transformer.

One architecture serves everywhere: encoder -> projection head ->
unit-norm embedding z, with a linear classifier reading z.  The anchor
is a `Model` of kind "anchor", trained on pooled all-domain data and
never trained again; its embeddings stand in for a large pre-trained
model's representation space.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .options import fmt, option, render

SOFTPLUS_INV_ONE = math.log(math.e - 1.0)  # softplus(x) == 1


class TrainingDiverged(RuntimeError):
    """A training loop met a non-finite loss; `cli` maps it to exit code 2."""

    def __init__(self, step, value, what="loss"):
        super().__init__(f"non-finite {what} ({value}) at step {step}")
        self.step = step
        self.value = value
        self.what = what

    def __reduce__(self):
        # a grid worker's exception reaches the parent pickled
        return type(self), (self.step, self.value, self.what)


class Affine:
    def __init__(self, in_dim, out_dim, rng, scale=None):
        if scale is None:
            scale = math.sqrt(2.0 / in_dim)
        self.W = Tensor(scale * rng.standard_normal((in_dim, out_dim)))
        self.b = Tensor(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    @classmethod
    def identity(cls, dim, rng):
        layer = cls(dim, dim, rng)
        layer.W = Tensor(np.eye(dim))
        layer.b = Tensor(np.zeros(dim))
        return layer

    def __call__(self, x):
        return ad.affine(x, self.W, self.b)

    def params(self, prefix):
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


class BatchNorm:
    """Per-feature standardization; batch statistics while training,
    running statistics (single fixed momentum) in evaluation mode.

    Evaluation mode is plain numpy and records nothing on a tape: the
    package only embeds in that mode outside `ad.Tape` (anchor, validation
    and test accuracy, connectivity), so no gradient flows through it.
    """

    def __init__(self, dim, momentum=0.1, eps=1e-5):
        self.gamma = Tensor(np.ones(dim))
        self.beta = Tensor(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x, training):
        if training:
            out, mu, var = ad.batchnorm_train(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mu
            self.running_var = (1.0 - m) * self.running_var + m * var
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return Tensor((x.data - self.running_mean) * inv * self.gamma.data + self.beta.data)

    def params(self, prefix):
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def stats(self, prefix):
        return {f"{prefix}.running_mean": self.running_mean,
                f"{prefix}.running_var": self.running_var}


class Encoder:
    """Plain MLP with a rectifier between layers (none after the last)."""

    def __init__(self, input_dim, hidden, rng):
        hidden = tuple(int(h) for h in hidden)
        if not hidden:
            raise ValueError("encoder needs at least one layer width")
        widths = (input_dim,) + hidden
        self.layers = [Affine(widths[i], widths[i + 1], rng) for i in range(len(hidden))]
        self.input_dim = input_dim
        self.out_dim = hidden[-1]

    def __call__(self, x):
        out = x
        for i, layer in enumerate(self.layers):
            out = layer(out)
            if i < len(self.layers) - 1:
                out = ad.relu(out)
        return out

    def params(self, prefix="enc"):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.{i}"))
        return out


class ProjectionHead:
    """Two affine layers with a rectifier between them, optional batch
    standardization after the first, output L2-normalized row-wise."""

    def __init__(self, in_dim, hidden_dim, out_dim, rng, batchnorm=True):
        self.l1 = Affine(in_dim, hidden_dim, rng)
        self.bn = BatchNorm(hidden_dim) if batchnorm else None
        self.l2 = Affine(hidden_dim, out_dim, rng, scale=math.sqrt(1.0 / hidden_dim))
        # a rectifier-dead row must not land exactly at the origin, where
        # normalization is undefined
        self.l2.b = Tensor(0.01 * rng.standard_normal(out_dim))
        self.out_dim = out_dim

    def __call__(self, x, training):
        h = self.l1(x)
        if self.bn is not None:
            h = self.bn(h, training)
        h = ad.relu(h)
        return ad.l2_normalize(self.l2(h))

    def params(self, prefix="head"):
        out = {}
        out.update(self.l1.params(f"{prefix}.l1"))
        if self.bn is not None:
            out.update(self.bn.params(f"{prefix}.bn"))
        out.update(self.l2.params(f"{prefix}.l2"))
        return out

    def stats(self, prefix="head"):
        return self.bn.stats(f"{prefix}.bn") if self.bn is not None else {}


class GenerativeTransformer:
    """Latent map from the tuned embedding toward the anchor embedding.

    The mean encoder is the identity on z (forcing the latent dimension
    to equal the embedding dimension); the per-dimension standard
    deviation is softplus of a bias-only parameter, initialized so the
    posterior starts at the unit-Gaussian prior; the decoder is affine,
    initialized at the identity.  `losses.gen_loss` runs the whole chain
    (reparameterize, decode, KL, reconstruction) as one tape op.
    """

    def __init__(self, dim, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        self.std_bias = Tensor(np.full(dim, SOFTPLUS_INV_ONE))
        self.decoder = Affine.identity(dim, rng)
        self.dim = dim

    def params(self, prefix="gen"):
        out = {f"{prefix}.std_bias": self.std_bias}
        out.update(self.decoder.params(f"{prefix}.dec"))
        return out


@dataclass(frozen=True)
class ModelSpec:
    encoder_hidden: tuple = option((32, 32), "encoder layer widths")
    embed_dim: int = option(16, "embedding dimension")
    # a head width of 0 drops the head: embeddings are the normalized
    # encoder output directly
    head_hidden: int = option(32, "projection-head hidden width")
    batchnorm: bool = option(True, "batch standardization in the head")
    with_gen: bool = False

    def validate(self):
        """Raise unless `Model` takes this spec; the message names the config key."""
        if min(self.encoder_hidden) < 1:
            raise ValueError("model.encoder_hidden must be widths of at least 1, "
                             f"got {render(self.encoder_hidden)}")
        if self.head_hidden < 0:
            raise ValueError("model.head_hidden must be at least 0 (0 drops the head), "
                             f"got {self.head_hidden}")
        if self.head_hidden > 0 and self.embed_dim < 1:
            raise ValueError("model.embed_dim must be at least 1 while the head is on, "
                             f"got {self.embed_dim}")


@dataclass(frozen=True)
class AnchorConfig:
    steps: int = option(1500, "anchor pretraining steps")
    lr: float = option(1e-3, "anchor pretraining step size")
    batch_size: int = option(32, "anchor pretraining batch size")


class Model:
    """Encoder + projection head + linear classifier (+ optional generator).

    `kind` is "model" for a trained run and "anchor" for a frozen anchor;
    `provenance` is free-form text, key -> value, that checkpoints keep."""

    def __init__(self, input_dim, n_classes, spec, rng):
        self.kind = "model"
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.spec = spec
        self.encoder = Encoder(input_dim, spec.encoder_hidden, rng)
        if spec.head_hidden > 0:
            self.head = ProjectionHead(self.encoder.out_dim, spec.head_hidden,
                                       spec.embed_dim, rng, batchnorm=spec.batchnorm)
            embed_dim = spec.embed_dim
        else:
            self.head = None
            embed_dim = self.encoder.out_dim
        self._embed_dim = embed_dim
        self.classifier = Affine(embed_dim, n_classes, rng,
                                 scale=math.sqrt(1.0 / embed_dim))
        self.gen = GenerativeTransformer(embed_dim, rng=rng) if spec.with_gen else None
        self.provenance = {}

    @property
    def embed_dim(self):
        return self._embed_dim

    def embed(self, x, training=False):
        if not isinstance(x, Tensor):
            x = Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.shape[1] != self.input_dim:
            raise ad.ShapeError(
                f"batch width {x.shape[1]} does not match encoder input width {self.input_dim}"
            )
        features = self.encoder(x)
        if self.head is None:
            return ad.l2_normalize(features)
        return self.head(features, training)

    def logits(self, z):
        return self.classifier(z)

    def forward_logits(self, x, training=False):
        return self.logits(self.embed(x, training))

    def predict(self, x):
        logits = self.forward_logits(x, training=False)
        return np.argmax(logits.data, axis=1)

    def accuracy(self, x, labels):
        return float(np.mean(self.predict(x) == np.asarray(labels)))

    def parameters(self):
        out = {}
        out.update(self.encoder.params())
        if self.head is not None:
            out.update(self.head.params())
        out.update(self.classifier.params("cls"))
        if self.gen is not None:
            out.update(self.gen.params())
        return out

    def stats(self):
        return self.head.stats() if self.head is not None else {}

    def watch(self, tape):
        for tensor in self.parameters().values():
            tape.watch(tensor)

    def get_state(self):
        state = {name: t.data.copy() for name, t in self.parameters().items()}
        state.update({name: arr.copy() for name, arr in self.stats().items()})
        return state

    def set_state(self, state):
        params = self.parameters()
        stats = self.stats()
        for name, arr in state.items():
            if name in params:
                params[name].data = np.array(arr, dtype=np.float64)
            elif name in stats:
                stats[name][...] = arr
            else:
                raise KeyError(f"unknown state entry {name!r}")

    def checksum(self):
        digest = hashlib.sha256()
        for name, t in sorted(self.parameters().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(t.data).tobytes())
        for name, arr in sorted(self.stats().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


def dataset_hash(dataset):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.X).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    digest.update(np.ascontiguousarray(dataset.domains).tobytes())
    return digest.hexdigest()


def build_anchor(dataset, anchor_cfg, spec, seed):
    """Train a model with plain cross-entropy on pooled all-domain data and
    return it as a Model of kind "anchor", never to be trained again.

    The pooled data must cover every domain the experiment will ever
    touch, held-out ones included; cross-domain intra-class connectivity
    in the frozen embedding space is then present by construction.
    Provenance records the seed, a dataset hash, and the accuracy on a
    pooled validation split of a fifth of the data.
    """
    from .losses import erm_loss
    from .optim import Adam
    from .synthdata import make_batches

    if len(dataset) == 0:
        raise ValueError("cannot build an anchor from an empty dataset")
    seq = np.random.SeedSequence(seed)
    init_s, split_s, batch_s = (int(s) for s in seq.generate_state(3))

    rng_split = np.random.default_rng(split_s)
    order = rng_split.permutation(len(dataset))
    n_val = max(1, int(round(0.2 * len(dataset))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    train = dataset.subset(train_idx)

    model = Model(dataset.dim, dataset.n_classes, spec, np.random.default_rng(init_s))
    params = model.parameters()
    adam = Adam(lr=anchor_cfg.lr)
    # All pooled domains sit in every batch, so round the requested size
    # up to the nearest multiple of the domain count.
    n_dom = len(np.unique(train.domains))
    per_domain = max(1, int(round(anchor_cfg.batch_size / n_dom)))
    batches = make_batches(train, per_domain * n_dom, seed=batch_s)
    for step in range(1, anchor_cfg.steps + 1):
        idx = next(batches)
        with ad.Tape() as tape:
            model.watch(tape)
            logits = model.forward_logits(train.X[idx], training=True)
            loss = erm_loss(logits, train.labels[idx])
        if not np.isfinite(loss.item()):
            raise TrainingDiverged(step, loss.item(), what="anchor loss")
        adam.step(params, tape.gradients(loss))
    val_acc = model.accuracy(dataset.X[val_idx], dataset.labels[val_idx])
    model.kind = "anchor"
    model.provenance = {"seed": str(seed), "data_hash": dataset_hash(dataset),
                        "val_accuracy": fmt(val_acc)}
    return model
