"""Model zoo: MLP encoder, projection head, classifier, the frozen anchor
encoder, and the variational generative transformer.

One architecture serves everywhere: encoder -> projection head ->
unit-norm embedding z, with a linear classifier reading z.  The anchor
is the same architecture trained on pooled all-domain data and frozen;
its embeddings stand in for a large pre-trained model's representation
space.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .options import option

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
        return ad.matmul(x, self.W) + self.b

    def params(self, prefix):
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


class BatchNorm:
    """Per-feature standardization; batch statistics while training,
    running statistics (single fixed momentum) in evaluation mode."""

    def __init__(self, dim, momentum=0.1, eps=1e-5):
        self.gamma = Tensor(np.ones(dim))
        self.beta = Tensor(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x, training):
        if training:
            mu = x.mean(axis=0)
            centered = x - mu
            var = (centered * centered).mean(axis=0)
            inv = ad.power(var + self.eps, -0.5)
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mu.data
            self.running_var = (1.0 - m) * self.running_var + m * var.data
            return centered * inv * self.gamma + self.beta
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return (x - Tensor(self.running_mean)) * Tensor(inv) * self.gamma + self.beta

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
    initialized at the identity.
    """

    def __init__(self, dim, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        self.std_bias = Tensor(np.full(dim, SOFTPLUS_INV_ONE))
        self.decoder = Affine.identity(dim, rng)
        self.dim = dim

    def transform(self, z, noise):
        """Reparameterized latent, decoded reconstruction, closed-form KL.

        z_lat = z + sigma * noise; kl_per_sample is the diagonal-Gaussian
        divergence 0.5 * sum(sigma^2 + z^2 - 1 - ln sigma^2) from the
        unit-Gaussian prior.
        """
        if not isinstance(z, Tensor):
            z = Tensor(z)
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != z.shape:
            raise ad.ShapeError(f"noise shape {noise.shape} does not match z shape {z.shape}")
        sigma = ad.softplus(self.std_bias)
        z_lat = z + sigma * Tensor(noise)
        recon = self.decoder(z_lat)
        s2 = sigma * sigma
        kl = (s2 + z * z - 1.0 - ad.log(s2)).sum(axis=1) * 0.5
        return z_lat, recon, kl

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


class Model:
    """Encoder + projection head + linear classifier (+ optional generator)."""

    def __init__(self, input_dim, n_classes, spec, rng):
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


class AnchorEncoder:
    """A trained model frozen after construction; embeds without ever
    touching the gradient tape (its parameters are never watched)."""

    def __init__(self, model, seed, data_hash, val_accuracy):
        self.model = model
        self.seed = seed
        self.data_hash = data_hash
        self.val_accuracy = val_accuracy

    @property
    def embed_dim(self):
        return self.model.embed_dim

    @property
    def input_dim(self):
        return self.model.input_dim

    def embed(self, x):
        """Unit-norm embeddings as a plain array, detached by construction."""
        return self.model.embed(np.asarray(x, dtype=np.float64), training=False).data

    def checksum(self):
        return self.model.checksum()


def build_anchor(dataset, steps=1500, seed=0, spec=None, lr=1e-3,
                 batch_size=32, val_fraction=0.2):
    """Train a model with plain cross-entropy on pooled all-domain data and
    freeze it.

    The pooled data must cover every domain the experiment will ever
    touch, held-out ones included; cross-domain intra-class connectivity
    in the frozen embedding space is then present by construction.
    Provenance records the seed, a dataset hash, and the accuracy on a
    pooled validation split.
    """
    from .losses import erm_loss
    from .optim import Adam
    from .synthdata import make_batches

    if len(dataset) == 0:
        raise ValueError("cannot build an anchor from an empty dataset")
    spec = spec or ModelSpec()
    seq = np.random.SeedSequence(seed)
    init_s, split_s, batch_s = (int(s) for s in seq.generate_state(3))

    rng_split = np.random.default_rng(split_s)
    order = rng_split.permutation(len(dataset))
    n_val = max(1, int(round(val_fraction * len(dataset))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    train = dataset.subset(train_idx)

    model = Model(dataset.dim, dataset.n_classes, spec, np.random.default_rng(init_s))
    params = model.parameters()
    adam = Adam(lr=lr)
    # All pooled domains sit in every batch, so round the requested size
    # up to the nearest multiple of the domain count.
    n_dom = len(np.unique(train.domains))
    per_domain = max(1, int(round(batch_size / n_dom)))
    batches = make_batches(train, per_domain * n_dom, seed=batch_s)
    for step in range(1, steps + 1):
        idx = next(batches)
        with ad.Tape() as tape:
            model.watch(tape)
            logits = model.forward_logits(train.X[idx], training=True)
            loss = erm_loss(logits, train.labels[idx])
        if not np.isfinite(loss.item()):
            raise TrainingDiverged(step, loss.item(), what="anchor loss")
        adam.step(params, tape.gradients(loss))
    val_acc = model.accuracy(dataset.X[val_idx], dataset.labels[val_idx])
    return AnchorEncoder(model, seed=seed, data_hash=dataset_hash(dataset),
                         val_accuracy=val_acc)
