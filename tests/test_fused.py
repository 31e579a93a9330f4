"""The fused tape ops against their composite chains, and the array code of
CDC sampling, batching and Adam against the loops it replaced.

Every comparison is bitwise: values, every parent gradient, running
statistics and generator states must be `np.array_equal`, not close.
The composites live in `conftest.py`; the loop references live here.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl import autodiff as ad
from dccl.autodiff import Tape, Tensor
from dccl.losses import (ContrastBatch, LossConfig, mix_anchor_positives,
                         sample_positives_cdc, total_loss)
from dccl.nets import Model, ModelSpec
from dccl.optim import Adam
from dccl.synthdata import gen_rotated_gaussians, make_batches

import elementary as el
from conftest import COMPOSITES, max_rel_err, numerical_gradient

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def run(op, leaves, call, weights, later_use=True):
    """Value and leaf gradients of sum(op(...) * weights) under a fresh tape.

    `leaves` maps names to arrays; each gradient comes back as a list, one
    entry per watched leaf, None where absent.  With `later_use` every
    watched leaf is used once more after the op, so the reverse sweep
    reaches the op with a gradient already accumulated on each leaf: the
    op's contributions must then add on in the chain's exact order.
    """
    tensors = {name: Tensor(arr) for name, arr in leaves.items()}
    with Tape() as tape:
        for name, t in tensors.items():
            if name in call.watched:
                tape.watch(t)
        out, extra = call(op, tensors)
        root = el.reduce_sum(out * Tensor(weights)) if out.shape else out
        if later_use:
            for name in call.watched:
                t = tensors[name]
                root = root + el.reduce_sum(t * Tensor(np.cos(np.arange(t.data.size) + 0.5)
                                                       .reshape(t.shape)))
    grads = tape.gradients(root)
    return out.data, extra, [grads.get(tensors[name].node_id) for name in call.watched]


def assert_same(fused, composite):
    value, extra, grads = fused
    ref_value, ref_extra, ref_grads = composite
    assert np.array_equal(value, ref_value)
    for a, b in zip(extra, ref_extra):
        assert np.array_equal(a, b)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if g is not None:
            assert np.array_equal(g, ref)


def fused_op(name):
    """The fused op `name`: from `dccl.autodiff`, or from `elementary` for
    `batchnorm_train`, which only the oracles call now."""
    return getattr(ad, name, None) or getattr(el, name)


def compare(name, leaves, call, weights=1.0, later_use=True):
    assert_same(run(fused_op(name), leaves, call, weights, later_use),
                run(COMPOSITES[name], leaves, call, weights, later_use))


class Call:
    """A fused-op invocation over named leaves, some of them watched."""

    def __init__(self, fn, watched):
        self.fn = fn
        self.watched = tuple(watched)

    def __call__(self, op, tensors):
        return self.fn(op, tensors)


def affine_call(watched):
    return Call(lambda op, t: (op(t["x"], t["W"], t["b"]), ()), watched)


def batchnorm_call(watched, eps):
    def fn(op, t):
        out, mu, var = op(t["x"], t["gamma"], t["beta"], eps)
        return out, (mu, var)
    return Call(fn, watched)


def embed_call(views, bn, eps, view_weights):
    """`embed_views` of a constant (views, n, d) stack over a relu layer, a
    relu layer with or without batch norm, and a last affine layer.  The
    result is the sum of z_v * w_v over the views with weights; a view
    without any gets no gradient, so the op sees zeros for it.  Its extras
    are each view's z and the batch statistics."""
    watched = ("W0", "b0", "W1", "b1") + (("gamma", "beta") if bn else ()) + ("W2", "b2")

    def fn(op, t):
        layers = [(t["W0"], t["b0"], None, True),
                  (t["W1"], t["b1"], (t["gamma"], t["beta"]) if bn else None, True),
                  (t["W2"], t["b2"], None, False)]
        zs, stats = op(views, layers, eps)
        terms = [z * Tensor(w) for z, w in zip(zs, view_weights) if w is not None]
        out = terms[0]
        for term in terms[1:]:
            out = out + term
        return out, [z.data for z in zs] + [a for pair in stats for a in pair]
    return Call(fn, watched)


def embed_leaves(rng, d):
    return {"W0": rng.standard_normal((d, 5)), "b0": 0.1 * rng.standard_normal(5),
            "W1": rng.standard_normal((5, 4)), "b1": 0.1 * rng.standard_normal(4),
            "gamma": rng.standard_normal(4), "beta": rng.standard_normal(4),
            "W2": rng.standard_normal((4, 3)), "b2": rng.standard_normal(3)}


def xent_call(labels):
    return Call(lambda op, t: (op(t["logits"], labels), ()), ("logits",))


def contrastive_call(positive, z_pre, temperature, anchor_negatives, standard, shared):
    def fn(op, t):
        z_alt = t["z"] if shared else t["z_alt"]
        return op(t["z"], z_alt, positive, z_pre, temperature,
                  anchor_negatives=anchor_negatives, standard=standard), ()
    return Call(fn, ("z",) if shared else ("z", "z_alt"))


def generative_call(z_pre, noise, watched):
    return Call(lambda op, t: (op(t["z"], z_pre, noise, t["std_bias"], t["W"], t["b"]), ()),
                watched)


# -- fused ops equal their composites ----------------------------------------------

@PROPERTY
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_affine_matches_composite(n, i, o, watch_x, seed):
    rng = np.random.default_rng(seed)
    leaves = {"x": rng.standard_normal((n, i)), "W": rng.standard_normal((i, o)),
              "b": rng.standard_normal(o)}
    watched = ("x", "W", "b") if watch_x else ("W", "b")
    compare("affine", leaves, affine_call(watched), rng.standard_normal((n, o)))


@PROPERTY
@given(st.integers(2, 7), st.integers(1, 5), st.sampled_from([1e-5, 0.3]),
       st.integers(0, 2**32 - 1))
def test_batchnorm_train_matches_composite(n, m, eps, seed):
    rng = np.random.default_rng(seed)
    leaves = {"x": rng.standard_normal((n, m)) * rng.uniform(0.1, 3.0),
              "gamma": rng.standard_normal(m), "beta": rng.standard_normal(m)}
    compare("batchnorm_train", leaves, batchnorm_call(("x", "gamma", "beta"), eps),
            rng.standard_normal((n, m)))


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 6), st.integers(1, 4), st.booleans(),
       st.sampled_from([1e-5, 0.3]), st.integers(0, 2**32 - 1))
def test_embed_views_matches_composite(n_views, n, d, bn, eps, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((n, 3)) if rng.random() < 0.7 else None
               for _ in range(n_views)]
    weights[rng.integers(n_views)] = rng.standard_normal((n, 3))
    call = embed_call(rng.standard_normal((n_views, n, d)), bn, eps, weights)
    # the op hands each parameter one sum over the views, which equals the
    # chain's association only while the op holds the parameter's every
    # use, as in `Model`: so no later use here
    compare("embed_views", embed_leaves(rng, d), call, later_use=False)


@PROPERTY
@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_softmax_cross_entropy_matches_composite(n, m, seed):
    rng = np.random.default_rng(seed)
    leaves = {"logits": rng.standard_normal((n, m)) * 3.0}
    compare("softmax_cross_entropy", leaves, xent_call(rng.integers(0, m, n)))


@PROPERTY
@given(st.integers(2, 7), st.integers(1, 5), st.booleans(), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_contrastive_term_matches_composite(n, d, anchor_rows, anchor_negatives, standard,
                                            shared, seed):
    rng = np.random.default_rng(seed)
    leaves = {"z": unit_rows(rng.standard_normal((n, d))),
              "z_alt": unit_rows(rng.standard_normal((n, d)))}
    positive = rng.integers(0, n, n)
    if anchor_rows:
        positive[rng.random(n) < 0.5] = -1
    z_pre = unit_rows(rng.standard_normal((n, d)))
    call = contrastive_call(positive, z_pre, rng.uniform(0.05, 1.0), anchor_negatives,
                            standard, shared)
    compare("contrastive_term", leaves, call)


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_generative_term_matches_composite(n, d, watch_z, seed):
    rng = np.random.default_rng(seed)
    leaves = {"z": rng.standard_normal((n, d)), "std_bias": rng.uniform(-1.0, 1.0, d),
              "W": np.eye(d) + 0.3 * rng.standard_normal((d, d)),
              "b": 0.1 * rng.standard_normal(d)}
    watched = ("z", "std_bias", "W", "b") if watch_z else ("std_bias", "W", "b")
    call = generative_call(rng.standard_normal((n, d)), rng.standard_normal((n, d)), watched)
    compare("generative_term", leaves, call)


def model_step(spec_seed, batchnorm, head, flags, n, n_views):
    """Loss, every parameter gradient and the running statistics of one
    full-objective step through `Model` and `total_loss`.  The step embeds
    `n_views` views; the second (or, with one view, the first) is the
    contrastive alternative, and a third enters the loss through its
    alignment with the anchor embeddings."""
    cdc, pma, gt, anchor_negatives, standard = flags
    rng = np.random.default_rng(spec_seed)
    spec = ModelSpec(encoder_hidden=(16, 4), embed_dim=4, head_hidden=head,
                     batchnorm=batchnorm, with_gen=gt)
    model = Model(3, 3, spec, np.random.default_rng(spec_seed + 1))
    # a rectifier-dead row would have no direction to normalize
    model.parameters()["enc.1.b"].data = 0.1 * rng.standard_normal(4)
    cfg = LossConfig(cdc_enabled=cdc, pma_enabled=pma, gt_enabled=gt,
                     self_contrast_only=not (cdc or pma),
                     anchor_negatives=anchor_negatives, temperature=0.4, gen_weight=0.3,
                     denominator_mode="standard-infonce" if standard else "negatives-only")
    labels = rng.integers(0, 3, n)
    domains = rng.integers(0, 2, n)
    assignment = (sample_positives_cdc(labels, domains, rng) if cdc
                  else np.arange(n, dtype=np.int64))
    if pma:
        assignment = mix_anchor_positives(assignment, 0.5, rng)
    views = [rng.standard_normal((n, 3)) for _ in range(n_views)]
    z_pre = unit_rows(rng.standard_normal((n, 4)))
    noise = rng.standard_normal((n, 4))
    with Tape() as tape:
        model.watch(tape)
        zs = model.embed(views, training=True)
        batch = ContrastBatch(z=zs[0], labels=labels, domains=domains, z_alt=zs[n_views > 1],
                              z_pre=z_pre, positive_assignment=assignment)
        breakdown = total_loss(batch, model.logits(zs[0]), cfg, gen=model.parameters(),
                               noise=noise)
        root = breakdown.total
        for z in zs[2:]:
            root = root + el.reduce_sum(z * Tensor(z_pre))
    grads = tape.gradients(root)
    params = model.parameters()
    return ([root.data, breakdown.erm, breakdown.contrast, breakdown.gen]
            + [grads[params[name].node_id] for name in sorted(params)]
            + [model.stats()[name] for name in sorted(model.stats())])


@PROPERTY
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([0, 6]),
       st.tuples(*[st.booleans()] * 5), st.integers(2, 9), st.integers(1, 3))
def test_model_step_matches_composite_chain(seed, batchnorm, head, flags, n, n_views):
    fused = model_step(seed, batchnorm, head, flags, n, n_views)
    with mock.patch.multiple(ad, **{name: fn for name, fn in COMPOSITES.items()
                                    if hasattr(ad, name)}):
        composite = model_step(seed, batchnorm, head, flags, n, n_views)
    assert len(fused) == len(composite)
    for a, b in zip(fused, composite):
        assert np.array_equal(a, b)


# -- fused ops match finite differences -------------------------------------------

def fd_cases():
    rng = np.random.default_rng(11)
    z = unit_rows(rng.standard_normal((5, 3)))
    z_alt = unit_rows(rng.standard_normal((5, 3)))
    z_pre = unit_rows(rng.standard_normal((5, 3)))
    positive = np.array([1, -1, 3, 2, -1])
    return {
        "affine": (affine_call(("x", "W", "b")),
                   {"x": rng.standard_normal((4, 3)), "W": rng.standard_normal((3, 2)),
                    "b": rng.standard_normal(2)}, rng.standard_normal((4, 2))),
        "batchnorm_train": (batchnorm_call(("x", "gamma", "beta"), 1e-5),
                            {"x": rng.standard_normal((6, 3)),
                             "gamma": rng.standard_normal(3), "beta": rng.standard_normal(3)},
                            rng.standard_normal((6, 3))),
        "embed_views": (embed_call(rng.standard_normal((3, 4, 2)), True, 1e-5,
                                   [rng.standard_normal((4, 3)), None,
                                    rng.standard_normal((4, 3))]),
                        embed_leaves(rng, 2), 1.0),
        "softmax_cross_entropy": (xent_call(np.array([2, 0, 1, 1])),
                                  {"logits": rng.standard_normal((4, 3))}, 1.0),
        "contrastive_term": (contrastive_call(positive, z_pre, 0.3, True, True, False),
                             {"z": z, "z_alt": z_alt}, 1.0),
        "generative_term": (generative_call(rng.standard_normal((4, 3)),
                                            rng.standard_normal((4, 3)),
                                            ("z", "std_bias", "W", "b")),
                            {"z": rng.standard_normal((4, 3)),
                             "std_bias": rng.uniform(-0.5, 0.5, 3),
                             "W": np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                             "b": rng.standard_normal(3)}, 1.0),
    }


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_fused_gradients_match_fd(name):
    call, leaves, weights = fd_cases()[name]
    op = fused_op(name)
    _, _, grads = run(op, leaves, call, weights, later_use=False)

    def value():
        tensors = {key: Tensor(arr) for key, arr in leaves.items()}
        out, _ = call(op, tensors)
        return float(np.sum(out.data * weights))

    for key, grad in zip(call.watched, grads):
        numeric = numerical_gradient(value, leaves[key])
        assert max_rel_err(grad, numeric) <= 1e-4, key


# -- fused ops keep the guards of their chains ------------------------------------

def test_fused_ops_keep_shape_and_domain_guards():
    with pytest.raises(ad.ShapeError):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ad.ShapeError):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    # a broadcastable but inexact bias
    with pytest.raises(ad.ShapeError, match="^bias shape"):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))
    # constant rows and eps 0: a zero variance under the -1/2 power
    with pytest.raises(ad.DegenerateInputError):
        el.batchnorm_train(Tensor(np.ones((4, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), 0.0)
    eye = (Tensor(np.eye(2)), Tensor(np.zeros(2)))
    with pytest.raises(ad.DegenerateInputError):
        ad.embed_views(np.ones((2, 4, 2)), [(*eye, (Tensor(np.ones(2)), Tensor(np.zeros(2))),
                                             False)], 0.0)
    with pytest.raises(ad.ShapeError):
        ad.embed_views(np.ones((2, 4, 3)), [(*eye, None, False)], 1e-5)
    with pytest.raises(ad.ShapeError):
        ad.embed_views(np.ones((2, 4, 2)), [(eye[0], Tensor(np.zeros(3)), None, False)], 1e-5)
    views = np.ones((2, 4, 2))
    views[1, 2] = 0.0
    with pytest.raises(ad.DegenerateInputError, match="row 2 of view 1 "):
        ad.embed_views(views, [(*eye, None, False)], 1e-5)
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(ad.ShapeError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])
    z = unit_rows(np.ones((3, 2)))
    with pytest.raises(ad.ShapeError):
        ad.contrastive_term(Tensor(z), Tensor(z[:2]), [0, 1, 2], None, 0.1)
    with pytest.raises(ad.DegenerateInputError):
        ad.contrastive_term(Tensor(z[:1]), Tensor(z[:1]), [0], None, 0.1)
    with pytest.raises(IndexError):
        ad.contrastive_term(Tensor(z), Tensor(z), [0, 1, 3], None, 0.1)
    with pytest.raises(ad.ShapeError):
        ad.contrastive_term(Tensor(z), Tensor(z), [0, -1, 2], z[:2], 0.1)
    args = (np.zeros((2, 2)), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    with pytest.raises(ad.ShapeError):
        ad.generative_term(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), np.zeros((2, 3)),
                           Tensor(np.zeros(2)), *args[1:])
    # broadcastable but inexact operands, each named
    gen = {"z_pre": np.zeros((2, 2)), "noise": np.zeros((2, 2)), "std_bias": np.zeros(2),
           "W": np.eye(2), "b": np.zeros(2)}
    for name, bad in (("std_bias", np.zeros(1)), ("b", np.zeros((1, 2))),
                      ("z_pre", np.zeros((1, 2)))):
        ops = {**gen, name: bad}
        with pytest.raises(ad.ShapeError, match=f"^generative_term: {name} shape"):
            ad.generative_term(Tensor(np.zeros((2, 2))), ops["z_pre"], ops["noise"],
                               *(Tensor(ops[k]) for k in ("std_bias", "W", "b")))
    # softplus(-40)^2 is far below the log floor
    with pytest.raises(ad.DegenerateInputError):
        ad.generative_term(Tensor(np.zeros((2, 2))), *args[:1], np.zeros((2, 2)),
                           Tensor(np.full(2, -40.0)), *args[1:])


# -- array code equals the loops it replaced --------------------------------------

def loop_positives_cdc(labels, domains, rng):
    n = len(labels)
    assignment = np.empty(n, dtype=np.int64)
    for i in range(n):
        eligible = np.nonzero(labels == labels[i])[0]
        eligible = eligible[eligible != i]
        if len(eligible) == 0:
            assignment[i] = i
        else:
            assignment[i] = eligible[rng.integers(len(eligible))]
    return assignment


@PROPERTY
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
def test_cdc_sampling_matches_loop_and_generator_state(labels, seed):
    labels = np.array(labels)
    domains = np.arange(len(labels)) % 3
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(sample_positives_cdc(labels, domains, fast),
                          loop_positives_cdc(labels, domains, slow))
    assert fast.bit_generator.state == slow.bit_generator.state


def loop_batches(dataset, batch_size, seed):
    present = np.unique(dataset.domains)
    per_domain = batch_size // len(present)
    rng = np.random.default_rng(seed)
    pools = {int(m): dataset.domain_indices(m) for m in present}
    queues = {m: [] for m in pools}
    while True:
        batch = []
        for m in sorted(pools):
            if len(queues[m]) < per_domain:
                queues[m] = list(pools[m][rng.permutation(len(pools[m]))])
            batch.extend(queues[m][:per_domain])
            queues[m] = queues[m][per_domain:]
        yield np.asarray(batch, dtype=np.int64)


@PROPERTY
@given(st.integers(2, 4), st.integers(1, 7), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_make_batches_matches_loop_across_refills(n_domains, per_domain, size, seed):
    rng = np.random.default_rng(seed)
    full = gen_rotated_gaussians(n_domains, 2, size, 0.3, 3.0, 0.3, seed=seed % 1000)
    # uneven domains, so that refills drop leftovers at different steps; a
    # domain smaller than its batch share is rejected by name
    dataset = full.subset(np.sort(rng.permutation(len(full))[:max(1, len(full) - size)]))
    present = np.unique(dataset.domains)
    batch_size = per_domain * len(present)
    short = [m for m in present if len(dataset.domain_indices(m)) < per_domain]
    if short:
        with pytest.raises(ValueError, match=f"^domain {short[0]} has "):
            make_batches(dataset, batch_size, seed=seed)
        return
    fast = make_batches(dataset, batch_size, seed=seed)
    slow = loop_batches(dataset, batch_size, seed)
    for _ in range(40):
        a, b = next(fast), next(slow)
        assert a.dtype == b.dtype and np.array_equal(a, b)


class LoopAdam:
    """Per-parameter Adam with moments keyed by name."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.t, self.m, self.v = 0, {}, {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for name, p in params.items():
            g = grads.get(p.node_id)
            if g is None:
                continue
            g = np.asarray(g, dtype=np.float64).reshape(p.data.shape)
            m = self.m.get(name, np.zeros_like(p.data))
            v = self.v.get(name, np.zeros_like(p.data))
            self.m[name] = m = b1 * m + (1.0 - b1) * g
            self.v[name] = v = b2 * v + (1.0 - b2) * (g * g)
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                                           min_size=1, max_size=12))
def test_adam_matches_loop_with_missing_gradients(seed, has_grad):
    rng = np.random.default_rng(seed)
    # four parameters: enc.0.W (3, 3), enc.0.b (3,), cls.W (3, 2), cls.b (2,)
    model = Model(3, 2, ModelSpec(encoder_hidden=(3,), head_hidden=0), rng)
    model.watch(Tape())
    fast_params = model.parameters()
    slow_params = {name: Tensor(p.data.copy(), node_id=p.node_id)
                   for name, p in fast_params.items()}
    fast, slow = Adam(lr=0.05), LoopAdam(lr=0.05)
    model, flat = Model.lockstep([model])
    for flags in has_grad:
        grads = {p.node_id: rng.standard_normal(p.shape)
                 for p, flag in zip(fast_params.values(), flags) if flag}
        before = {name: p.data.copy() for name, p in fast_params.items()}
        flat = model.descend([fast], flat, grads)
        slow.step(slow_params, grads)
        for i, name in enumerate(fast_params):
            assert np.array_equal(fast_params[name].data, slow_params[name].data)
            if not flags[i]:
                assert np.array_equal(fast_params[name].data, before[name])
