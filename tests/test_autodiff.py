import math
import sys

import numpy as np
import pytest

from dccl import autodiff as ad
from dccl.autodiff import Tape, Tensor
from dccl.harness import (DEFAULT_ROWS, AnchorConfig, DatasetSpec, ExperimentConfig,
                          OptimConfig, build_run_anchor, train)
from dccl.nets import ModelSpec

import elementary as el
from conftest import max_rel_err, numerical_gradient


def grad_of(build, x):
    """Analytic gradient of scalar build(tensor) at x via the tape."""
    with Tape() as tape:
        t = tape.watch(Tensor(x))
        out = build(t)
    return tape.gradients(out)[t.node_id]


def check_against_fd(build, x, tol=1e-4):
    x = np.asarray(x, dtype=np.float64)
    analytic = grad_of(build, x)

    def value():
        return build(Tensor(x)).item()

    numeric = numerical_gradient(value, x)
    assert max_rel_err(analytic, numeric) <= tol


def test_matmul_value():
    out = el.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_l2_normalize_value():
    out = el.l2_normalize(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_softplus_value():
    assert el.softplus(Tensor(0.0)).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_sum_of_square_gradient():
    g = grad_of(lambda t: el.reduce_sum(t * t), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, [2.0, 4.0, 6.0])


def test_normalize_dot_gradient_matches_fd():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 8))
    v = rng.standard_normal((1, 8))

    def build(t):
        return el.reduce_sum(el.l2_normalize(t) * Tensor(v))

    analytic = grad_of(build, x)
    numeric = numerical_gradient(lambda: build(Tensor(x)).item(), x)
    assert max_rel_err(analytic, numeric) <= 1e-5


PRIMITIVES = {
    "add": lambda t, c: el.reduce_sum(t + Tensor(c)),
    "add_broadcast": lambda t, c: el.reduce_sum(t + Tensor(c[0])),
    "sub": lambda t, c: el.reduce_sum(el.sub(Tensor(c), t)),
    "mul": lambda t, c: el.reduce_sum(t * Tensor(c)),
    "mul_self": lambda t, c: el.reduce_sum(t * t),
    "neg": lambda t, c: el.reduce_sum(el.neg(t)),
    "matmul": lambda t, c: el.reduce_sum(el.matmul(t, Tensor(c.T))),
    "transpose": lambda t, c: el.reduce_sum(el.transpose(t) * Tensor(c.T)),
    "exp": lambda t, c: el.reduce_sum(el.exp(t)),
    "log": lambda t, c: el.reduce_sum(el.log(t * t + 1.0)),
    "softplus": lambda t, c: el.reduce_sum(el.softplus(t)),
    "relu": lambda t, c: el.reduce_sum(el.relu(t)),
    "power": lambda t, c: el.reduce_sum(el.power(t * t + 0.5, -0.5)),
    "sum_axis": lambda t, c: el.reduce_sum(el.reduce_sum(t, axis=0) * Tensor(c[0])),
    "mean": lambda t, c: el.reduce_mean(t),
    "mean_axis": lambda t, c: el.reduce_sum(el.reduce_mean(t, axis=1) * Tensor(c[:, 0])),
    "l2_normalize": lambda t, c: el.reduce_sum(el.l2_normalize(t) * Tensor(c)),
    "logsumexp": lambda t, c: el.reduce_sum(el.logsumexp(t)),
    "logsumexp_masked": lambda t, c: el.reduce_sum(el.logsumexp(t, mask=c > 0)),
    "logaddexp": lambda t, c: el.reduce_sum(el.logaddexp(t, Tensor(c))),
    "gather_pairs": lambda t, c: el.reduce_sum(el.gather_pairs(t, np.array([1, 0, 2]))),
    "index_rows": lambda t, c: el.reduce_sum(el.index_rows(t, np.array([0, 2, 1, 0]))
                                             * Tensor(1.0)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_fd(name):
    build = PRIMITIVES[name]
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        x = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 4))
        if name == "relu":
            # keep inputs away from the kink so central differences are exact
            x = x + np.where(x >= 0, 0.05, -0.05)
        if name == "logsumexp_masked":
            c[:, 0] = 1.0  # every row keeps at least one entry
        check_against_fd(lambda t: build(t, c), x)


def test_composition_matches_fd():
    for trial in range(25):
        rng = np.random.default_rng(2000 + trial)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 3))

        def build(t):
            h = el.relu(el.matmul(t, Tensor(w)) + 0.3)
            z = el.l2_normalize(h + 0.05)
            return el.reduce_mean(el.logsumexp(z * 3.0))

        check_against_fd(build, x)


def test_backward_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    with Tape() as tape:
        t = tape.watch(Tensor(x))
        out = el.reduce_mean(el.logsumexp(el.l2_normalize(t * t + 0.1)))
    first = tape.gradients(out)[t.node_id]
    second = tape.gradients(out)[t.node_id]
    assert np.array_equal(first, second)


def test_detached_tensor_has_no_entry():
    with Tape() as tape:
        t = tape.watch(Tensor([1.0, 2.0]))
        const = Tensor([3.0, 4.0])
        out = el.reduce_sum(t * const)
    grads = tape.gradients(out)
    assert const.node_id not in grads
    assert t.node_id in grads


def test_non_scalar_root_rejected():
    with Tape() as tape:
        t = tape.watch(Tensor([1.0, 2.0]))
        out = t * 2.0
    with pytest.raises(ad.ShapeError):
        tape.gradients(out)


def test_foreign_root_rejected():
    with Tape() as tape:
        tape.watch(Tensor([1.0]))
    with pytest.raises(ValueError):
        tape.gradients(Tensor(1.0))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError) as err:
        el.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_add_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeError):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))


def test_normalize_degenerate_rejected():
    with pytest.raises(ad.DegenerateInputError):
        el.l2_normalize(Tensor([[0.0, 0.0]]))
    with pytest.raises(ad.DegenerateInputError):
        el.l2_normalize(Tensor([[1.0, 0.0], [1e-13, 0.0]]))
    with pytest.raises(ad.DegenerateInputError, match="row 1 with norm overflowing float64"):
        with np.errstate(over="ignore"):
            el.l2_normalize(Tensor([[1.0, 0.0], [1e160, 0.0]]))
    with pytest.raises(ad.ShapeError):
        el.l2_normalize(Tensor([3.0, 4.0]))


def test_cached_masks_are_read_only():
    """The off-diagonal mask is built once per n and shared by every step,
    so a write to it must raise rather than change a later step's mask."""
    mask = ad.off_diagonal(4)
    assert mask is ad.off_diagonal(4)
    assert np.array_equal(mask, ~np.eye(4, dtype=bool))
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 1] = False
    with pytest.raises(ValueError, match="read-only"):
        np.logical_not(mask, out=mask)
    assert np.array_equal(ad.off_diagonal(4), ~np.eye(4, dtype=bool))


def test_log_degenerate_rejected():
    with pytest.raises(ad.DegenerateInputError):
        el.log(Tensor([1.0, 0.0]))


def test_gradient_accumulates_over_reuse():
    # d/dx of x*x + 3x at x=2 is 2*2 + 3 = 7
    with Tape() as tape:
        t = tape.watch(Tensor(2.0))
        out = t * t + t * 3.0
    assert tape.gradients(out)[t.node_id] == pytest.approx(7.0)


def test_empty_pool_rejected():
    with pytest.raises(ad.DegenerateInputError):
        el.logsumexp(Tensor(np.ones((2, 2))), mask=np.zeros((2, 2), dtype=bool))


def test_no_dead_tape_surface(monkeypatch):
    """Every public op that records on the tape is recorded by one
    full-method (CDC+PMA+GT) training step, which records 9 ops, and
    nothing else records there; `Tensor` keeps no operator but `+` and
    `*`."""
    emitters = {name for name, fn in vars(ad).items()
                if callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == ad.__name__
                and "_emit" in getattr(getattr(fn, "__code__", None), "co_names", ())}
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_domains=3, n_classes=2, n_per_domain_class=12),
        model=ModelSpec(encoder_hidden=(12,), embed_dim=6, head_hidden=12),
        optim=OptimConfig(steps=1, batch_size=8),
        anchor=AnchorConfig(steps=1, batch_size=12))
    cfg = next(row for row in DEFAULT_ROWS if row.name == "full").apply(cfg)
    anchor = build_run_anchor(cfg, cfg.dataset.build())
    recorded = []
    record = Tape._record

    def recording(tape, *args):
        # the op called `_emit`, which called `_record`
        recorded.append(sys._getframe(2).f_code.co_name)
        return record(tape, *args)

    monkeypatch.setattr(Tape, "_record", recording)
    train(cfg, anchor=anchor)
    assert sorted(set(recorded)) == sorted(emitters)
    assert len(recorded) == 9, recorded
    operators = {name for name, fn in vars(Tensor).items()
                 if name.startswith("__") and callable(fn) and name not in ("__init__", "__repr__")}
    assert operators == {"__add__", "__mul__"}
