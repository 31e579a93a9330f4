"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is a flat gradient tape: every op applied to a watched tensor
appends (output id, input ids, backward rule) to the active tape, and one
reverse sweep propagates adjoints back to all watched leaves.  Values are
numpy float64 arrays of rank <= 3: the MLPs and losses need rank 2, and
the fused ops also take a stack of R runs' operands on a leading run
axis, so that one op serves the R runs of a lockstep grid cell.  Every
backward rule is checked against central finite differences.

The package has seven ops: `add` and `mul` (through `Tensor.__add__` and
`__mul__`) and the fused `affine`, `embed_views`, `softmax_cross_entropy`,
`contrastive_term` and `generative_term`; a full-method training step
records 9 tape ops.  Evaluation needs no gradient and records nothing:
`normalize_rows` is its forward-only row normalization, which
`embed_views` shares.  Only `add` and `mul` broadcast; each fused op
takes exact shapes, checked once at entry, and replays, forward and
backward, the numpy operations of a chain of elementary primitives, in
the same order;
those primitives and the chains built from them live with the tests, in
`tests/elementary.py` and `tests/conftest.py`.  Where a chain sent
several gradient contributions to one input, the input appears once per
contribution in the op's parent tuple, in the order the reverse sweep
would have met them, so `Tape.gradients` sums them with the same
association; `embed_views` sums a parameter's per-view contributions
itself, in that order.  A fused op therefore yields the same bits as its
chain.

A stack gives each run the bytes of that run's own call: each numpy
call of a fused op acts on every run's slice as on one run's operand (a
stacked matmul makes one BLAS call per run, in the same memory layout;
reductions run along the same axes; gathers and scatters index each
run's rows through one flat index), and `tests/test_lockstep.py` holds
every op to that, slice by slice.

At a batch of n = 24 rows the Python cost of a numpy call exceeds its
arithmetic, so the per-step path calls ufuncs directly: reductions go
through ufunc methods (`np.add.reduce`, `np.maximum.reduce`,
`np.logical_or.reduce`) rather than `ndarray.sum`, `np.sum` or
`ndarray.any`, which wrap them in Python; a mean is such a sum divided
by its count, the division `ndarray.mean` makes, so the bits are its
own; stacks are `np.array` of a list; and a constant built per shape,
such as `off_diagonal`, is cached read-only, so no op can change it for
a later step.
"""

from __future__ import annotations

import functools
import itertools
import threading

import numpy as np

NORM_FLOOR = 1e-12

_node_ids = itertools.count(1)
_local = threading.local()


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class DegenerateInputError(ValueError):
    """Input outside the numerically safe domain of a primitive."""


def normalize_rows(h):
    """Each row of h (a vector along its last axis) scaled to unit
    Euclidean norm, and the norms with a trailing axis; forward only, on
    no tape.

    Norms below NORM_FLOOR are rejected rather than smoothed, and so are
    norms whose sum of squares overflows float64 (dividing by them would
    give all-zero rows), so every finite row of the output has unit norm:
    no loss needs to check it again.  A NaN norm passes through, for the
    caller's divergence check, and an overflowing sum of squares raises
    no numpy warning, only this error.  The error names the first
    rejected row, its view when h is a (views, n, d) stack, and its view
    and run when h is a (views, runs, n, d) stack, as `embed_views`
    passes for a lockstep cell.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(h * h, -1))
    bad = (norms < NORM_FLOOR) | (norms == np.inf)
    if np.logical_or.reduce(bad, None):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        *outer, row = first
        of_view = "".join(f" of {axis} {i}" for axis, i in zip(("view", "run"), outer))
        why = (f"{norms[first]:g} < {NORM_FLOOR:g}" if norms[first] < NORM_FLOOR
               else "overflowing float64")
        raise DegenerateInputError(f"cannot normalize row {row}{of_view} with norm {why}")
    norms = norms[..., None]
    return h / norms, norms


def _tape_stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class Tensor:
    """Dense float64 value, optionally linked into the active gradient tape.

    A tensor is a constant until a tape watches it (or produces it); the
    node id is just a name inside whichever tape knows it.  Backward
    closures capture data arrays, so only three places write a model's
    arrays in place: `nets.Model.descend` steps the parameters once the
    reverse sweep is done, training-mode `nets.Model.embed` moves the
    batch-norm running statistics, which no closure reads, and
    `nets.Model.set_state` loads a state outside any tape.
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, node_id=None):
        arr = np.asarray(data, dtype=np.float64)
        if 0 in arr.shape:
            raise ShapeError(f"tensor dimensions must be strictly positive, got {arr.shape}")
        if arr.ndim > 3:
            raise ShapeError(f"rank-{arr.ndim} tensors are not supported (shape {arr.shape})")
        self.data = arr
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"

    def __add__(self, other):
        return add(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


def _coerce(value):
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Ordered record of primitive applications, consumed by `gradients`.

    Ops are appended in execution order, so the record is already
    topologically sorted; the reverse sweep visits each op exactly once.
    A tape and the tensors recorded on it belong to a single thread.
    """

    def __init__(self):
        self._ops = []
        self._known = set()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def watch(self, tensor):
        if tensor.node_id is None:
            tensor.node_id = next(_node_ids)
        self._known.add(tensor.node_id)
        return tensor

    def _record(self, out_data, parents, backward_rule):
        known = self._known
        if isinstance(out_data, list):
            out = [Tensor(data, next(_node_ids)) for data in out_data]
            known.update(t.node_id for t in out)
            key = tuple((t.node_id, t.data.shape) for t in out)
        else:
            out = Tensor(out_data, next(_node_ids))
            known.add(out.node_id)
            key = out.node_id
        parent_ids = []
        for p in parents:
            pid = p.node_id
            parent_ids.append(pid if pid in known else None)
        self._ops.append((key, parent_ids, backward_rule))
        return out

    def gradients(self, root, stacked=False):
        """Gradients of a scalar `root` with respect to every watched leaf.

        With `stacked`, `root` may instead hold one loss per run of a
        stack, shape (R,): each is seeded with one, so each run's slice of
        a gradient is the gradient of that run's own loss.

        Returns a dict keyed by node id; tensors that never touched this
        tape are simply absent.  An op with several outputs gets one
        gradient per output, zeros for an output that nothing used.  The
        sweep is pure, so repeated calls on the same tape yield
        bit-identical results.
        """
        if root.node_id is None or root.node_id not in self._known:
            raise ValueError("root tensor was not produced under this tape")
        if root.data.ndim > (1 if stacked else 0):
            per_run = " or one value per run" if stacked else ""
            raise ShapeError(f"backward root must be scalar-shaped{per_run}, "
                             f"got shape {root.data.shape}")
        grads = {root.node_id: np.ones(root.data.shape, dtype=np.float64)}
        for key, parent_ids, rule in reversed(self._ops):
            if key.__class__ is tuple:
                # an op with several outputs: (node id, shape) pairs
                g = [grads.get(out_id) for out_id, _ in key]
                if all(gi is None for gi in g):
                    continue
                g = [np.zeros(shape) if gi is None else gi for gi, (_, shape) in zip(g, key)]
            else:
                g = grads.get(key)
                if g is None:
                    continue
            for pid, pg in zip(parent_ids, rule(g)):
                if pid is None or pg is None:
                    continue
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        return grads


def _emit(out_data, parents, backward_rule):
    """The output Tensor of an op, recorded on the active tape if a parent
    is on it.  A list of arrays is an op with one output per array: it
    returns a list of Tensors, and its rule takes a list of gradients."""
    stack = _tape_stack()
    if stack:
        tape = stack[-1]
        known = tape._known
        for p in parents:
            if p.node_id in known:
                return tape._record(out_data, parents, backward_rule)
    if isinstance(out_data, list):
        return [Tensor(data) for data in out_data]
    return Tensor(out_data)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(grad.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        grad = np.add.reduce(grad, axes, keepdims=True)
    return grad.reshape(shape)


def _check_shapes(sa, sb, opname):
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{opname}: shapes {sa} and {sb} are not broadcast-compatible")


def _check_matmul(sa, sb):
    if len(sa) != 2 or len(sb) != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {sa} and {sb}")
    if sa[1] != sb[0]:
        raise ShapeError(f"matmul inner dimensions differ: {sa} vs {sb}")


def _check_layer(sx, sW, sb):
    """x @ W + b for rows x of shape sx, b with one entry per column of W;
    in a stack, x, W and b lead with the same run count."""
    runs = ()
    if len(sW) == 3 and len(sx) == 3 and sx[0] == sW[0]:
        runs, sx, sW = sW[:1], sx[1:], sW[1:]
    _check_matmul(sx, sW)
    if sb != runs + sW[1:]:
        raise ShapeError(f"bias shape {sb} does not match weight shape {runs + sW}")


def _check_log(da):
    if np.logical_or.reduce(da <= NORM_FLOOR, None):
        raise DegenerateInputError(
            f"log of value <= {NORM_FLOOR:g} is rejected as degenerate (min {da.min():g})"
        )


def _check_power(da, p):
    if p != int(p) and np.logical_or.reduce(da < 0.0, None):
        raise DegenerateInputError(f"fractional power {p} of a negative value")
    if p < 0 and np.logical_or.reduce(np.abs(da) <= NORM_FLOOR, None):
        raise DegenerateInputError(f"negative power {p} of a near-zero value")


def _check_rows_of(a, opname):
    """A fused op's main operand: rows, or a stack of them on a run axis."""
    if a.ndim not in (2, 3):
        raise ShapeError(f"{opname} expects a rank-2 tensor or a stack of them, "
                         f"got shape {a.data.shape}")


def _check_cols(cols, shape, opname):
    """One column index per row of a (n, m) operand, or of each run's in
    a (R, n, m) stack, as an intp array."""
    cols = np.asarray(cols, dtype=np.intp)
    *rows, m = shape
    if cols.shape != tuple(rows):
        n = rows[0] if len(rows) == 1 else tuple(rows)
        raise ShapeError(f"{opname} needs {n} column indices, got shape {cols.shape}")
    if np.logical_or.reduce(cols < 0, None) or np.logical_or.reduce(cols >= m, None):
        raise IndexError(f"{opname} column index out of range [0, {m})")
    return cols


def _check_rows(idx, n, opname):
    if np.logical_or.reduce(idx < 0, None) or np.logical_or.reduce(idx >= n, None):
        raise IndexError(f"{opname} row index out of range [0, {n})")


@functools.cache
def off_diagonal(n):
    """The (n, n) boolean mask that is set off the diagonal: one array per
    n, read-only, shared by every call."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _flat_rows(idx, n):
    """Row indices into each run's n rows, as indices into the rows of the
    stack flattened to (R * n, ...): each run's own offset added."""
    if idx.ndim == 1:
        return idx
    return (idx + n * np.arange(len(idx))[:, None]).reshape(-1)


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    _check_shapes(sa, sb, "add")
    return _emit(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    da, db = a.data, b.data
    _check_shapes(da.shape, db.shape, "mul")
    return _emit(da * db, (a, b),
                 lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _lse_rows(da, mask=None):
    """Row-wise log-sum-exp, max-stabilized, over the entries `mask` sets
    (all without one): the masked input and the result."""
    xm = da if mask is None else np.where(mask, da, -np.inf)
    peak = np.maximum.reduce(xm, -1)
    return xm, peak + np.log(np.add.reduce(np.exp(xm - peak[..., None]), -1))


def _lse_grad(g, xm, out):
    weights = np.exp(xm - out[..., None])
    return g[..., None] * weights


# -- fused ops ------------------------------------------------------------------
#
# Each op below replays a chain of the elementary primitives of
# `tests/elementary.py`, step for step; `tests/conftest.py` builds each chain
# as a composite oracle.  The comments name the primitive each numpy line
# stands for; the backward rule walks the chain in reverse and hands back
# one gradient per entry of the parent tuple.  Shapes are exact, so the
# only broadcast a rule undoes is an (m,) bias or std_bias, by a sum over
# the rows.  A gradient spread from a scalar or a column that is summed
# again is built with `np.broadcast_to`, as in `reduce_sum`/`reduce_mean`,
# because a reduction's bits depend on the strides it walks.
#
# Every op also takes its operands stacked on a leading run axis, R runs
# of one shape (`embed_views` keeps its view axis in front: (views, R, n,
# d)), and each loss op then returns one loss per run, shape (R,).  So
# rows are axis -2 and features axis -1, a bias is broadcast over the rows
# as b[..., None, :], and `a.swapaxes(-1, -2)` is `a.T` of each run's matrix.


def affine(x, W, b):
    """x @ W + b for x (n, i), W (i, o), b (o,): `matmul`, broadcast `add`."""
    x, W, b = _coerce(x), _coerce(W), _coerce(b)
    xd, Wd, bd = x.data, W.data, b.data
    _check_layer(xd.shape, Wd.shape, bd.shape)
    return _emit(xd @ Wd + bd[..., None, :], (b, x, W),
                 lambda g: (np.add.reduce(g, -2), g @ Wd.swapaxes(-1, -2),
                            xd.swapaxes(-1, -2) @ g))


def _views_sum(parts):
    """The sum of per-view gradient contributions, last view first: the
    association in which the reverse sweep met one chain per view."""
    acc = parts[-1]
    for part in parts[-2::-1]:
        acc = acc + part
    return acc


def embed_views(views, layers, eps):
    """Training-mode embedding of a (views, n, d) stack of constant batches,
    one output Tensor per view; or, with stacked parameters, of a (views,
    R, n, d) stack of R runs' views, one (R, n, k) output per view.

    Each layer of `layers`, a (W, b, bn, relu) tuple, is `affine` with W
    and b; then, with bn a (gamma, beta) pair, batch standardization over
    each view's own rows, scaled by gamma and shifted by beta; then `relu`
    if relu is set.  Each row of the last layer's output is
    `l2_normalize`d.  Also returns, per batch-norm layer, the (views, m)
    batch means and variances ((views, R, m) in a stack), which the
    caller folds into its running statistics.

    The op replays one view's chain with a leading view axis: a stacked
    matmul, axis sum or mean gives the bytes of its per-view call.  Each
    parameter takes one gradient, its per-view contributions summed last
    view first, as the reverse sweep summed the per-view chains.
    """
    xs = np.asarray(views, dtype=np.float64)
    if xs.ndim not in (3, 4) or 0 in xs.shape:
        raise ShapeError(f"embed_views expects a (views, n, d) stack or a (views, R, n, d) "
                         f"stack of R runs' views, got shape {xs.shape}")
    rows = xs.shape[-2]
    scale = 1.0 / rows
    p = -0.5
    parents, saved, batch_stats = [], [], []
    h = xs
    for W, b, bn, relu in layers:
        x_in, Wd, bd = h, W.data, b.data
        _check_layer(x_in.shape[1:], Wd.shape, bd.shape)
        h = x_in @ Wd + bd[..., None, :]              # matmul, add
        parents += [W, b]
        norm = None
        if bn is not None:
            gamma, beta = bn
            gd = gamma.data
            if gd.shape != bd.shape or beta.data.shape != bd.shape:
                raise ShapeError(f"batch-norm shapes {gd.shape} and {beta.data.shape} "
                                 f"do not match width {bd.shape}")
            mu = np.add.reduce(h, -2) / rows          # reduce_mean(x, 0)
            c = h - mu[..., None, :]                  # sub
            var = np.add.reduce(c * c, -2) / rows     # mul, reduce_mean(., 0)
            ve = var + eps                            # add
            _check_power(ve, p)
            inv = (ve ** p)[..., None, :]             # power
            t1 = c * inv                              # mul
            gd = gd[..., None, :]
            h = t1 * gd + beta.data[..., None, :]     # mul, add
            parents += [gamma, beta]
            batch_stats.append((mu, var))
            norm = (gd, c, ve, inv, t1)
        alive = None
        if relu:
            alive = h > 0.0
            h = np.maximum(h, 0.0)                    # relu
        saved.append((x_in, Wd, norm, alive))
    out, norms = normalize_rows(h)                    # l2_normalize

    def rule(gs):
        g = np.array(gs)
        inner = np.add.reduce(g * out, -1, keepdims=True)
        g = (g - out * inner) / norms
        grads = []
        for x_in, Wd, norm, alive in reversed(saved):
            if alive is not None:
                g = g * alive
            if norm is not None:
                gd, c, ve, inv, t1 = norm
                grads += [_views_sum(np.add.reduce(g, -2)),
                          _views_sum(np.add.reduce(g * t1, -2))]
                g_t1 = g * gd
                g_c = g_t1 * inv
                g_var = np.add.reduce(g_t1 * c, -2) * p * ve ** (p - 1.0)
                g_sq = (g_var * scale)[..., None, :]
                g_c = g_c + g_sq * c
                g_c = g_c + g_sq * c
                g_mu = np.add.reduce(g_c, -2).__neg__()
                g = g_c + (g_mu * scale)[..., None, :]
            grads += [_views_sum(np.add.reduce(g, -2)), _views_sum(x_in.swapaxes(-1, -2) @ g)]
            if x_in is not xs:
                g = g @ Wd.swapaxes(-1, -2)
        return grads[::-1]

    outs = _emit(list(out), parents, rule)
    return outs, batch_stats


def softmax_cross_entropy(logits, labels):
    """Mean over rows of logsumexp(logits[i]) - logits[i, labels[i]]."""
    logits = _coerce(logits)
    _check_rows_of(logits, "softmax_cross_entropy")
    da = logits.data
    cols = _check_cols(labels, da.shape, "softmax_cross_entropy")
    m = da.shape[-1]
    rows, flat_cols = np.arange(cols.size), cols.reshape(-1)
    xm, lse = _lse_rows(da)                                      # logsumexp
    diff = lse - da.reshape(-1, m)[rows, flat_cols].reshape(cols.shape)  # gather_pairs, sub
    scale = 1.0 / diff.shape[-1]

    def rule(g):
        g_diff = np.broadcast_to((g * scale)[..., None], diff.shape)
        picked = np.zeros(da.shape)
        picked.reshape(-1, m)[rows, flat_cols] = g_diff.__neg__().reshape(-1)
        return (picked, _lse_grad(g_diff, xm, lse))

    return _emit(np.add.reduce(diff, -1) / diff.shape[-1], (logits, logits), rule)


def contrastive_term(z, z_alt, positive, z_pre, temperature, anchor_negatives=False,
                     standard=False):
    """Mean over rows of log(denominator_i) - z_i . z+_i / temperature.

    Row i's positive is z_alt[positive[i]], or the constant z_pre[i] where
    positive[i] is negative.  The denominator sums exp(z_i . z_alt_j / t)
    over j != i; with `anchor_negatives` also exp(z_i . z_pre_j / t) over
    j != i, and with `standard` the positive term itself.  z_pre (n, d) is
    needed only when a row takes an anchor positive or anchor negatives
    are on.  In a stack each run's positive indexes its own z_alt rows.
    """
    z, z_alt = _coerce(z), _coerce(z_alt)
    _check_rows_of(z, "contrastive_term")
    zd, ad_ = z.data, z_alt.data
    n, d = zd.shape[-2:]
    if ad_.shape != zd.shape:
        raise ShapeError(f"z_alt shape {ad_.shape} does not match z shape {zd.shape}")
    if n < 2:
        raise DegenerateInputError("contrastive_term needs 2 rows for a negative pool")
    inv_t = 1.0 / temperature
    positive = np.asarray(positive, dtype=np.intp)
    if positive.shape != zd.shape[:-1]:
        raise ShapeError(f"contrastive_term needs {zd.shape[:-1]} positives, "
                         f"got shape {positive.shape}")
    anchor_rows = positive < 0
    with_anchor = bool(np.logical_or.reduce(anchor_rows, None))
    idx = np.where(anchor_rows, 0, positive)
    _check_rows(idx, n, "contrastive_term")
    flat = _flat_rows(idx, n)
    if with_anchor or anchor_negatives:
        z_pre = np.asarray(z_pre, dtype=np.float64)
        if z_pre.shape != zd.shape:
            raise ShapeError(f"z_pre shape {z_pre.shape} does not match z shape {zd.shape}")

    P = P0 = ad_.reshape(-1, d)[flat].reshape(zd.shape)   # index_rows
    if with_anchor:
        keep = (~anchor_rows).astype(np.float64)[..., None]
        P1 = P0 * keep                                  # mul
        fill = 0.0
        if anchor_rows.ndim > 1:
            # adding -0.0 changes no value, so a run of a stack without anchor
            # rows keeps its P0 as its own call does, -0.0 entries included
            fill = np.where(np.logical_or.reduce(anchor_rows, -1), 0.0, -0.0)[:, None, None]
        P = P1 + np.where(anchor_rows[..., None], z_pre, fill)   # add
    pos = np.add.reduce(zd * P, -1) * inv_t             # mul, reduce_sum(., 1), mul
    zaT = ad_.swapaxes(-1, -2).copy()                   # transpose
    neg_mask = off_diagonal(n)
    xm, lse = _lse_rows((zd @ zaT) * inv_t, neg_mask)   # matmul, mul, logsumexp
    denom = lse
    if anchor_negatives:
        zpT = z_pre.swapaxes(-1, -2).copy()
        xm_a, lse_a = _lse_rows((zd @ zpT) * inv_t, neg_mask)   # matmul, mul, logsumexp
        denom_a = denom = np.logaddexp(lse, lse_a)      # logaddexp
    if standard:
        denom_prev = denom
        denom = np.logaddexp(denom_prev, pos)           # logaddexp
    diff = denom - pos                                  # sub
    scale = 1.0 / n

    def rule(g):
        g_diff = np.broadcast_to((g * scale)[..., None], diff.shape)     # reduce_mean
        g_den = g_diff                                      # sub
        g_pos = g_diff.__neg__()
        if standard:
            g_pos = g_pos + g_den * np.exp(pos - denom)
            g_den = g_den * np.exp(denom_prev - denom)
        out = []
        if anchor_negatives:
            g_lse_a = g_den * np.exp(lse_a - denom_a)
            g_den = g_den * np.exp(lse - denom_a)
            out.append((_lse_grad(g_lse_a, xm_a, lse_a) * inv_t) @ zpT.swapaxes(-1, -2))
        g_sims = _lse_grad(g_den, xm, lse) * inv_t
        out.append(g_sims @ zaT.swapaxes(-1, -2))
        out.append((zd.swapaxes(-1, -2) @ g_sims).swapaxes(-1, -2))
        g_q = (g_pos * inv_t)[..., None]
        out.append(g_q * P)
        g_p = g_q * zd
        if with_anchor:
            g_p = g_p * keep
        scattered = np.zeros(zd.shape)
        np.add.at(scattered.reshape(-1, d), flat, g_p.reshape(-1, d))
        out.append(scattered)
        return out

    parents = ((z,) if anchor_negatives else ()) + (z, z_alt, z, z_alt)
    return _emit(np.add.reduce(diff, -1) / n, parents, rule)


def generative_term(z, z_pre, noise, std_bias, W, b):
    """Mean over rows of ||z_pre - psi(z_lat)||^2 + KL[N(z, sigma^2) || N(0, 1)].

    sigma = softplus(std_bias), z_lat = z + sigma * noise and the decoder
    psi(v) = v @ W + b; the KL is 0.5 * sum(sigma^2 + z^2 - 1 - ln sigma^2).
    z and noise are (n, m), std_bias (m,), W (m, k), b (k,) and z_pre (n, k),
    each with a leading run axis in a stack.
    """
    z, std_bias, W, b = _coerce(z), _coerce(std_bias), _coerce(W), _coerce(b)
    zd, bd, Wd = z.data, std_bias.data, W.data
    noise, z_pre = np.asarray(noise, dtype=np.float64), np.asarray(z_pre, dtype=np.float64)
    _check_rows_of(z, "generative_term")
    *runs, n, m = zd.shape
    runs, k = tuple(runs), Wd.shape[-1:]
    for name, arr, want in (("noise", noise, (n, m)), ("std_bias", bd, (m,)),
                            ("W", Wd, (m, *k)), ("b", b.data, k), ("z_pre", z_pre, (n, *k))):
        if arr.shape != runs + want:
            raise ShapeError(f"generative_term: {name} shape {arr.shape} is not {runs + want}")
    sig = np.logaddexp(0.0, bd)                 # softplus
    sig_rows = sig[..., None, :]
    sn = sig_rows * noise                       # mul
    zl = zd + sn                                # add
    r0 = zl @ Wd                                # matmul
    recon = r0 + b.data[..., None, :]           # add
    s2 = sig * sig                              # mul
    zz = zd * zd                                # mul
    a8 = s2[..., None, :] + zz                  # add
    a9 = a8 - 1.0                               # sub
    _check_log(s2)
    l10 = np.log(s2)                            # log
    a11 = a9 - l10[..., None, :]                # sub
    kl = np.add.reduce(a11, -1) * 0.5           # reduce_sum(., 1), mul
    err = z_pre - recon                         # sub
    rec = np.add.reduce(err * err, -1)          # mul, reduce_sum(., 1)
    tot = rec + kl                              # add
    scale = 1.0 / n

    def rule(g):
        g_tot = np.broadcast_to((g * scale)[..., None], tot.shape)
        g_recon = (g_tot[..., None] * err + g_tot[..., None] * err).__neg__()
        g_a11 = np.broadcast_to((g_tot * 0.5)[..., None], a11.shape)
        g_cols = np.add.reduce(g_a11, -2)
        g_s2 = g_cols.__neg__() / s2 + g_cols
        g_zl = g_recon @ Wd.swapaxes(-1, -2)
        g_sig = g_s2 * sig + g_s2 * sig + np.add.reduce(g_zl * noise, -2)
        g_z = g_a11 * zd
        return (g_z, g_z, np.add.reduce(g_recon, -2), zl.swapaxes(-1, -2) @ g_recon, g_zl,
                g_sig * _sigmoid(bd))

    return _emit(np.add.reduce(tot, -1) / n, (z, z, b, W, z, std_bias), rule)
