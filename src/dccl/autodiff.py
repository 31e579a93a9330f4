"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is a flat gradient tape: every primitive applied to a watched
tensor appends (output id, input ids, backward rule) to the active tape,
and one reverse sweep propagates adjoints back to all watched leaves.
Values are numpy float64 arrays of rank <= 2, which is all the MLPs and
losses in this package need; every backward rule is small enough to be
checked against central finite differences.
"""

from __future__ import annotations

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


def _tape_stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 value, optionally linked into the active gradient tape.

    A tensor is a constant until a tape watches it (or produces it); the
    node id is just a name inside whichever tape knows it.  Data arrays
    are replaced, never mutated in place, so backward closures can safely
    capture them.
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, node_id=None):
        arr = np.asarray(data, dtype=np.float64)
        if any(dim <= 0 for dim in arr.shape):
            raise ShapeError(f"tensor dimensions must be strictly positive, got {arr.shape}")
        if arr.ndim > 2:
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

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, _coerce(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    def __pow__(self, exponent):
        return power(self, float(exponent))

    def sum(self, axis=None):
        return reduce_sum(self, axis=axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis=axis)


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
        out = Tensor(out_data)
        out.node_id = next(_node_ids)
        self._known.add(out.node_id)
        parent_ids = tuple(
            p.node_id if (p.node_id is not None and p.node_id in self._known) else None
            for p in parents
        )
        self._ops.append((out.node_id, parent_ids, backward_rule))
        return out

    def gradients(self, root):
        """Gradients of a scalar `root` with respect to every watched leaf.

        Returns a dict keyed by node id; tensors that never touched this
        tape are simply absent.  The sweep is pure, so repeated calls on
        the same tape yield bit-identical results.
        """
        if root.node_id is None or root.node_id not in self._known:
            raise ValueError("root tensor was not produced under this tape")
        if root.data.shape != ():
            raise ShapeError(f"backward root must be scalar-shaped, got shape {root.data.shape}")
        grads = {root.node_id: np.ones((), dtype=np.float64)}
        for out_id, parent_ids, rule in reversed(self._ops):
            g = grads.get(out_id)
            if g is None:
                continue
            for pid, pg in zip(parent_ids, rule(g)):
                if pid is None or pg is None:
                    continue
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        return grads


def _emit(out_data, parents, backward_rule):
    tape = active_tape()
    if tape is not None and any(
        p.node_id is not None and p.node_id in tape._known for p in parents
    ):
        return tape._record(out_data, parents, backward_rule)
    return Tensor(out_data)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(grad.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a, b, opname):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} are not broadcast-compatible"
        ) from None


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.data.shape, b.data.shape
    return _emit(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast(a, b, "sub")
    sa, sb = a.data.shape, b.data.shape
    return _emit(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb).__neg__()))


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast(a, b, "mul")
    da, db = a.data, b.data
    return _emit(da * db, (a, b),
                 lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)))


def neg(a):
    a = _coerce(a)
    return _emit(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    da, db = a.data, b.data
    return _emit(da @ db, (a, b), lambda g: (g @ db.T, da.T @ g))


def transpose(a):
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got shape {a.data.shape}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def exp(a):
    a = _coerce(a)
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a):
    a = _coerce(a)
    if np.any(a.data <= NORM_FLOOR):
        raise DegenerateInputError(
            f"log of value <= {NORM_FLOOR:g} is rejected as degenerate (min {a.data.min():g})"
        )
    da = a.data
    return _emit(np.log(da), (a,), lambda g: (g / da,))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    a = _coerce(a)
    da = a.data
    return _emit(np.logaddexp(0.0, da), (a,), lambda g: (g * _sigmoid(da),))


def relu(a):
    a = _coerce(a)
    da = a.data
    return _emit(np.maximum(da, 0.0), (a,), lambda g: (g * (da > 0.0),))


def power(a, exponent):
    a = _coerce(a)
    p = float(exponent)
    if p != int(p) and np.any(a.data < 0.0):
        raise DegenerateInputError(f"fractional power {p} of a negative value")
    if p < 0 and np.any(np.abs(a.data) <= NORM_FLOOR):
        raise DegenerateInputError(f"negative power {p} of a near-zero value")
    da = a.data
    return _emit(da ** p, (a,), lambda g: (g * p * da ** (p - 1.0),))


def reduce_sum(a, axis=None):
    a = _coerce(a)
    da_shape = a.data.shape
    out = a.data.sum(axis=axis)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, da_shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), da_shape),)

    return _emit(out, (a,), rule)


def reduce_mean(a, axis=None):
    a = _coerce(a)
    da_shape = a.data.shape
    count = a.data.size if axis is None else da_shape[axis]
    scale = 1.0 / count
    out = a.data.mean(axis=axis)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g * scale, da_shape),)
        return (np.broadcast_to(np.expand_dims(g * scale, axis), da_shape),)

    return _emit(out, (a,), rule)


def l2_normalize(a):
    """Scale each row (or a single vector) to unit Euclidean norm.

    Norms at or below NORM_FLOOR are rejected rather than smoothed, so
    the unit-norm invariant of the output is exact.
    """
    a = _coerce(a)
    da = a.data
    if a.ndim == 1:
        norm = float(np.sqrt(np.sum(da * da)))
        if norm < NORM_FLOOR:
            raise DegenerateInputError(f"cannot normalize vector with norm {norm:g} < {NORM_FLOOR:g}")
        out = da / norm

        def rule(g, out=out, norm=norm):
            return ((g - out * float(np.dot(g, out))) / norm,)

        return _emit(out, (a,), rule)
    if a.ndim != 2:
        raise ShapeError(f"l2_normalize expects rank 1 or 2, got shape {da.shape}")
    norms = np.sqrt(np.sum(da * da, axis=1))
    bad = norms < NORM_FLOOR
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DegenerateInputError(
            f"cannot normalize row {row} with norm {norms[row]:g} < {NORM_FLOOR:g}"
        )
    out = da / norms[:, None]

    def rule(g):
        inner = np.sum(g * out, axis=1, keepdims=True)
        return ((g - out * inner) / norms[:, None],)

    return _emit(out, (a,), rule)


def logsumexp(a, mask=None):
    """Row-wise log-sum-exp of a rank-2 tensor, max-stabilized.

    `mask` is a constant boolean array of the same shape; False entries
    are excluded from the sum.  A row with no included entries is
    rejected (it would be an empty pool).
    """
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"logsumexp expects a rank-2 tensor, got shape {a.data.shape}")
    da = a.data
    if mask is None:
        mask = np.ones(da.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != da.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match tensor shape {da.shape}")
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        row = int(np.argmax(counts == 0))
        raise DegenerateInputError(f"logsumexp row {row} has an empty pool")
    xm = np.where(mask, da, -np.inf)
    peak = xm.max(axis=1)
    out = peak + np.log(np.sum(np.exp(xm - peak[:, None]), axis=1))

    def rule(g):
        weights = np.exp(xm - out[:, None])
        return (g[:, None] * weights,)

    return _emit(out, (a,), rule)


def logaddexp(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast(a, b, "logaddexp")
    da, db = a.data, b.data
    out = np.logaddexp(da, db)
    return _emit(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g * np.exp(da - out), da.shape),
            _unbroadcast(g * np.exp(db - out), db.shape),
        ),
    )


def gather_pairs(a, cols):
    """Pick one entry per row: out[i] = a[i, cols[i]]."""
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"gather_pairs expects a rank-2 tensor, got shape {a.data.shape}")
    cols = np.asarray(cols, dtype=np.intp)
    n, m = a.data.shape
    if cols.shape != (n,):
        raise ShapeError(f"gather_pairs needs {n} column indices, got shape {cols.shape}")
    if np.any(cols < 0) or np.any(cols >= m):
        raise IndexError(f"gather_pairs column index out of range [0, {m})")
    rows = np.arange(n)
    da_shape = a.data.shape

    def rule(g):
        z = np.zeros(da_shape)
        z[rows, cols] = g
        return (z,)

    return _emit(a.data[rows, cols], (a,), rule)


def index_rows(a, idx):
    """Select rows by index, with gradient scatter-added back."""
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"index_rows expects a rank-2 tensor, got shape {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    n = a.data.shape[0]
    if np.any(idx < 0) or np.any(idx >= n):
        raise IndexError(f"index_rows row index out of range [0, {n})")
    da_shape = a.data.shape

    def rule(g):
        z = np.zeros(da_shape)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(a.data[idx], (a,), rule)
