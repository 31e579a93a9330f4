"""Elementary tape primitives, kept as a test-side oracle.

`dccl.autodiff` records only the ops the package runs.  The primitives
below are the steps its fused ops replay: `conftest.py` chains them into
composite oracles, and `test_autodiff.py` checks each one against finite
differences.  They record through `autodiff._emit` and share its shape
checks and log-sum-exp helpers, so a chain of them yields the same bits as
before the fused ops existed.  Tests call them as functions; `Tensor`
keeps only `+` and `*`.

`relu` and `l2_normalize` are the last steps of each view's chain in the
`embed_views` composite; `l2_normalize` takes its forward pass from
`autodiff.normalize_rows`, the package's forward-only row normalization.
`batchnorm_train` at the end is the one-view batch-norm op that the
package recorded before `autodiff.embed_views` took in the whole
embedding; it is kept as an oracle of the batch-norm step of that op.
`intra_class_variance` is a measure of embeddings that only tests read.
"""

import numpy as np

from dccl.autodiff import (DegenerateInputError, ShapeError, _check_cols, _check_log,
                           _check_matmul, _check_power, _check_rows, _check_shapes, _coerce,
                           _emit, _lse_grad, _lse_rows, _sigmoid, _unbroadcast, normalize_rows)


def _check_rank2(a, opname):
    if a.ndim != 2:
        raise ShapeError(f"{opname} expects a rank-2 tensor, got shape {a.data.shape}")


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    _check_shapes(sa, sb, "sub")
    return _emit(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb).__neg__()))


def neg(a):
    a = _coerce(a)
    return _emit(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_matmul(a.data.shape, b.data.shape)
    da, db = a.data, b.data
    return _emit(da @ db, (a, b), lambda g: (g @ db.T, da.T @ g))


def transpose(a):
    a = _coerce(a)
    _check_rank2(a, "transpose")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def exp(a):
    a = _coerce(a)
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a):
    a = _coerce(a)
    _check_log(a.data)
    da = a.data
    return _emit(np.log(da), (a,), lambda g: (g / da,))


def softplus(a):
    a = _coerce(a)
    da = a.data
    return _emit(np.logaddexp(0.0, da), (a,), lambda g: (g * _sigmoid(da),))


def relu(a):
    a = _coerce(a)
    da = a.data
    return _emit(np.maximum(da, 0.0), (a,), lambda g: (g * (da > 0.0),))


def l2_normalize(a):
    """Scale each row of a rank-2 tensor to unit Euclidean norm."""
    a = _coerce(a)
    _check_rank2(a, "l2_normalize")
    out, norms = normalize_rows(a.data)

    def rule(g):
        inner = np.sum(g * out, axis=1, keepdims=True)
        return ((g - out * inner) / norms,)

    return _emit(out, (a,), rule)


def power(a, exponent):
    a = _coerce(a)
    p = float(exponent)
    _check_power(a.data, p)
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


def logsumexp(a, mask=None):
    """Row-wise log-sum-exp of a rank-2 tensor, max-stabilized.

    `mask` is a constant boolean array of the same shape; False entries
    are excluded from the sum.  A row with no included entries is
    rejected (it would be an empty pool).
    """
    a = _coerce(a)
    _check_rank2(a, "logsumexp")
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
    xm, out = _lse_rows(da, mask)
    return _emit(out, (a,), lambda g: (_lse_grad(g, xm, out),))


def logaddexp(a, b):
    a, b = _coerce(a), _coerce(b)
    da, db = a.data, b.data
    _check_shapes(da.shape, db.shape, "logaddexp")
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
    _check_rank2(a, "gather_pairs")
    cols = _check_cols(cols, a.data.shape, "gather_pairs")
    rows = np.arange(len(cols))
    da_shape = a.data.shape

    def rule(g):
        z = np.zeros(da_shape)
        z[rows, cols] = g
        return (z,)

    return _emit(a.data[rows, cols], (a,), rule)


def index_rows(a, idx):
    """Select rows by index, with gradient scatter-added back."""
    a = _coerce(a)
    _check_rank2(a, "index_rows")
    idx = np.asarray(idx, dtype=np.intp)
    _check_rows(idx, a.data.shape[0], "index_rows")
    da_shape = a.data.shape

    def rule(g):
        z = np.zeros(da_shape)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(a.data[idx], (a,), rule)


# -- the one-view batch-norm op, as the package recorded it -----------------------

def batchnorm_train(x, gamma, beta, eps):
    """Batch standardization of the rows of x, scaled by gamma, shifted by beta.

    Returns the output tensor and the batch mean and variance (plain
    arrays), which the caller folds into its running statistics.
    """
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    _check_rank2(x, "batchnorm_train")
    xd, gd, sbeta = x.data, gamma.data, beta.data.shape
    scale = 1.0 / xd.shape[0]
    mu = xd.mean(axis=0)                      # reduce_mean(x, 0)
    c = xd - mu                               # sub
    var = (c * c).mean(axis=0)                # mul, reduce_mean(., 0)
    ve = var + eps                            # add
    p = -0.5
    _check_power(ve, p)
    inv = ve ** p                             # power
    t1 = c * inv                              # mul
    _check_shapes(t1.shape, gd.shape, "mul")
    t2 = t1 * gd                              # mul
    _check_shapes(t2.shape, sbeta, "add")
    out = t2 + beta.data                      # add

    def rule(g):
        g_beta = _unbroadcast(g, sbeta)
        g_t2 = _unbroadcast(g, t2.shape)
        g_gamma = _unbroadcast(g_t2 * t1, gd.shape)
        g_t1 = _unbroadcast(g_t2 * gd, t1.shape)
        g_c = _unbroadcast(g_t1 * inv, c.shape)
        g_inv = _unbroadcast(g_t1 * c, inv.shape)
        g_var = g_inv * p * ve ** (p - 1.0)
        g_sq = (g_var * scale)[None, :]
        g_c = g_c + g_sq * c
        g_c = g_c + g_sq * c
        g_mu = _unbroadcast(g_c, mu.shape).__neg__()
        return (g_beta, g_gamma, g_c,
                np.broadcast_to((g_mu * scale)[None, :], xd.shape))

    return _emit(out, (beta, gamma, x, x), rule), mu, var


def intra_class_variance(vectors, class_ids):
    """Mean over classes of the total within-class variance (trace of the
    class covariance); the quantity contrastive alignment should shrink."""
    vectors = np.asarray(vectors, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    variances = []
    for c in np.unique(class_ids):
        pts = vectors[class_ids == c]
        if len(pts) < 2:
            continue
        centered = pts - pts.mean(axis=0)
        variances.append(float(np.mean(np.sum(centered * centered, axis=1))))
    if not variances:
        raise ValueError("no class with at least 2 samples")
    return float(np.mean(variances))
