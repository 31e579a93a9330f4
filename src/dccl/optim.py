"""Gradient-descent optimization with adaptive moment estimates."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam over flat moment buffers.

    The first step lays the parameters out end to end: each owns one
    slice of the flat first-moment `m`, second-moment `v` and gradient
    buffers, and every later step updates all of them in one elementwise
    pass.  The arithmetic is the per-parameter update, element for
    element, so it gives the same bits.
    """

    def __init__(self, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = None
        self._names = None

    def _lay_out(self, params):
        self._names = tuple(params)
        self._sizes = [p.data.size for p in params.values()]
        ends = np.cumsum([0] + self._sizes)
        self._slices = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])
        self._grad = np.zeros(ends[-1])  # a slice with no gradient yet stays finite
        self._flat = np.empty(ends[-1])

    def step(self, params, grads):
        """Update tensors in `params` (name -> Tensor) from `grads`
        (node_id -> array).  A parameter without a gradient keeps its
        value and its moments."""
        if self._names is None:
            self._lay_out(params)
        elif tuple(params) != self._names:
            raise ValueError("Adam.step needs the same parameter names on every step")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        g, flat = self._grad, self._flat
        flags = []
        for p, sl in zip(params.values(), self._slices):
            grad = grads.get(p.node_id)
            flags.append(grad is not None)
            if grad is not None:
                g[sl] = np.reshape(grad, -1)
            flat[sl] = p.data.reshape(-1)
        live = np.repeat(flags, self._sizes)
        m = b1 * self.m + (1.0 - b1) * g
        v = b2 * self.v + (1.0 - b2) * (g * g)
        np.copyto(self.m, m, where=live)
        np.copyto(self.v, v, where=live)
        updated = flat - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        for p, sl, has_grad in zip(params.values(), self._slices, flags):
            if has_grad:
                p.data = updated[sl].reshape(p.data.shape)
