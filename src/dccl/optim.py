"""Gradient-descent optimization with adaptive moment estimates."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam over flat moment buffers.

    The first step lays the parameters out end to end: each owns one
    slice of the flat first-moment `m`, second-moment `v` and gradient
    buffers, and every later step updates all of them in one elementwise
    pass.  A step hands each updated parameter a view of one flat result;
    while every parameter still holds its view, the next step reads that
    result in place of gathering the parameters again.  The arithmetic is
    the per-parameter update, element for element, so it gives the same
    bits.
    """

    def __init__(self, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = None
        self._names = None
        self._handed = None  # (flat result, the view each parameter got) of the last step

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
        tensors = list(params.values())
        found = [grads.get(p.node_id) for p in tensors]
        g = self._grad
        for grad, sl in zip(found, self._slices):
            if grad is not None:
                g[sl] = np.reshape(grad, -1)
        handed = self._handed
        if handed is not None and all(p.data is view for p, view in zip(tensors, handed[1])):
            flat = handed[0]
        else:
            flat = self._flat
            for p, sl in zip(tensors, self._slices):
                flat[sl] = p.data.reshape(-1)
        m = b1 * self.m + (1.0 - b1) * g
        v = b2 * self.v + (1.0 - b2) * (g * g)
        every = all(grad is not None for grad in found)
        if every:
            self.m, self.v = m, v
        else:
            live = np.repeat([grad is not None for grad in found], self._sizes)
            np.copyto(self.m, m, where=live)
            np.copyto(self.v, v, where=live)
        updated = flat - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        for p, sl, grad in zip(tensors, self._slices, found):
            if grad is not None:
                p.data = updated[sl].reshape(p.data.shape)
        # a parameter that kept its value holds no view of `updated`
        self._handed = (updated, [p.data for p in tensors]) if every else None
