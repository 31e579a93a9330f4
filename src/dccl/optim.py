"""Gradient-descent optimization with adaptive moment estimates."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam over one flat parameter vector.

    A step maps the vector and its gradient, laid out alike, to the next
    vector in one elementwise pass, and keeps the first and second moments
    as flat vectors of the same layout.  The arithmetic is the
    per-parameter update, element for element, so a flat step gives the
    bits of one step per parameter.
    """

    def __init__(self, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = None

    def step(self, flat, grad, out, live=None):
        """Write into `out` the update of the parameter vector `flat` by
        its gradient `grad`, all three of one length.  Where the boolean
        mask `live` is False an entry got no gradient: it keeps its value
        and its moments."""
        if self.m is None:
            self.m, self.v = np.zeros(flat.size), np.zeros(flat.size)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        m = b1 * self.m + (1.0 - b1) * grad
        v = b2 * self.v + (1.0 - b2) * (grad * grad)
        np.subtract(flat, self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps), out=out)
        if live is None:
            self.m, self.v = m, v
        else:
            np.copyto(self.m, m, where=live)
            np.copyto(self.v, v, where=live)
            np.copyto(out, flat, where=~live)
