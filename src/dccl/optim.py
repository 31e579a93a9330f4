"""Gradient-descent optimization with adaptive moment estimates."""

from __future__ import annotations

import numpy as np

# decay rates of the first and second moment estimates, and the term that
# keeps the update's denominator off zero (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over one flat parameter vector.

    A step updates the vector in place from its gradient, laid out alike,
    in one elementwise pass, and keeps the first and second moments as
    flat vectors of the same layout.  The arithmetic is the per-parameter
    update, element for element, so a flat step gives the bits of one
    step per parameter.
    """

    def __init__(self, lr=5e-4):
        self.lr = lr
        self.t = 0
        self.m = self.v = None

    def step(self, flat, grad):
        """Update the parameter vector `flat` in place by its gradient
        `grad`, both of one length."""
        if self.m is None:
            self.m, self.v = np.zeros(flat.size), np.zeros(flat.size)
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        m = BETA1 * self.m + (1.0 - BETA1) * grad
        v = BETA2 * self.v + (1.0 - BETA2) * (grad * grad)
        np.subtract(flat, self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS), out=flat)
        self.m, self.v = m, v
