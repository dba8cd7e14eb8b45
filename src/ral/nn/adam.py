"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np


class Adam:
    """Keeps one (m, v) moment pair per parameter tensor and a step count.

    step() applies, for each parameter with gradient g:
        t += 1
        m = b1*m + (1-b1)*g
        v = b2*v + (1-b2)*g*g
        p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    Parameters are updated in place; each tensor's update depends only on
    its own gradient history. b1, b2 and eps are the published constants
    (Kingma & Ba, ICLR 2015); only the learning rate is an argument.
    """
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, lr=1e-4):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} params but {len(grads)} grads")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        elif len(self.m) != len(params):
            raise ValueError("optimizer state does not match parameter count")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
