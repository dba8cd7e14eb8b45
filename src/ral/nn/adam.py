"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np


class Adam:
    """Keeps one (m, v) moment pair, shaped like the one array it steps,
    and a step count.

    step(p, g) applies, elementwise, for the parameter array p and its
    gradient g:
        t += 1
        m = b1*m + (1-b1)*g
        v = b2*v + (1-b2)*g*g
        p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    p is updated in place. Each element's update depends only on its own
    gradient history, so one step over a concatenation of arrays equals a
    step of its own on each part; the training loop steps the network's
    one parameter vector, ``net.theta``. b1, b2 and eps are the published
    constants (Kingma & Ba, ICLR 2015); the learning rate is the one
    argument, and ``loop.RalConfig.learning_rate`` owns its default.
    """
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = self.v = None

    def step(self, p, g):
        if p.shape != g.shape:
            raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
        elif self.m.shape != p.shape:
            raise ValueError(f"optimizer state shape {self.m.shape} vs param shape {p.shape}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        p -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.epsilon)
