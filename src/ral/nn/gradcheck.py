"""Finite-difference verification of the analytic backward pass.

Runs in float64 on a cloned network so the check never disturbs training
parameters. Per sampled coordinate the central difference
(L(p+h) - L(p-h)) / 2h is compared against the analytic gradient; the
per-coordinate error is |a - n| / max(|a|, |n|), with coordinates where
both sides are below ``atol`` counted as agreeing (that regime is FD noise,
not signal).

The loss is only piecewise smooth (ReLU, max pooling): where a +-h
perturbation flips an activation pattern, the central difference does not
estimate the derivative at all. Such coordinates are detected by comparing
the activation signature at p-h and p+h and reported as skipped rather
than scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import softmax_cross_entropy_batch


@dataclass
class TensorCheck:
    name: str
    shape: tuple
    checked: int
    skipped: int
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    tensors: list
    max_rel_err: float
    tol: float

    @property
    def ok(self):
        return all(t.ok for t in self.tensors)

    def summary(self):
        lines = [f"gradient check: tol={self.tol:g} max_rel_err={self.max_rel_err:.3e} "
                 f"{'OK' if self.ok else 'FAIL'}"]
        for t in self.tensors:
            flag = "ok" if t.ok else "FAIL"
            lines.append(f"  {t.name} {t.shape}: max_rel_err={t.max_rel_err:.3e} "
                         f"({t.checked} coords, {t.skipped} at kinks) {flag}")
        return "\n".join(lines)


def _signature(caches):
    """Bytes of the caches' bool arrays: the ReLU masks and max-pool winners."""
    parts = []
    for cache in caches:
        if not isinstance(cache, tuple):
            continue
        for item in cache:
            if isinstance(item, np.ndarray) and item.dtype == np.bool_:
                parts.append(item.tobytes())
    return b"".join(parts)


def gradient_check(net, batch, labels, h=1e-3, tol=1e-4, max_coords=64,
                   atol=1e-7, seed=0):
    """Compare analytic gradients with central differences for every tensor.

    Tensors with at most ``max_coords`` entries are checked exhaustively;
    larger ones on a seeded random sample of ``max_coords`` coordinates.
    """
    net64 = net.astype(np.float64)
    batch64 = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    _, analytic = net64.loss_and_grads(batch64, labels)
    params = net64.parameters()
    names = net64.parameter_names()
    rng = np.random.default_rng(seed)

    def loss_and_signature():
        logits, caches = net64.logits(batch64, keep_caches=True)
        loss, _ = softmax_cross_entropy_batch(logits, labels)
        return loss, _signature(caches)

    tensors = []
    worst = 0.0
    for name, p, a in zip(names, params, analytic):
        flat_p = p.reshape(-1)
        flat_a = a.reshape(-1)
        n_coords = flat_p.size
        if n_coords <= max_coords:
            coords = np.arange(n_coords)
        else:
            coords = rng.choice(n_coords, size=max_coords, replace=False)
        max_err = 0.0
        checked = skipped = 0
        for idx in coords:
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            lp, sig_p = loss_and_signature()
            flat_p[idx] = orig - h
            lm, sig_m = loss_and_signature()
            flat_p[idx] = orig
            if sig_p != sig_m:
                skipped += 1
                continue
            checked += 1
            numeric = (lp - lm) / (2.0 * h)
            a_val = flat_a[idx]
            if abs(a_val) < atol and abs(numeric) < atol:
                continue
            err = abs(a_val - numeric) / max(abs(a_val), abs(numeric))
            max_err = max(max_err, err)
        worst = max(worst, max_err)
        tensors.append(TensorCheck(name, tuple(p.shape), checked, skipped,
                                   max_err, max_err < tol))
    return GradCheckReport(tensors, worst, tol)
