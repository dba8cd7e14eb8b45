"""An independent float64 forward pass over a `ral` checkpoint.

The output checks compare the program's class probabilities with this one,
and the program's gradients with central differences of this one's loss,
so a forward or backward kernel that computes wrong numbers fails the
check, while one that only reorders a reduction stays within tolerance.
It reads the RALW weights and the spec JSON itself and shares no code
with `ral.nn`.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

TOLERANCE = 1e-4       # max |p_program - p_reference| over classes, float32 program
GRAD_TOLERANCE = 1e-4  # |g.v - dL/dv| over |g|, per layer, float32 program


def load(path):
    """(layer specs, float64 tensors) of a checkpoint."""
    path = Path(path)
    spec = json.loads(path.with_name(path.stem + ".json").read_text())
    blob = path.read_bytes()
    if blob[:4] != b"RALW":
        raise ValueError(f"{path}: not a RALW checkpoint")
    _, count = struct.unpack_from("<II", blob, 4)
    off, tensors = 12, []
    for _ in range(count):
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        n = int(np.prod(dims))
        tensors.append(np.frombuffer(blob, "<f4", n, off).reshape(dims).astype(np.float64))
        off += 4 * n
    return spec["layers"], tensors


def probabilities(model, x):
    """Softmax class probabilities of NHWC images x under `model` = load(...)."""
    layers, tensors = model
    weights = iter(tensors)
    a = np.asarray(x, dtype=np.float64)
    for layer in layers:
        kind = layer["kind"]
        if kind == "conv":
            w, b = next(weights), next(weights)
            k = layer["kernel"]
            p = k // 2
            ap = np.pad(a, ((0, 0), (p, p), (p, p), (0, 0)))
            h, wd = a.shape[1:3]
            # every output pixel is a dot product of its k x k input window
            win = np.stack([ap[:, i:i + h, j:j + wd, :] for i in range(k) for j in range(k)],
                           axis=3)
            a = np.einsum("bhwkc,kco->bhwo", win, w.reshape(k * k, *w.shape[2:])) + b
        elif kind == "maxpool":
            n, h, wd, c = a.shape
            a = a.reshape(n, h // 2, 2, wd // 2, 2, c).max(axis=(2, 4))
        elif kind == "avgpool":
            a = a.mean(axis=(1, 2))
        else:
            w, b = next(weights), next(weights)
            a = a.reshape(len(a), -1) @ w + b
        if layer["activation"] == "relu":
            a = np.maximum(a, 0.0)
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def max_error(model, x, probs):
    """Largest absolute difference between `probs` and the reference's."""
    return float(np.abs(np.asarray(probs, np.float64) - probabilities(model, x)).max())


def loss(model, x, labels):
    """Mean softmax cross-entropy, the program's training criterion."""
    p = probabilities(model, x)
    return float(-np.log(p[np.arange(len(labels)), labels]).mean())


def gradient_error(model, x, labels, grads, rng, eps=1e-7):
    """Largest error of the program's gradients `grads` (one per tensor,
    in checkpoint order), layer by layer.

    For each layer with parameters and two unit directions v over its
    tensors, the program's own gradient direction and a random one, the
    derivative g.v from the program is compared with dL/dv from central
    differences of the reference loss in float64. The error is their
    difference over |g| (at least 1e-4).

    A step that carries a ReLU input or a max-pool pair across its kink
    makes the central difference wrong. That is rare at eps 1e-7 (see the
    README) but not impossible, so callers retry a failure on a fresh
    batch.
    """
    layers, tensors = model
    worst, i = 0.0, 0
    for layer in layers:
        if layer["kind"] not in ("conv", "dense"):
            continue
        idx = (i, i + 1)  # weights and bias
        i += 2
        g = [np.asarray(grads[j], np.float64) for j in idx]
        scale = max(_norm(g), 1e-4)
        for v in (g, [rng.standard_normal(tensors[j].shape) for j in idx]):
            v = [d / max(_norm(v), 1e-30) for d in v]

            def moved(sign):
                t = list(tensors)
                for j, d in zip(idx, v):
                    t[j] = tensors[j] + sign * eps * d
                return loss((layers, t), x, labels)

            numeric = (moved(1) - moved(-1)) / (2 * eps)
            analytic = sum(float((gj * d).sum()) for gj, d in zip(g, v))
            worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def _norm(tensors):
    return float(np.sqrt(sum(float((t * t).sum()) for t in tensors)))
