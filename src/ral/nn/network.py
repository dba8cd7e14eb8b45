"""Network assembly: layer specs, shape validation, the patch classifier.

The classifier used throughout is a fixed assembly: a conv+pool stem, a
three-block extraction trunk whose 3x3 convolutions sandwich a 1x1
feature-fusion convolution, two 2x2 max-pool downsamplings between blocks,
a global average pool and a dense softmax head. ``channel_plan`` scales the
per-block widths so the same structure runs at desk scale or full scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .layers import Conv2d, Dense, GlobalAvgPool, MaxPool2x2, training
from .loss import softmax, softmax_cross_entropy_batch

LAYER_KINDS = ("conv", "maxpool", "avgpool", "dense")


@dataclass(frozen=True)
class LayerSpec:
    kind: str                 # conv | maxpool | avgpool | dense
    kernel: int = 0           # conv: 1 or 3; maxpool: 2; otherwise unused
    channels: int = 0         # conv filters / dense units
    activation: str = "none"  # relu | none

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.kernel not in (1, 3):
            raise ValueError(f"conv kernel must be 1 or 3, got {self.kernel}")
        if self.kind == "maxpool" and self.kernel != 2:
            raise ValueError("maxpool kernel must be 2")


@dataclass(frozen=True)
class NetworkSpec:
    input: tuple              # (height, width, channels)
    layers: tuple             # ordered LayerSpecs
    classes: int

    def output_shapes(self):
        """Shape after each layer; raises if consecutive layers do not compose."""
        shapes = []
        cur = tuple(self.input)
        for i, ls in enumerate(self.layers):
            try:
                cur = _shape_after(ls, cur)
            except ValueError as e:
                raise ValueError(f"layer {i} ({ls.kind}): {e}") from e
            shapes.append(cur)
        return shapes

    def validate(self):
        shapes = self.output_shapes()
        last = self.layers[-1]
        if last.kind != "dense" or last.channels != self.classes:
            raise ValueError("final layer must be dense with one unit per class")
        return shapes

    def to_dict(self):
        return {"input": list(self.input), "classes": self.classes,
                "layers": [asdict(ls) for ls in self.layers]}

    @staticmethod
    def from_dict(d):
        return NetworkSpec(tuple(d["input"]),
                           tuple(LayerSpec(**x) for x in d["layers"]),
                           d["classes"])


def _shape_after(ls, in_shape):
    if ls.kind == "conv":
        if len(in_shape) != 3:
            raise ValueError(f"conv needs a spatial input, got shape {in_shape}")
        h, w, c = in_shape
        return (h, w, ls.channels)
    if ls.kind == "maxpool":
        if len(in_shape) != 3:
            raise ValueError(f"maxpool needs a spatial input, got shape {in_shape}")
        h, w, c = in_shape
        if h % 2 or w % 2:
            raise ValueError(f"odd spatial dims {h}x{w} reach a 2x2 pool")
        return (h // 2, w // 2, c)
    if ls.kind == "avgpool":
        if len(in_shape) != 3:
            raise ValueError(f"avgpool needs a spatial input, got shape {in_shape}")
        return (in_shape[2],)
    # dense flattens whatever it gets
    return (ls.channels,)


def build_classifier(input_size, channel_plan=(128, 256, 128), in_channels=3,
                     classes=4, stem_channels=None):
    """Assemble the full patch-classifier spec.

    Layout: [3x3 conv stem + 2x2 maxpool] -> three conv blocks of
    (3x3, 1x1, 3x3) at widths ``channel_plan``, with a 2x2 maxpool after
    each of the first two blocks -> global average pool -> dense head.

    ``input_size`` must be divisible by 8: the stem pool and the two trunk
    pools each halve the spatial size and reject odd inputs.
    """
    if input_size % 8 != 0:
        raise ValueError(f"input_size must be divisible by 8 (three 2x2 pools), got {input_size}")
    if len(channel_plan) != 3:
        raise ValueError("channel_plan must have three block widths")
    c1, c2, c3 = channel_plan
    stem = stem_channels if stem_channels is not None else c1
    conv = lambda k, c: LayerSpec("conv", k, c, "relu")
    pool = LayerSpec("maxpool", 2)
    layers = (
        conv(3, stem), pool,
        # extraction trunk: 1x1 fusion conv between two 3x3 convs, per block
        conv(3, c1), conv(1, c1), conv(3, c1), pool,
        conv(3, c2), conv(1, c2), conv(3, c2), pool,
        conv(3, c3), conv(1, c3), conv(3, c3),
        LayerSpec("avgpool"),
        LayerSpec("dense", channels=classes),
    )
    spec = NetworkSpec((input_size, input_size, in_channels), layers, classes)
    spec.validate()
    return spec


# Index range of the 11-layer extraction trunk inside build_classifier's layout.
TRUNK_SLICE = slice(2, 13)

# Samples per forward() call in predict_proba, for the scoring pass, a
# slide's grid and a whole evaluation split alike. Per-record time is flat
# from 32 to 256 samples, while the patch matrices grow with the chunk.
PREDICT_CHUNK = 64


class Network:
    """A NetworkSpec with materialized parameters.

    Initialization is fan-in-scaled uniform with a seeded PRNG and zero
    biases, so identical seeds give bit-identical networks.
    """

    def __init__(self, spec: NetworkSpec, seed=0, dtype=np.float32):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        in_shapes = [tuple(spec.input)] + spec.validate()[:-1]
        self.layers = []
        for ls, cur in zip(spec.layers, in_shapes):
            if ls.kind == "conv":
                # nothing reads the gradient of the network's input
                layer = Conv2d(ls.kernel, cur[2], ls.channels, ls.activation, rng, dtype,
                               input_grad=len(self.layers) > 0)
            elif ls.kind == "maxpool":
                layer = MaxPool2x2()
            elif ls.kind == "avgpool":
                layer = GlobalAvgPool()
            else:
                layer = Dense(int(np.prod(cur)), ls.channels, ls.activation, rng, dtype)
            self.layers.append(layer)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params)
        return out

    def parameter_names(self):
        names = []
        for i, layer in enumerate(self.layers):
            kind = type(layer).__name__.lower()
            for pname, _ in zip(("w", "b"), layer.params):
                names.append(f"layer{i}.{kind}.{pname}")
        return names

    def _check_batch(self, batch):
        if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(self.spec.input):
            raise ValueError(
                f"batch shape {tuple(batch.shape)} does not match network input {tuple(self.spec.input)}")

    def logits(self, batch, keep_caches=False):
        """Logits, and with ``keep_caches`` the training caches that
        backward needs; without, every layer runs its read-only forward."""
        self._check_batch(batch)
        # layers pass activations channel-major, (C, B, H, W)
        x = np.asarray(batch, dtype=self.dtype).transpose(3, 0, 1, 2)
        caches = []
        with training(keep_caches):
            for layer in self.layers:
                x, cache = layer.forward(x)
                caches.append(cache)
        return (x, caches) if keep_caches else x

    def forward(self, batch):
        """Class probabilities, one row per sample; rows sum to 1."""
        return softmax(self.logits(batch))

    def predict_proba(self, batch, rows=None):
        """Class probabilities of batch[rows], or of all of batch, for read-only passes.

        forward() runs on PREDICT_CHUNK samples at a time, and only those
        samples are gathered from batch. The fixed chunk bounds the memory
        a pass holds at once, and keeps every pass's arithmetic, and so its
        bytes, independent of the caller's batch size. batch is an array,
        or anything with a len() that gathers samples into one array when
        indexed with an index array: ``TrainingSet.images`` for the scoring
        pass, ``slices.SlideCells`` for a slide's grid or all the cells of
        an evaluation split.
        """
        rows = np.arange(len(batch)) if rows is None else rows
        if len(rows) <= PREDICT_CHUNK:
            return self.forward(batch[rows])
        return np.concatenate([self.forward(batch[rows[i:i + PREDICT_CHUNK]])
                               for i in range(0, len(rows), PREDICT_CHUNK)])

    def loss_and_grads(self, batch, labels, with_logits=False):
        """Mean cross-entropy over the batch and gradients for parameters()."""
        logits, caches = self.logits(batch, keep_caches=True)
        loss, dx = softmax_cross_entropy_batch(logits, labels)
        grads_rev = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dx, gs = layer.backward(dx, cache)
            grads_rev.extend(reversed(gs))
        grads = list(reversed(grads_rev))
        return (loss, grads, logits) if with_logits else (loss, grads)

    def astype(self, dtype):
        """Copy of this network with parameters converted to dtype."""
        clone = Network(self.spec, dtype=dtype)
        for dst, src in zip(clone.parameters(), self.parameters()):
            dst[...] = src
        return clone
