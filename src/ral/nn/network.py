"""Network assembly: layer specs, shape validation, the patch classifier.

The classifier used throughout is a fixed assembly: a conv+pool stem, a
three-block extraction trunk whose 3x3 convolutions sandwich a 1x1
feature-fusion convolution, two 2x2 max-pool downsamplings between blocks,
a global average pool and a dense softmax head. ``channel_plan`` scales the
per-block widths so the same structure runs at desk scale or full scale.

A Network keeps all its parameters in one contiguous vector, ``theta``.
Each layer's ``w`` and ``b`` are reshaped views of consecutive slices of
it, in ``parameters()`` order, so the training step can check and update
the whole network in a few numpy calls (``loop._train_epochs``). The rule
that keeps this true: mutate parameters in place (``layer.w[...] = x``,
``p -= d``) and never rebind ``layer.w`` or ``layer.b`` of a network's
layer, since a rebound array is no longer part of ``theta``.

Read-only passes (``predict_proba``) of two chunks or more run in two
lanes when the process may use two CPUs: the calling thread and one helper
thread each forward half of the pass's chunks, at every input size. Layers
keep no per-call state and the read-only mode is per thread
(``layers.training``), so the lanes share the network as it is.

Importing this module fixes glibc malloc's mmap and trim thresholds for
the whole process (``keep_freed_memory``), so the memory a training step
or a read-only pass frees stays in the process for the next one, whoever
calls the library: the CLI, a test or a notebook. It leaves the number of
malloc arenas to the program; ``cli.main`` caps them for its commands.
Importing it also sets numpy's OpenBLAS to one thread (``one_blas_thread``),
so one seed gives the same bytes whatever the environment's thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .layers import SUPPORTED_KERNELS, Conv2d, Dense, GlobalAvgPool, MaxPool2x2, training
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
        if self.kind == "conv" and self.kernel not in SUPPORTED_KERNELS:
            raise ValueError(f"conv kernel must be 1 or 3, got {self.kernel}")
        if self.kind == "maxpool" and self.kernel != 2:
            raise ValueError("maxpool kernel must be 2")
        if self.kind in ("conv", "dense") and self.channels < 1:
            raise ValueError(f"{self.kind} channels must be positive, got {self.channels}")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")


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
        # a dense-only spec composes at any rank, but every grid is HxWxC
        if len(d["input"]) != 3:
            raise ValueError(f"input must be [height, width, channels], got {d['input']!r}")
        # 16.0 == 16, so a float would pass every later check, and a zero
        # size would load and fail later in an unrelated computation
        if not all(type(n) is int and n > 0 for n in (*d["input"], d["classes"])):
            raise ValueError(f"input and classes must be positive integers, "
                             f"got {d['input']!r} and {d['classes']!r}")
        return NetworkSpec(tuple(d["input"]),
                           tuple(LayerSpec(**x) for x in d["layers"]),
                           d["classes"])


def _shape_after(ls, in_shape):
    if ls.kind == "dense":  # flattens whatever it gets
        return (ls.channels,)
    if len(in_shape) != 3:
        raise ValueError(f"{ls.kind} needs a spatial input, got shape {in_shape}")
    h, w, c = in_shape
    if ls.kind == "conv":
        return (h, w, ls.channels)
    if ls.kind == "avgpool":
        return (c,)
    if h % 2 or w % 2:
        raise ValueError(f"odd spatial dims {h}x{w} reach a 2x2 pool")
    return (h // 2, w // 2, c)


def build_classifier(input_size, channel_plan, in_channels=3, classes=4):
    """Assemble the full patch-classifier spec.

    Layout: [3x3 conv stem + 2x2 maxpool] -> three conv blocks of
    (3x3, 1x1, 3x3) at widths ``channel_plan``, with a 2x2 maxpool after
    each of the first two blocks -> global average pool -> dense head.
    The stem is as wide as the first block. ``channel_plan`` has no
    default here: the config's ``network.channel_plan`` owns it
    (``ExperimentConfig.network_spec``).

    ``input_size`` must be divisible by 8: the stem pool and the two trunk
    pools each halve the spatial size and reject odd inputs.
    """
    if input_size % 8 != 0:
        raise ValueError(f"input_size must be divisible by 8 (three 2x2 pools), got {input_size}")
    if len(channel_plan) != 3:
        raise ValueError("channel_plan must have three block widths")
    c1, c2, c3 = channel_plan
    if min(channel_plan) < 1:
        raise ValueError(f"channel widths must be positive integers, got channel_plan "
                         f"{list(channel_plan)}")
    conv = lambda k, c: LayerSpec("conv", k, c, "relu")
    pool = LayerSpec("maxpool", 2)
    layers = (
        conv(3, c1), pool,
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


# Samples per forward() call of a predict_proba pass, for the scoring
# pass, a slide's grid and a whole evaluation split alike, at every input
# size, in one lane or in each of two. On a GEMM kernel that gives each
# column the same bytes however the columns are split (OpenBLAS's SkylakeX
# one), the chunk size and a chunk's other samples never change a
# sample's bytes; on the Haswell and Zen kernels they can (README). The
# chunk size changes the time, as the GEMMs widen with the chunk. One lane of
# plan 8/16/8 (one OpenBLAS thread, a 2-core x86 host, best of 15) took
# 124 us a record at 32 samples of 32x32 against 136 us at 64; at 16x16,
# 37.7 against 37.1 us.
PREDICT_CHUNK = 32

# The second lane. Its one thread starts on the first two-lane pass.
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ral-predict")

# mallopt parameters of glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8

try:  # looked up once: every main() call sets a parameter
    _MALLOPT = ctypes.CDLL(None).mallopt
    _MALLOPT.argtypes = (ctypes.c_int, ctypes.c_int)
except (OSError, AttributeError, TypeError):
    _MALLOPT = None


def mallopt(param, value):
    """Set one parameter of glibc's malloc; does nothing where libc has no mallopt."""
    if _MALLOPT is not None:
        _MALLOPT(param, value)


def keep_freed_memory():
    """Have glibc's malloc keep freed memory in the process for reuse.

    A training step frees a few MB of patch matrices and activations that
    the next step allocates again, and a read-only pass does the same per
    chunk. By default glibc maps blocks above its mmap threshold (128 KiB,
    raised only after a larger mapped block is freed) and unmaps them on
    free, and returns a free heap top above twice that to the OS, so each
    step faults its working memory back in. Fixed thresholds keep blocks
    up to 32 MiB on the heap and up to 64 MiB of free heap in the process.
    """
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


keep_freed_memory()


def one_blas_thread():
    """Run numpy's OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS says.

    OpenBLAS splits a GEMM by its thread count, and the split rounds
    differently: at two threads a desk run removes other records and writes
    other bytes. A second thread made the desk preset no faster, but a
    32/64/32 plan ran about 15% faster at two: that is the price of pinned
    bytes on wider plans. The setter is found through ctypes, under the names
    OpenBLAS builds export (``scipy_`` prefix, ``64_`` suffix), in the
    OpenBLAS libraries that numpy ships or that the process has mapped.
    Where there is none, as when numpy's BLAS is not OpenBLAS, this does
    nothing.
    """
    numpy_dir = Path(np.__file__).parent
    paths = {str(p) for d in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
             for p in d.glob("*openblas*")}
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        paths |= {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (f"{pre}openblas_set_num_threads{suf}"
                     for pre in ("", "scipy_") for suf in ("", "64_")):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = (ctypes.c_int,), None
                fn(1)


one_blas_thread()


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class Network:
    """A NetworkSpec with materialized parameters.

    Initialization is fan-in-scaled uniform with a seeded PRNG and zero
    biases, so identical seeds give bit-identical networks. ``theta`` holds
    every parameter; see the module docstring for its rule.
    """

    def __init__(self, spec: NetworkSpec, seed=0, dtype=np.float32):
        self._build(spec, dtype, np.random.default_rng(seed))

    @classmethod
    def _unfilled(cls, spec, dtype):
        """A network of zero parameters, for a caller that fills ``theta``."""
        net = cls.__new__(cls)
        net._build(spec, dtype, None)
        return net

    def _build(self, spec, dtype, rng):
        self.spec = spec
        self.dtype = dtype
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
                layer = Dense(math.prod(cur), ls.channels, ls.activation, rng, dtype)
            self.layers.append(layer)
        self.theta = np.concatenate([p.reshape(-1) for p in self.parameters()])
        start = 0
        for layer in self.layers:
            if layer.params:
                w, b = layer.params
                layer.w = self.theta[start:start + w.size].reshape(w.shape)
                start += w.size
                layer.b = self.theta[start:start + b.size]
                start += b.size

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

        forward() runs on fixed chunks of samples, and only those samples
        are gathered from batch. The fixed chunks bound the memory a pass
        holds at once, and keep every pass's arithmetic, and so its bytes,
        independent of the caller's batch size. batch is an array, or
        anything with a len() that gathers samples into one array when
        indexed with an index array: ``TrainingSet.images`` for the scoring
        pass, ``slices.SlideCells`` for a slide's grid or all the cells of
        an evaluation split. Gathers must be read-only: a pass of two
        chunks or more, when the process may use two CPUs (``_cpus``),
        runs in two lanes, the calling thread the first half of the chunks
        and the helper thread the second; any other pass runs in the
        caller. An exception in either lane reaches the caller once both
        lanes have stopped.
        """
        rows = np.arange(len(batch)) if rows is None else rows
        starts = range(0, len(rows), PREDICT_CHUNK)

        def run(part):
            return [self.forward(batch[rows[i:i + PREDICT_CHUNK]]) for i in part]

        if len(starts) < 2 or _cpus() < 2:
            return np.concatenate(run(starts))
        half = (len(starts) + 1) // 2
        helper = _HELPER.submit(run, starts[half:])
        try:
            mine = run(starts[:half])
        finally:
            wait([helper])
        return np.concatenate(mine + helper.result())

    def loss_and_grads(self, batch, labels, with_logits=False):
        """Mean cross-entropy over the batch and gradients for parameters()."""
        logits, caches = self.logits(batch, keep_caches=True)
        loss, dx = softmax_cross_entropy_batch(logits, labels)
        grads_rev = []
        for layer in reversed(self.layers):
            # hand the cache over: backward may free it before it returns
            dx, gs = layer.backward(dx, caches.pop())
            grads_rev.extend(reversed(gs))
        grads = list(reversed(grads_rev))
        return (loss, grads, logits) if with_logits else (loss, grads)

    def astype(self, dtype):
        """Copy of this network with parameters converted to dtype."""
        clone = Network._unfilled(self.spec, dtype)
        clone.theta[...] = self.theta
        return clone
