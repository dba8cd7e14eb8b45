"""Layer forward/backward kernels.

Between layers, image tensors are channel-major float arrays: (channels,
batch, height, width). ``Network.logits`` transposes its NHWC batch once
at entry, ``GlobalAvgPool`` returns (batch, channels), and ``Dense``
flattens a 4-D input in (height, width, channel) order, the order of an
NHWC flatten, so dense weights mean the same in either layout. Layers
keep their parameters but no per-call state: ``forward`` returns a cache
that the matching ``backward`` consumes, so read-only passes can run
concurrently over the same layer.

``forward(x)`` runs a training forward, or inside a ``training(False)``
block a read-only one. A read-only forward computes the same output
bytes, builds nothing that only ``backward`` reads, and returns None as
its cache: the max-pool routing and the ReLU masks exist only in
training, and only training keeps the conv patch matrix.

Cache contract: a training cache is a tuple, and the bool arrays in it are
exactly the layer's activation pattern (the ReLU mask of a conv or dense
layer; for a max pool, the row and the column of each window's winner,
and nothing about the cells that lost). ``gradcheck._signature`` reads
those arrays to detect finite-difference steps that cross a kink, so a
layer must keep its pattern there as bool arrays and put no other bool or
integer array in its cache.

Convolution is unfolded into one matrix multiply (Chellapilla, Puri &
Simard, "High Performance Convolutional Neural Networks for Document
Processing", IWFHR 2006): every k x k input window becomes one column of
a patch matrix, and the layer's weights one (Cout, k*k*Cin) matrix. The
zero-padded planes are flattened to (Cin, n) (see ``_grid``); the output
pixel at flat position q then reads window cell (di, dj) at q + di*Wq + dj,
Wq being the padded row length, so each (di, dj) block of the patch
matrix is one contiguous slice of the flat planes ("flat shift"). Columns
whose position falls in the padding compute values that are cropped away.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

SUPPORTED_KERNELS = (1, 3)

_TRAINING = contextvars.ContextVar("training", default=True)


@contextlib.contextmanager
def training(train):
    """Run the forwards called inside, in this thread, in training mode or
    (``train`` false) read-only; outside any block, forwards train.

    The mode is a context, not an argument, so that every layer is called
    as ``forward(x)``: a wrapper that instruments a layer's forward (as the
    benchmark's tracer and its corrupted-kernel checks do) sees read-only
    passes through the same signature as training ones.
    """
    token = _TRAINING.set(bool(train))
    try:
        yield
    finally:
        _TRAINING.reset(token)


def _relu(z):
    return np.maximum(z, 0)


def _grid(shape, p, dtype):
    """Zeroed padded planes for (C, B, H, W) images, flattened, and the view
    of them that holds the pixels.

    Every image row is preceded by p zeros and every image by p zero rows.
    Those zeros also pad the row or the image before them, and a tail of p
    rows and p zeros pads the last one, so each image is one (H + p, W + p)
    cell of the grid and pixel (y, x) sits at cell position (y + p, x + p).
    """
    C, B, H, W = shape
    Hq, Wq = H + p, W + p
    flat = np.zeros((C, B * Hq * Wq + p * Wq + p), dtype)
    return flat, flat[:, :B * Hq * Wq].reshape(C, B, Hq, Wq)[:, :, p:, p:]


def _flat_shift(flat, k, Wq):
    """(C, n) flattened grid -> (k*k*C, L) patch matrix.

    Column q is the k x k window whose top-left cell is flat position q,
    rows in (di, dj, c) order, so it lines up with ``w.reshape(k * k * C,
    F)``. L ends with the last image's last window.
    """
    if k == 1:
        return flat
    C = flat.shape[0]
    length = flat.shape[1] - (k - 1) * (Wq + 1)
    cols = np.empty((k * k * C, length), flat.dtype)
    for di in range(k):
        for dj in range(k):
            row, shift = (di * k + dj) * C, di * Wq + dj
            cols[row:row + C] = flat[:, shift:shift + length]
    return cols


def _grid_product(w2, cols, shape, p):
    """w2 @ cols laid out on the grid of (F, B, H, W) outputs with pad p,
    as a (F, B, H, W) view.

    The GEMM writes into a preallocated (F, B*(H+p)*(W+p)) buffer, so that
    its result reshapes to the grid without a copy; the view crops it.
    """
    F, B, H, W = shape
    buf = np.empty((F, B * (H + p) * (W + p)), np.result_type(w2, cols))
    np.matmul(w2, cols, out=buf[:, :cols.shape[1]])
    return buf.reshape(F, B, H + p, W + p)[:, :, :H, :W]


class Conv2d:
    """Stride-1 convolution with zero "same" padding and optional fused ReLU.

    Weights have shape (k, k, in_channels, out_channels); spatial size is
    preserved, so only pooling layers downsample. With ``input_grad`` off,
    backward returns None for the input gradient and skips its GEMM; a
    network turns it off for its first layer, whose input is the data.
    """

    def __init__(self, kernel, in_channels, out_channels, activation="relu",
                 rng=None, dtype=np.float32, input_grad=True):
        if kernel not in SUPPORTED_KERNELS:
            raise ValueError(f"conv kernel must be one of {SUPPORTED_KERNELS}, got {kernel}")
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.activation = activation
        self.input_grad = input_grad
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = kernel * kernel * in_channels
        limit = np.sqrt(6.0 / fan_in)
        self.w = rng.uniform(-limit, limit, size=(kernel, kernel, in_channels, out_channels)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)

    @property
    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ValueError(
                f"conv input shape {tuple(x.shape)} does not match weights "
                f"{tuple(self.w.shape)} (expected {self.in_channels} channels first)")
        k, F = self.kernel, self.out_channels
        C, B, H, W = x.shape
        p = k // 2
        if p:
            flat, pixels = _grid(x.shape, p, x.dtype)
            pixels[...] = x
        else:
            flat = x.reshape(C, -1)
        cols = _flat_shift(flat, k, W + p)
        z = np.empty((F, B, H, W), np.result_type(x, self.w))
        np.add(_grid_product(self.w.reshape(-1, F).T, cols, z.shape, p),
               self.b[:, None, None, None], out=z)
        if not _TRAINING.get():
            if self.activation == "relu":
                np.maximum(z, 0, out=z)
            return z, None
        if self.activation == "relu":
            mask = z > 0
            return np.maximum(z, 0, out=z), (cols, mask)
        return z, (cols, None)

    def backward(self, dy, cache):
        """Input gradient (None unless ``input_grad``) and [dw, db].

        dz is written once into a zeroed grid laid out like the input's.
        Shifted by p*(W+p) + p it lines up with the patch matrix's columns
        (zero wherever a column lies in the padding), which gives dw; dx is
        the "full" correlation of dz with the kernel turned by 180 degrees
        and its channel axes swapped, the same flat-shift product over it.
        """
        cols, mask = cache
        k, F = self.kernel, self.out_channels
        p = k // 2
        _, B, H, W = dy.shape
        flat, dz = _grid(dy.shape, p, dy.dtype)
        if mask is not None:
            np.multiply(dy, mask, out=dz)
        else:
            dz[...] = dy
        shift = p * (W + p) + p
        dw = (cols @ flat[:, shift:shift + cols.shape[1]].T).reshape(self.w.shape)
        db = dz.sum(axis=(1, 2, 3))
        if not self.input_grad:
            return None, [dw, db]
        w_flip = self.w[::-1, ::-1].transpose(2, 0, 1, 3).reshape(self.in_channels, -1)
        dx = _grid_product(w_flip, _flat_shift(flat, k, W + p), (self.in_channels, B, H, W), p)
        return dx, [dw, db]


class MaxPool2x2:
    """Disjoint 2x2 max pooling, stride 2. Input height/width must be even.

    The maximum is taken in two pairwise stages, across each window row
    and then between the two rows; each stage keeps its first operand on a
    tie, so the winner is the window's first maximum in row-major order.
    The backward pass routes each upstream gradient to that one cell.
    """

    @property
    def params(self):
        return []

    def forward(self, x):
        C, B, H, W = x.shape
        if H % 2 or W % 2:
            raise ValueError(f"maxpool2x2 requires even spatial dims, got {H}x{W}")
        pairs = x.reshape(C, B, H, W // 2, 2)
        left, right = pairs[..., 0], pairs[..., 1]
        if not _TRAINING.get():
            rows = np.maximum(left, right).reshape(C, B, H // 2, 2, W // 2)
            return np.maximum(rows[:, :, :, 0], rows[:, :, :, 1]), None
        # training allocates in this order; a reordering alone moved a desk
        # refinement's peak RSS by 0.2 MB
        left_wins = (left >= right).reshape(C, B, H // 2, 2, W // 2)
        rows = np.maximum(left, right).reshape(C, B, H // 2, 2, W // 2)
        top, bottom = rows[:, :, :, 0], rows[:, :, :, 1]
        top_wins = top >= bottom
        # the column comparison of the winning row only, so that a losing
        # row's own comparison never reaches the cache; on bools, a > b is
        # a & ~b, and this is np.where(top_wins, top's, bottom's) unrolled
        left_col = (top_wins & left_wins[:, :, :, 0]) | (left_wins[:, :, :, 1] > top_wins)
        return np.maximum(top, bottom), (top_wins, left_col)

    def backward(self, dy, cache):
        top_wins, left_col = cache
        C, B, H2, W2 = dy.shape
        # route dy to its column of the window, then to its row; each
        # stage's second half is what the first half did not take
        cols = np.empty((C, B, H2, W2, 2), dy.dtype)
        np.multiply(dy, left_col, out=cols[..., 0])
        np.subtract(dy, cols[..., 0], out=cols[..., 1])
        cols = cols.reshape(C, B, H2, 2 * W2)
        top = np.repeat(top_wins, 2, axis=3)
        dx = np.empty((C, B, H2, 2, 2 * W2), dy.dtype)
        np.multiply(cols, top, out=dx[:, :, :, 0])
        np.subtract(cols, dx[:, :, :, 0], out=dx[:, :, :, 1])
        return dx.reshape(C, B, 2 * H2, 2 * W2), []


class GlobalAvgPool:
    """Channel-wise mean over all spatial positions: (C,B,H,W) -> (B,C)."""

    @property
    def params(self):
        return []

    def forward(self, x):
        C, B, H, W = x.shape
        return x.mean(axis=(2, 3)).T, ((H, W) if _TRAINING.get() else None)

    def backward(self, dy, cache):
        H, W = cache
        dx = np.empty(dy.T.shape + (H, W), dy.dtype)
        dx[...] = (dy.T / (H * W))[:, :, None, None]
        return dx, []


class Dense:
    """Fully-connected layer over (B, features) or channel-major (C, B, H, W)
    input; the latter is flattened in (h, w, c) order."""

    def __init__(self, in_features, units, activation="none", rng=None, dtype=np.float32):
        self.in_features = in_features
        self.units = units
        self.activation = activation
        rng = rng if rng is not None else np.random.default_rng(0)
        limit = np.sqrt(6.0 / in_features)
        self.w = rng.uniform(-limit, limit, size=(in_features, units)).astype(dtype)
        self.b = np.zeros(units, dtype=dtype)

    @property
    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        if x.ndim == 4:
            x2 = x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)
        else:
            x2 = x.reshape(x.shape[0], -1)
        if x2.shape[1] != self.in_features:
            raise ValueError(
                f"dense input shape {tuple(x.shape)} flattens to {x2.shape[1]} features, "
                f"weights expect {self.in_features}")
        z = x2 @ self.w + self.b
        if not _TRAINING.get():
            return (_relu(z) if self.activation == "relu" else z), None
        if self.activation == "relu":
            return _relu(z), (x2, x.shape, z > 0)
        return z, (x2, x.shape, None)

    def backward(self, dy, cache):
        x2, in_shape, mask = cache
        dz = dy * mask if mask is not None else dy
        dw = x2.T @ dz
        db = dz.sum(axis=0)
        dx = dz @ self.w.T
        if len(in_shape) == 4:
            C, B, H, W = in_shape
            return dx.reshape(B, H, W, C).transpose(3, 0, 1, 2), [dw, db]
        return dx.reshape(in_shape), [dw, db]
