"""Layer forward/backward kernels.

All image tensors are NHWC float arrays: (batch, height, width, channels).
Layers keep their parameters but no per-call state: ``forward`` returns a
cache that the matching ``backward`` consumes, so read-only passes can run
concurrently over the same layer.

Cache contract: a cache is a tuple, and the bool arrays in it are exactly
the layer's activation pattern (the ReLU mask of a conv or dense layer, the
routing mask of a max pool). ``gradcheck._signature`` reads those arrays to
detect finite-difference steps that cross a kink, so a layer must keep its
pattern there as a bool array and put no other bool or integer array in
its cache.

Convolution is unfolded into one matrix multiply (Chellapilla, Puri &
Simard, "High Performance Convolutional Neural Networks for Document
Processing", IWFHR 2006): every k x k input window becomes one row of a
patch matrix, and the layer's weights one (k*k*Cin, Cout) matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SUPPORTED_KERNELS = (1, 3)


def _relu(z):
    return np.maximum(z, 0)


def _im2col(x, k):
    """(B, H, W, C) -> (B*H*W, k*k*C) patch matrix of zero-padded k x k windows.

    Row (b, y, x) holds the window centred on pixel (y, x) of image b, in
    (di, dj, c) order, so it lines up with ``w.reshape(k * k * C, F)``.
    """
    B, H, W, C = x.shape
    if k == 1:
        return x.reshape(B * H * W, C)
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    # the k pixels of one window row are k*C consecutive values of an
    # image row, so windows are taken over flattened rows, one per pixel
    rows = xp.reshape(B, H + 2 * p, (W + 2 * p) * C)
    runs = sliding_window_view(rows, k * C, axis=2)[:, :, ::C]   # (B, H+2p, W, k*C)
    win = sliding_window_view(runs, k, axis=1)                   # (B, H, W, k*C, k)
    return win.transpose(0, 1, 2, 4, 3).reshape(B * H * W, k * k * C)


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
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(
                f"conv input shape {tuple(x.shape)} does not match weights "
                f"{tuple(self.w.shape)} (expected {self.in_channels} channels)")
        B, H, W, _ = x.shape
        cols = _im2col(x, self.kernel)
        z = cols @ self.w.reshape(-1, self.out_channels)
        z += self.b
        z = z.reshape(B, H, W, self.out_channels)
        if self.activation == "relu":
            mask = z > 0
            return np.maximum(z, 0, out=z), (cols, mask, x.shape)
        return z, (cols, None, x.shape)

    def backward(self, dy, cache):
        """Input gradient (None unless ``input_grad``) and [dw, db].

        dx is the "full" correlation of dz with the kernel turned by 180
        degrees and its channel axes swapped, so it is one more patch-matrix
        product, over the zero-padded dz.
        """
        cols, mask, in_shape = cache
        dz = dy * mask if mask is not None else dy
        k, cout = self.kernel, self.out_channels
        dz2 = dz.reshape(-1, cout)
        dw = (cols.T @ dz2).reshape(self.w.shape)
        db = dz2.sum(axis=0)
        if not self.input_grad:
            return None, [dw, db]
        w_flip = self.w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, self.in_channels)
        dx = (_im2col(dz, k) @ w_flip).reshape(in_shape)
        return dx, [dw, db]

    def output_shape(self, in_shape):
        h, w, c = in_shape
        if c != self.in_channels:
            raise ValueError(f"conv expects {self.in_channels} input channels, layer input is {in_shape}")
        return (h, w, self.out_channels)


class MaxPool2x2:
    """Disjoint 2x2 max pooling, stride 2. Input height/width must be even.

    The backward pass routes each upstream gradient to exactly one input
    cell per window (the argmax; ties broken to the first position).
    """

    @property
    def params(self):
        return []

    def forward(self, x):
        B, H, W, C = x.shape
        if H % 2 or W % 2:
            raise ValueError(f"maxpool2x2 requires even spatial dims, got {H}x{W}")
        win = x.reshape(B, H // 2, 2, W // 2, 2, C)
        # the same values as win.max(axis=(2, 4)), without a strided reduction
        y = np.maximum(np.maximum(win[:, :, 0, :, 0], win[:, :, 0, :, 1]),
                       np.maximum(win[:, :, 1, :, 0], win[:, :, 1, :, 1]))
        route = win == y[:, :, None, :, None, :]
        # keep only the first maximum of each window, in row-major order
        taken = route[:, :, 0, :, 0].copy()
        for a, b in ((0, 1), (1, 0), (1, 1)):
            cell = route[:, :, a, :, b]
            cell &= ~taken
            taken |= cell
        return y, (route,)

    def backward(self, dy, cache):
        (route,) = cache
        B, H2, _, W2, _, C = route.shape
        dx = route * dy[:, :, None, :, None, :]
        return dx.reshape(B, 2 * H2, 2 * W2, C), []

    def output_shape(self, in_shape):
        h, w, c = in_shape
        if h % 2 or w % 2:
            raise ValueError(f"maxpool2x2 requires even spatial dims, got {h}x{w}")
        return (h // 2, w // 2, c)


class GlobalAvgPool:
    """Channel-wise mean over all spatial positions: (B,H,W,C) -> (B,C)."""

    @property
    def params(self):
        return []

    def forward(self, x):
        B, H, W, C = x.shape
        return x.mean(axis=(1, 2)), (H, W)

    def backward(self, dy, cache):
        H, W = cache
        dx = np.repeat(np.repeat(dy[:, None, None, :], H, axis=1), W, axis=2) / (H * W)
        return dx, []

    def output_shape(self, in_shape):
        return (in_shape[2],)


class Dense:
    """Fully-connected layer. Flattens any non-batch dims of its input."""

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
        x2 = x.reshape(x.shape[0], -1)
        if x2.shape[1] != self.in_features:
            raise ValueError(
                f"dense input shape {tuple(x.shape)} flattens to {x2.shape[1]} features, "
                f"weights expect {self.in_features}")
        z = x2 @ self.w + self.b
        if self.activation == "relu":
            return _relu(z), (x2, x.shape, z > 0)
        return z, (x2, x.shape, None)

    def backward(self, dy, cache):
        x2, in_shape, mask = cache
        dz = dy * mask if mask is not None else dy
        dw = x2.T @ dz
        db = dz.sum(axis=0)
        dx = (dz @ self.w.T).reshape(in_shape)
        return dx, [dw, db]

    def output_shape(self, in_shape):
        flat = int(np.prod(in_shape))
        if flat != self.in_features:
            raise ValueError(f"dense expects {self.in_features} features, layer input is {in_shape}")
        return (self.units,)
