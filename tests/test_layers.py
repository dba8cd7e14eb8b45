import tracemalloc

import numpy as np
import pytest

from ral.nn import Conv2d, GlobalAvgPool, MaxPool2x2
from ral.nn.layers import Dense, training

# The layers pass activations channel-major, (C, B, H, W). The oracles
# below stay in NHWC; tests transpose at the boundary.


def cm(x):
    """NHWC -> channel-major."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2))


def nhwc(x):
    """Channel-major -> NHWC."""
    return x.transpose(1, 2, 3, 0)


def conv3x3_reference(x, w, b):
    # direct triple-loop convolution with zero padding, the independent oracle
    B, H, W, Cin = x.shape
    k, _, _, F = w.shape
    p = k // 2
    out = np.zeros((B, H, W, F))
    for n in range(B):
        for y in range(H):
            for xx in range(W):
                for f in range(F):
                    acc = b[f]
                    for di in range(k):
                        for dj in range(k):
                            yy, xj = y + di - p, xx + dj - p
                            if 0 <= yy < H and 0 <= xj < W:
                                for c in range(Cin):
                                    acc += x[n, yy, xj, c] * w[di, dj, c, f]
                    out[n, y, xx, f] = acc
    return out


def conv_grads_reference(x, w, z, g, relu):
    # direct-loop gradients of the scalar loss sum(g * conv(x)) with respect
    # to x, w and b; z is the pre-activation output from the forward oracle
    B, H, W, Cin = x.shape
    k, _, _, F = w.shape
    p = k // 2
    dz = g * (z > 0) if relu else g
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = np.zeros(F)
    for n in range(B):
        for y in range(H):
            for xx in range(W):
                for f in range(F):
                    db[f] += dz[n, y, xx, f]
                    for di in range(k):
                        for dj in range(k):
                            yy, xj = y + di - p, xx + dj - p
                            if 0 <= yy < H and 0 <= xj < W:
                                for c in range(Cin):
                                    dx[n, yy, xj, c] += dz[n, y, xx, f] * w[di, dj, c, f]
                                    dw[di, dj, c, f] += dz[n, y, xx, f] * x[n, yy, xj, c]
    return dx, dw, db


def check_conv_against_oracle(shape, kernel, activation, seed):
    """Forward, dx, dw and db of a conv on NHWC input `shape` against the
    direct loops; with input_grad off, the same dw and db and no dx."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    conv = Conv2d(kernel, shape[3], 2, activation=activation, rng=rng)
    conv.b[:] = rng.standard_normal(2).astype(np.float32)
    y, cache = conv.forward(cm(x))
    g = rng.standard_normal(nhwc(y).shape).astype(np.float32)
    dx, (dw, db) = conv.backward(cm(g), cache)
    x64, w64 = x.astype(np.float64), conv.w.astype(np.float64)
    z = conv3x3_reference(x64, w64, conv.b.astype(np.float64))
    relu = activation == "relu"
    np.testing.assert_allclose(nhwc(y), np.maximum(z, 0) if relu else z, atol=1e-5)
    ref_dx, ref_dw, ref_db = conv_grads_reference(x64, w64, z, g.astype(np.float64), relu)
    assert nhwc(dx).shape == x.shape and dw.shape == conv.w.shape
    np.testing.assert_allclose(nhwc(dx), ref_dx, atol=1e-5)
    np.testing.assert_allclose(dw, ref_dw, atol=1e-5)
    np.testing.assert_allclose(db, ref_db, atol=1e-5)
    conv.input_grad = False
    no_dx, (dw2, db2) = conv.backward(cm(g), cache)
    assert no_dx is None
    np.testing.assert_array_equal(dw2, dw)
    np.testing.assert_array_equal(db2, db)


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 5, 5, 3), dtype=np.float32)
        conv = Conv2d(1, 3, 3, activation="none")
        conv.w = np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)
        conv.b[:] = 0
        y, _ = conv.forward(cm(x))
        np.testing.assert_array_equal(nhwc(y), x)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 5, 1)).astype(np.float32)
        conv = Conv2d(3, 1, 2, activation="none", rng=rng)
        y, _ = conv.forward(cm(x))
        ref = conv3x3_reference(x.astype(np.float64), conv.w.astype(np.float64),
                                conv.b.astype(np.float64))
        np.testing.assert_allclose(nhwc(y), ref, atol=1e-6)

    def test_zero_padding_at_borders(self):
        x = np.ones((1, 4, 4, 1), dtype=np.float32)
        conv = Conv2d(3, 1, 1, activation="none")
        conv.w = np.ones((3, 3, 1, 1), dtype=np.float32)
        conv.b[:] = 0
        y, _ = conv.forward(cm(x))
        assert y[0, 0, 1, 1] == pytest.approx(9.0)
        assert y[0, 0, 0, 0] == pytest.approx(4.0)
        assert y[0, 0, 0, 1] == pytest.approx(6.0)

    def test_shape_mismatch_names_both_shapes(self):
        conv = Conv2d(3, 2, 4)
        x = np.zeros((3, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError) as err:
            conv.forward(x)
        assert "(3, 1, 4, 4)" in str(err.value) and "(3, 3, 2, 4)" in str(err.value)

    def test_kernel_restricted(self):
        with pytest.raises(ValueError):
            Conv2d(5, 1, 1)

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("activation", ["none", "relu"])
    def test_backward_matches_direct_loop_oracle(self, kernel, activation):
        check_conv_against_oracle((2, 4, 5, 3), kernel, activation, seed=8 + kernel)

    def test_windows_stay_inside_their_row_and_image(self):
        # B = 3 and H != W on random pixels: a flat-shift window that ran
        # into the next row or the next image would read a nonzero pixel
        check_conv_against_oracle((3, 5, 4, 2), 3, "none", seed=12)

    def test_forward_finite_on_finite_input(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(3, 3, 8, rng=rng)
        y, _ = conv.forward(rng.random((3, 2, 8, 8), dtype=np.float32))
        assert np.isfinite(y).all()

    def test_read_only_forward_frees_the_patch_matrix_before_the_output(self):
        # desk's stem: 32 samples of 32x32x3 to 8 channels. Each sample is a
        # 33x33 cell of the pad-1 grid, the grid ends with 34 more zeros,
        # and the patch matrix has 2 * 34 columns fewer than the grid.
        rng = np.random.default_rng(3)
        conv = Conv2d(3, 3, 8, rng=rng)
        x = rng.random((3, 32, 32, 32), dtype=np.float32)
        grid = 32 * 33 * 33
        patches = 9 * 3 * (grid + 34 - 2 * 34) * 4
        gemm = 8 * grid * 4
        output = 8 * 32 * 32 * 32 * 4
        with training(False):
            tracemalloc.start()
            try:
                conv.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # all three alive at once would reach their sum
        assert peak < patches + gemm + output


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        y, _ = MaxPool2x2().forward(x)
        assert y.reshape(()) == 4.0

    def test_constant_input(self):
        x = np.full((2, 1, 4, 4), 3.5, dtype=np.float32)
        y, _ = MaxPool2x2().forward(x)
        np.testing.assert_array_equal(y, np.full((2, 1, 2, 2), 3.5, dtype=np.float32))

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 6, 2)).astype(np.float32)
        y = nhwc(MaxPool2x2().forward(cm(x))[0])
        for n in range(2):
            for i in range(4):
                for j in range(3):
                    for c in range(2):
                        assert y[n, i, j, c] == x[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 1, 5, 4), dtype=np.float32))

    def test_backward_routes_each_gradient_to_one_cell(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        pool = MaxPool2x2()
        y, cache = pool.forward(cm(x))
        dy = rng.random(y.shape, dtype=np.float32) + 0.1
        dx = nhwc(pool.backward(dy, cache)[0])
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-6)
        nonzero_per_window = (dx.reshape(2, 3, 2, 3, 2, 3) != 0).sum(axis=(2, 4))
        np.testing.assert_array_equal(nonzero_per_window, np.ones((2, 3, 3, 3)))
        # each cell that gets a gradient holds its window's maximum
        winners = dx != 0
        np.testing.assert_array_equal(
            x[winners], np.repeat(np.repeat(nhwc(y), 2, axis=1), 2, axis=2)[winners])

    def test_tied_window_routes_to_first_position(self):
        # four windows side by side; each routes to its first maximum in
        # row-major order, whatever the other tied cells are
        windows = [([[0.5, 0.5], [0.5, 0.5]], (0, 0)),
                   ([[1.0, 2.0], [2.0, 0.0]], (0, 1)),
                   ([[0.0, 1.0], [1.0, 1.0]], (0, 1)),
                   ([[0.0, 0.0], [1.0, 1.0]], (1, 0))]
        x = np.concatenate([np.array(w, dtype=np.float32) for w, _ in windows], axis=1)
        pool = MaxPool2x2()
        _, cache = pool.forward(x[None, None])
        dx, _ = pool.backward(np.full((1, 1, 1, 4), 3.0, dtype=np.float32), cache)
        expected = np.zeros((2, 8), dtype=np.float32)
        for j, (_, (r, c)) in enumerate(windows):
            expected[r, 2 * j + c] = 3.0
        np.testing.assert_array_equal(dx[0, 0], expected)


class TestGlobalAvgPool:
    def test_constant(self):
        x = np.full((2, 1, 3, 5), 0.75, dtype=np.float32)
        y, _ = GlobalAvgPool().forward(x)
        assert y.shape == (1, 2)
        np.testing.assert_allclose(y, 0.75)

    def test_single_one(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        x[0, 2, 1, 0] = 1.0
        y, _ = GlobalAvgPool().forward(cm(x))
        assert y[0, 0] == pytest.approx(1.0 / 16.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 6, 4, 3), dtype=np.float32)
        y, _ = GlobalAvgPool().forward(cm(x))
        ref = x.sum(axis=(1, 2), dtype=np.float64) / (6 * 4)
        np.testing.assert_allclose(y, ref, atol=1e-6)

    def test_backward_spreads_uniformly(self):
        x = np.zeros((2, 1, 2, 3), dtype=np.float32)
        pool = GlobalAvgPool()
        _, cache = pool.forward(x)
        dx, _ = pool.backward(np.array([[2.0, 6.0]], dtype=np.float32), cache)
        assert dx.shape == x.shape
        np.testing.assert_allclose(dx[0], 2.0 / 6)
        np.testing.assert_allclose(dx[1], 6.0 / 6)


class TestDense:
    def test_matches_matmul(self):
        rng = np.random.default_rng(6)
        d = Dense(6, 3, rng=rng)
        x = rng.random((4, 6), dtype=np.float32)
        y, _ = d.forward(x)
        np.testing.assert_allclose(y, x @ d.w + d.b, atol=1e-6)

    def test_flattens_spatial_input(self):
        rng = np.random.default_rng(7)
        d = Dense(2 * 2 * 3, 5, rng=rng)
        x = rng.random((2, 2, 2, 3), dtype=np.float32)
        # channel-major input flattens in NHWC order, so weights keep their meaning
        y, cache = d.forward(cm(x))
        np.testing.assert_allclose(y, x.reshape(2, -1) @ d.w + d.b, atol=1e-6)
        dy = rng.random((2, 5), dtype=np.float32)
        dx, _ = d.backward(dy, cache)
        np.testing.assert_allclose(nhwc(dx), (dy @ d.w.T).reshape(x.shape), atol=1e-6)
        # a spatial input of another size flattens to a count the weights do not take
        with pytest.raises(ValueError, match=r"^dense input shape \(3, 2, 2, 1\) flattens to "
                                             r"6 features, weights expect 12$"):
            d.forward(cm(x[:, :, :1]))


def layer_cases():
    """(layer, channel-major input) for each layer kind and activation."""
    rng = np.random.default_rng(11)
    x = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    return [
        (Conv2d(3, 3, 4, rng=rng), x(3, 2, 6, 8)),
        (Conv2d(1, 3, 4, rng=rng), x(3, 2, 6, 8)),
        (Conv2d(3, 3, 4, activation="none", rng=rng), x(3, 2, 6, 8)),
        (MaxPool2x2(), x(3, 2, 6, 8)),
        (GlobalAvgPool(), x(3, 2, 6, 8)),
        (Dense(6 * 8 * 3, 5, rng=rng), x(3, 2, 6, 8)),
        (Dense(6, 5, activation="relu", rng=rng), x(4, 6)),
    ]


class TestReadOnlyForward:
    @pytest.mark.parametrize("case", range(len(layer_cases())))
    def test_same_output_and_no_cache(self, case):
        layer, x = layer_cases()[case]
        y, cache = layer.forward(x)
        assert cache is not None
        with training(False):
            y_ro, cache_ro = layer.forward(x)
        np.testing.assert_array_equal(y_ro, y)
        assert y_ro.dtype == y.dtype
        assert cache_ro is None

    def test_training_context_is_scoped(self):
        layer, x = layer_cases()[3]
        with training(False):
            assert layer.forward(x)[1] is None
            with training(True):
                assert layer.forward(x)[1] is not None
            assert layer.forward(x)[1] is None
        assert layer.forward(x)[1] is not None
        with pytest.raises(RuntimeError):
            with training(False):
                raise RuntimeError("inside")
        assert layer.forward(x)[1] is not None
