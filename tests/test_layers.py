import numpy as np
import pytest

from ral.nn import Conv2d, GlobalAvgPool, MaxPool2x2
from ral.nn.layers import Dense


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


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 5, 5, 3), dtype=np.float32)
        conv = Conv2d(1, 3, 3, activation="none")
        conv.w = np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)
        conv.b[:] = 0
        y, _ = conv.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 5, 1)).astype(np.float32)
        conv = Conv2d(3, 1, 2, activation="none", rng=rng)
        y, _ = conv.forward(x)
        ref = conv3x3_reference(x.astype(np.float64), conv.w.astype(np.float64),
                                conv.b.astype(np.float64))
        np.testing.assert_allclose(y, ref, atol=1e-6)

    def test_zero_padding_at_borders(self):
        x = np.ones((1, 4, 4, 1), dtype=np.float32)
        conv = Conv2d(3, 1, 1, activation="none")
        conv.w = np.ones((3, 3, 1, 1), dtype=np.float32)
        conv.b[:] = 0
        y, _ = conv.forward(x)
        assert y[0, 1, 1, 0] == pytest.approx(9.0)
        assert y[0, 0, 0, 0] == pytest.approx(4.0)
        assert y[0, 0, 1, 0] == pytest.approx(6.0)

    def test_shape_mismatch_names_both_shapes(self):
        conv = Conv2d(3, 2, 4)
        x = np.zeros((1, 4, 4, 3), dtype=np.float32)
        with pytest.raises(ValueError) as err:
            conv.forward(x)
        assert "(1, 4, 4, 3)" in str(err.value) and "(3, 3, 2, 4)" in str(err.value)

    def test_kernel_restricted(self):
        with pytest.raises(ValueError):
            Conv2d(5, 1, 1)

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("activation", ["none", "relu"])
    def test_backward_matches_direct_loop_oracle(self, kernel, activation):
        rng = np.random.default_rng(8 + kernel)
        x = rng.standard_normal((2, 4, 5, 3)).astype(np.float32)
        conv = Conv2d(kernel, 3, 2, activation=activation, rng=rng)
        conv.b[:] = rng.standard_normal(2).astype(np.float32)
        y, cache = conv.forward(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        dx, (dw, db) = conv.backward(g, cache)
        x64, w64 = x.astype(np.float64), conv.w.astype(np.float64)
        z = conv3x3_reference(x64, w64, conv.b.astype(np.float64))
        ref_dx, ref_dw, ref_db = conv_grads_reference(
            x64, w64, z, g.astype(np.float64), activation == "relu")
        assert dx.shape == x.shape and dw.shape == conv.w.shape
        np.testing.assert_allclose(dx, ref_dx, atol=1e-5)
        np.testing.assert_allclose(dw, ref_dw, atol=1e-5)
        np.testing.assert_allclose(db, ref_db, atol=1e-5)
        conv.input_grad = False
        no_dx, (dw2, db2) = conv.backward(g, cache)
        assert no_dx is None
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)

    def test_forward_finite_on_finite_input(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(3, 3, 8, rng=rng)
        y, _ = conv.forward(rng.random((2, 8, 8, 3), dtype=np.float32))
        assert np.isfinite(y).all()


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 2, 2, 1)
        y, _ = MaxPool2x2().forward(x)
        assert y.reshape(()) == 4.0

    def test_constant_input(self):
        x = np.full((1, 4, 4, 2), 3.5, dtype=np.float32)
        y, _ = MaxPool2x2().forward(x)
        np.testing.assert_array_equal(y, np.full((1, 2, 2, 2), 3.5, dtype=np.float32))

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 8, 8, 2)).astype(np.float32)
        y, _ = MaxPool2x2().forward(x)
        for i in range(4):
            for j in range(4):
                for c in range(2):
                    assert y[0, i, j, c] == x[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 5, 4, 1), dtype=np.float32))

    def test_backward_routes_each_gradient_to_one_cell(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        pool = MaxPool2x2()
        y, cache = pool.forward(x)
        dy = rng.random(y.shape, dtype=np.float32) + 0.1
        dx, _ = pool.backward(dy, cache)
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-6)
        nonzero_per_window = (dx.reshape(2, 3, 2, 3, 2, 3) != 0).sum(axis=(2, 4))
        np.testing.assert_array_equal(nonzero_per_window, np.ones((2, 3, 3, 3)))

    def test_tied_window_routes_to_first_position(self):
        x = np.full((1, 2, 2, 1), 0.5, dtype=np.float32)
        pool = MaxPool2x2()
        _, cache = pool.forward(x)
        dx, _ = pool.backward(np.array([[[[3.0]]]], dtype=np.float32), cache)
        expected = np.zeros((1, 2, 2, 1), dtype=np.float32)
        expected[0, 0, 0, 0] = 3.0
        np.testing.assert_array_equal(dx, expected)


class TestGlobalAvgPool:
    def test_constant(self):
        x = np.full((1, 3, 5, 2), 0.75, dtype=np.float32)
        y, _ = GlobalAvgPool().forward(x)
        np.testing.assert_allclose(y, 0.75)

    def test_single_one(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        x[0, 2, 1, 0] = 1.0
        y, _ = GlobalAvgPool().forward(x)
        assert y[0, 0] == pytest.approx(1.0 / 16.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 6, 4, 3), dtype=np.float32)
        y, _ = GlobalAvgPool().forward(x)
        ref = x.sum(axis=(1, 2), dtype=np.float64) / (6 * 4)
        np.testing.assert_allclose(y, ref, atol=1e-6)

    def test_backward_spreads_uniformly(self):
        x = np.zeros((1, 2, 2, 1), dtype=np.float32)
        pool = GlobalAvgPool()
        _, cache = pool.forward(x)
        dx, _ = pool.backward(np.array([[2.0]], dtype=np.float32), cache)
        np.testing.assert_allclose(dx, 0.5)


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
        y, _ = d.forward(x)
        np.testing.assert_allclose(y, x.reshape(2, -1) @ d.w + d.b, atol=1e-6)
