import numpy as np

from ral.nn import (Conv2d, LayerSpec, Network, NetworkSpec, build_classifier,
                    gradient_check)
from ral.nn.gradcheck import _signature


def make_batch(shape, seed, n_classes=4):
    rng = np.random.default_rng(seed)
    x = rng.random((4,) + shape, dtype=np.float32)
    labels = rng.integers(0, n_classes, size=4)
    return x, labels


def test_linear_model_near_exact():
    spec = NetworkSpec((3, 3, 2), (LayerSpec("dense", channels=4),), 4)
    net = Network(spec, seed=1)
    x, labels = make_batch((3, 3, 2), seed=1)
    report = gradient_check(net, x, labels, h=1e-3)
    assert report.ok, report.summary()
    assert report.max_rel_err < 1e-6


def test_small_conv_net():
    spec = NetworkSpec(
        (8, 8, 3),
        (LayerSpec("conv", 3, 4, "relu"), LayerSpec("maxpool", 2),
         LayerSpec("avgpool"), LayerSpec("dense", channels=4)),
        4)
    net = Network(spec, seed=2)
    x, labels = make_batch((8, 8, 3), seed=2)
    report = gradient_check(net, x, labels, h=1e-3, tol=1e-4)
    assert report.ok, report.summary()


def test_full_classifier_shape():
    net = Network(build_classifier(8, (2, 4, 2)), seed=3)
    x, labels = make_batch((8, 8, 3), seed=3)
    report = gradient_check(net, x, labels, h=1e-3, tol=1e-4, max_coords=24)
    assert report.ok, report.summary()


def test_identical_filters_get_identical_gradients_on_zero_batch():
    spec = NetworkSpec(
        (4, 4, 1),
        (LayerSpec("conv", 3, 2, "relu"), LayerSpec("avgpool"),
         LayerSpec("dense", channels=4)),
        4)
    net = Network(spec, seed=4)
    conv = net.layers[0]
    assert isinstance(conv, Conv2d)
    conv.w[..., 1] = conv.w[..., 0]  # two identical filters
    x = np.zeros((3, 4, 4, 1), dtype=np.float32)
    labels = np.zeros(3, dtype=int)
    _, grads = net.loss_and_grads(x, labels)
    dw = grads[0]
    np.testing.assert_array_equal(dw[..., 0], dw[..., 1])


def test_report_flags_broken_gradient(monkeypatch):
    from ral.nn.layers import Dense

    spec = NetworkSpec((3, 3, 1), (LayerSpec("dense", channels=2),), 2)
    net = Network(spec, seed=5)
    real_backward = Dense.backward

    def broken_backward(self, dy, cache):
        dx, (dw, db) = real_backward(self, dy, cache)
        return dx, [dw * 2.0, db]  # wrong scale on purpose

    monkeypatch.setattr(Dense, "backward", broken_backward)
    x, labels = make_batch((3, 3, 1), seed=6, n_classes=2)
    report = gradient_check(net, x, labels)
    assert not report.ok
    assert any(not t.ok for t in report.tensors)


def test_signature_tracks_pool_winner():
    # 1x1 identity conv with ReLU, then a pool: on a positive input every
    # ReLU mask is all-true, so only the pool's routing can move the signature
    spec = NetworkSpec(
        (4, 4, 1),
        (LayerSpec("conv", 1, 1, "relu"), LayerSpec("maxpool", 2),
         LayerSpec("avgpool"), LayerSpec("dense", channels=2)),
        2)
    net = Network(spec, seed=7)
    net.layers[0].w[:] = 1.0
    x = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4, 1)

    def signature(batch):
        _, caches = net.logits(batch, keep_caches=True)
        return _signature(caches)

    base = signature(x)
    loser_moved = x.copy()
    loser_moved[0, 0, 0, 0] += 0.5  # 1.5 still loses to 6 in its window
    assert signature(loser_moved) == base
    # window (1, 2; 5, 6) with 1 -> 3: the top row's own comparison flips,
    # but 6 still wins, and only winners may reach the signature
    row_flipped = x.copy()
    row_flipped[0, 0, 0, 0] = 3.0
    assert signature(row_flipped) == base
    winner_changed = x.copy()
    winner_changed[0, 0, 0, 0] = 100.0
    assert signature(winner_changed) != base
