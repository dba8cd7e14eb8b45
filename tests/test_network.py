import numpy as np
import pytest

from ral.nn import (LayerSpec, Network, NetworkSpec, TRUNK_SLICE,
                    build_classifier, load_checkpoint, save_checkpoint,
                    softmax)
from ral.nn.network import PREDICT_CHUNK

FULL_SCALE_TRUNK = [
    ("conv", 3, 128), ("conv", 1, 128), ("conv", 3, 128),
    ("maxpool", 2, 0),
    ("conv", 3, 256), ("conv", 1, 256), ("conv", 3, 256),
    ("maxpool", 2, 0),
    ("conv", 3, 128), ("conv", 1, 128), ("conv", 3, 128),
]


def test_full_scale_trunk_layout():
    spec = build_classifier(512, (128, 256, 128))
    trunk = spec.layers[TRUNK_SLICE]
    assert [(l.kind, l.kernel, l.channels) for l in trunk] == FULL_SCALE_TRUNK
    # every conv in the assembly carries ReLU, pools and the head do not
    for l in spec.layers:
        assert l.activation == ("relu" if l.kind == "conv" else "none")


def test_scaled_plan_keeps_structure():
    big = build_classifier(512, (128, 256, 128))
    small = build_classifier(32, (4, 8, 4))
    assert [l.kind for l in big.layers] == [l.kind for l in small.layers]
    assert [l.kernel for l in big.layers] == [l.kernel for l in small.layers]
    widths = [l.channels for l in small.layers if l.kind == "conv"]
    assert widths == [4, 4, 4, 4, 8, 8, 8, 4, 4, 4]


def test_shape_composition():
    spec = build_classifier(32, (4, 8, 4))
    shapes = spec.output_shapes()
    # oracle: propagate shapes by the layer rules, independently of validate()
    cur = (32, 32, 3)
    expected = []
    for l in spec.layers:
        if l.kind == "conv":
            cur = (cur[0], cur[1], l.channels)
        elif l.kind == "maxpool":
            cur = (cur[0] // 2, cur[1] // 2, cur[2])
        elif l.kind == "avgpool":
            cur = (cur[2],)
        else:
            cur = (l.channels,)
        expected.append(cur)
    assert shapes == expected
    assert shapes[-1] == (4,)


def test_indivisible_input_rejected():
    with pytest.raises(ValueError):
        build_classifier(100, (4, 8, 4))


def test_pool_rejects_odd_shape_at_spec_level():
    spec = NetworkSpec((6, 6, 1),
                       (LayerSpec("maxpool", 2), LayerSpec("maxpool", 2),
                        LayerSpec("avgpool"), LayerSpec("dense", channels=2)),
                       2)
    with pytest.raises(ValueError, match="odd spatial"):
        spec.output_shapes()


def test_forward_rows_are_probabilities():
    net = Network(build_classifier(16, (2, 4, 2)), seed=3)
    rng = np.random.default_rng(0)
    probs = net.forward(rng.random((5, 16, 16, 3), dtype=np.float32))
    assert probs.shape == (5, 4)
    assert (probs >= 0).all() and (probs <= 1).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_batch_independence():
    net = Network(build_classifier(16, (2, 4, 2)), seed=4)
    rng = np.random.default_rng(1)
    x = rng.random((1, 16, 16, 3), dtype=np.float32)
    single = net.forward(x)
    doubled = net.forward(np.concatenate([x, x]))
    np.testing.assert_allclose(doubled[0], single[0], atol=1e-6)
    np.testing.assert_allclose(doubled[1], doubled[0], atol=1e-6)


def test_tiny_net_matches_hand_composition():
    spec = NetworkSpec((4, 4, 3),
                       (LayerSpec("conv", 1, 5, "relu"), LayerSpec("avgpool"),
                        LayerSpec("dense", channels=4)),
                       4)
    net = Network(spec, seed=9)
    conv, _, dense = net.layers
    rng = np.random.default_rng(2)
    x = rng.random((3, 4, 4, 3), dtype=np.float32)
    hidden = np.maximum(x @ conv.w[0, 0] + conv.b, 0)
    logits = hidden.mean(axis=(1, 2)) @ dense.w + dense.b
    np.testing.assert_allclose(net.forward(x), softmax(logits), atol=1e-5)


def test_conv_pool_dense_matches_hand_composed_nhwc():
    # no avgpool: the dense layer sees the pooled map itself, so its weights
    # must read it in NHWC flatten order, as checkpoints were written
    spec = NetworkSpec((4, 6, 2),
                       (LayerSpec("conv", 3, 3, "relu"), LayerSpec("maxpool", 2),
                        LayerSpec("dense", channels=4)),
                       4)
    net = Network(spec, seed=10)
    conv, _, dense = net.layers
    conv.b[:] = [0.1, -0.2, 0.3]
    rng = np.random.default_rng(6)
    x = rng.random((3, 4, 6, 2))
    w = conv.w.astype(np.float64)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    z = sum(xp[:, di:di + 4, dj:dj + 6, :] @ w[di, dj]
            for di in range(3) for dj in range(3)) + conv.b
    pooled = np.maximum(z, 0).reshape(3, 2, 2, 3, 2, 3).max(axis=(2, 4))
    logits = pooled.reshape(3, -1) @ dense.w.astype(np.float64) + dense.b
    np.testing.assert_allclose(net.forward(x.astype(np.float32)), softmax(logits), atol=1e-6)


def test_zero_weight_dense_only_bias_gradient():
    spec = NetworkSpec((2, 2, 1), (LayerSpec("dense", channels=4),), 4)
    net = Network(spec, seed=0)
    net.layers[0].w[:] = 0
    net.layers[0].b[:] = 0
    rng = np.random.default_rng(3)
    x = rng.random((8, 2, 2, 1), dtype=np.float32)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    loss, grads = net.loss_and_grads(x, labels)
    assert loss == pytest.approx(np.log(4.0), abs=1e-6)
    onehot = np.eye(4)[labels]
    expected_db = (0.25 - onehot).mean(axis=0)
    np.testing.assert_allclose(grads[1], expected_db, atol=1e-7)


def test_gradients_invariant_under_batch_duplication():
    net = Network(build_classifier(8, (2, 4, 2)), seed=5)
    rng = np.random.default_rng(4)
    x = rng.random((3, 8, 8, 3), dtype=np.float32)
    labels = np.array([0, 2, 1])
    _, g1 = net.loss_and_grads(x, labels)
    _, g2 = net.loss_and_grads(np.concatenate([x, x]), np.concatenate([labels, labels]))
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(a, b, atol=1e-6)


def test_seeded_build_and_forward_deterministic():
    spec = build_classifier(8, (2, 4, 2))
    n1, n2 = Network(spec, seed=7), Network(spec, seed=7)
    for a, b in zip(n1.parameters(), n2.parameters()):
        np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(5)
    x = rng.random((2, 8, 8, 3), dtype=np.float32)
    np.testing.assert_array_equal(n1.forward(x), n1.forward(x))


def test_batch_shape_mismatch_rejected():
    net = Network(build_classifier(8, (2, 4, 2)), seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 16, 16, 3), dtype=np.float32))


def test_checkpoint_round_trip(tmp_path):
    net = Network(build_classifier(8, (2, 4, 2)), seed=11)
    path = save_checkpoint(tmp_path / "model.ralw", net)
    loaded = load_checkpoint(path)
    assert loaded.spec == net.spec
    for a, b in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_header_layout(tmp_path):
    import struct

    net = Network(build_classifier(8, (2, 4, 2)), seed=11)
    path = save_checkpoint(tmp_path / "model.ralw", net)
    blob = path.read_bytes()
    assert blob[:4] == b"RALW"
    version, count = struct.unpack("<II", blob[4:12])
    assert version == 1
    assert count == len(net.parameters())
    (rank,) = struct.unpack("<I", blob[12:16])
    first = net.parameters()[0]
    assert rank == first.ndim
    dims = struct.unpack(f"<{rank}I", blob[16:16 + 4 * rank])
    assert dims == first.shape
    # network spec JSON sits alongside
    assert (tmp_path / "model.json").exists()


def test_layer_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        LayerSpec("pool", 2)
    with pytest.raises(ValueError, match="kernel"):
        LayerSpec("conv", 5, 8)
    with pytest.raises(ValueError, match="kernel"):
        LayerSpec("maxpool", 3)


def test_truncated_checkpoint_reports_missing_bytes(tmp_path):
    net = Network(build_classifier(8, (2, 4, 2)), seed=12)
    path = save_checkpoint(tmp_path / "model.ralw", net)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_predict_proba_matches_training_forward_bytes():
    # the read-only path builds no caches but must compute the same bytes as
    # the training path, chunk by chunk, across several chunks
    net = Network(build_classifier(16, (2, 4, 2)), seed=12)
    rng = np.random.default_rng(13)
    x = rng.random((2 * PREDICT_CHUNK + 7, 16, 16, 3), dtype=np.float32)
    expected = np.concatenate([softmax(net.logits(x[i:i + PREDICT_CHUNK], keep_caches=True)[0])
                               for i in range(0, len(x), PREDICT_CHUNK)])
    got = net.predict_proba(x)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    rows = np.arange(len(x))[::-3]
    np.testing.assert_array_equal(net.predict_proba(x, rows), net.predict_proba(x[rows]))


def test_read_only_passes_build_no_caches():
    net = Network(build_classifier(16, (2, 4, 2)), seed=14)
    rng = np.random.default_rng(15)
    x = rng.random((4, 16, 16, 3), dtype=np.float32)
    seen = []
    for layer in net.layers:
        def spy(x, forward=layer.forward):
            y, cache = forward(x)
            seen.append(cache)
            return y, cache
        layer.forward = spy
    net.predict_proba(x)
    assert len(seen) == len(net.layers) and all(c is None for c in seen)
    seen.clear()
    net.loss_and_grads(x, np.arange(4))
    assert len(seen) == len(net.layers) and all(c is not None for c in seen)
