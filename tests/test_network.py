import json
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ral.imageio import save_ralt
from ral.nn import (LayerSpec, Network, NetworkSpec, build_classifier, load_checkpoint,
                    save_checkpoint, softmax)
from ral.nn import Conv2d, layers, network
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
    trunk = spec.layers[2:13]  # between the stem's pool and the global average pool
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


def test_loading_draws_no_initialization(tmp_path, monkeypatch):
    # load_checkpoint and astype overwrite every parameter, so they draw none
    net = Network(build_classifier(8, (2, 4, 2)), seed=20)
    path = save_checkpoint(tmp_path / "model.ralw", net)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a seeded initialization")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert load_checkpoint(path).theta.tobytes() == net.theta.tobytes()
    np.testing.assert_array_equal(net.astype(np.float64).theta, net.theta)


def assert_views_of_theta(net):
    """Every layer's w and b is its own slice of net.theta, in parameters() order."""
    params = net.parameters()
    assert len(params) == 2 * sum(1 for layer in net.layers if layer.params)
    assert net.theta.ndim == 1 and net.theta.flags.c_contiguous
    assert net.theta.dtype == net.dtype
    start = 0
    for layer in net.layers:
        for p in layer.params:
            assert p is layer.w or p is layer.b
            assert np.shares_memory(p, net.theta) and p.base is net.theta
            np.testing.assert_array_equal(p.reshape(-1), net.theta[start:start + p.size])
            start += p.size
    assert start == net.theta.size


def test_parameters_are_views_of_one_vector(tmp_path):
    net = Network(build_classifier(16, (2, 4, 2)), seed=3)
    assert_views_of_theta(net)
    # a write through a layer lands in theta, and one through theta in the layer
    net.layers[2].w[0, 0, 0, 0] = 5.0
    net.layers[-1].b[...] = 0.25
    assert net.theta[net.layers[0].w.size + net.layers[0].b.size] == 5.0
    net.theta[:3] = -1.0
    assert (net.layers[0].w.reshape(-1)[:3] == -1.0).all()
    np.testing.assert_array_equal(net.theta[-net.layers[-1].b.size:], 0.25)

    loaded = load_checkpoint(save_checkpoint(tmp_path / "model.ralw", net))
    assert_views_of_theta(loaded)
    np.testing.assert_array_equal(loaded.theta, net.theta)

    wide = net.astype(np.float64)
    assert_views_of_theta(wide)
    np.testing.assert_array_equal(wide.theta, net.theta.astype(np.float64))
    assert not np.shares_memory(wide.theta, net.theta)


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
    ends = [4, 12]  # magic, then version and count; then rank, dims, data per tensor
    for p in net.parameters():
        ends += [ends[-1] + 4, ends[-1] + 4 + 4 * p.ndim, ends[-1] + 4 + 4 * p.ndim + 4 * p.size]
    assert ends[-1] == len(blob)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        missing = min(e for e in ends if e > cut) - cut
        with pytest.raises(ValueError, match=f"truncated reading .* need {missing} more bytes$"):
            load_checkpoint(path)


def test_checkpoint_tensors_are_the_records_of_ralt_files(tmp_path):
    net = Network(build_classifier(8, (2, 4, 2)), seed=11)
    blob = save_checkpoint(tmp_path / "model.ralw", net).read_bytes()
    off = 12  # magic, version, count
    for i, p in enumerate(net.parameters()):
        record = save_ralt(tmp_path / f"p{i}.ralt", p).read_bytes()[4:]
        assert blob[off:off + len(record)] == record
        off += len(record)
    assert off == len(blob)


def test_checkpoint_header_and_spec_mismatches_keep_their_messages(tmp_path):
    net = Network(build_classifier(8, (2, 4, 2)), seed=13)
    path = save_checkpoint(tmp_path / "model.ralw", net)
    blob, count = path.read_bytes(), len(net.parameters())

    def fails(data, message):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    fails(b"RALX" + blob[4:], "bad magic at byte 0 (expected b'RALW')")
    fails(blob[:4] + struct.pack("<I", 2) + blob[8:], "unsupported format version 2")
    fails(blob[:8] + struct.pack("<I", count - 1) + blob[12:],
          f"checkpoint has {count - 1} tensors, spec needs {count}")
    # a spec with the same tensor count and a wider first block
    other = build_classifier(8, (3, 4, 2))
    path.with_suffix(".json").write_text(json.dumps(other.to_dict()))
    first = net.parameters()[0].shape
    fails(blob, f"tensor shape {first} does not match spec shape "
                f"{Network(other, seed=0).parameters()[0].shape}")


def test_bytes_after_the_last_record_rejected(tmp_path):
    net = Network(build_classifier(8, (2, 4, 2)), seed=14)
    path = save_checkpoint(tmp_path / "model.ralw", net)
    blob = path.read_bytes()
    for extra in range(1, 13):
        path.write_bytes(blob + bytes(range(extra)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {extra} extra bytes "
                                             f"after the last record at byte {len(blob)}$"):
            load_checkpoint(path)


# the cause each edit must name, where the edit leaves a well-formed spec
SHAPE_RULES = {
    "head-not-per-class": "final layer must be dense with one unit per class",
    "conv-after-avgpool": "layer 14 (conv): conv needs a spatial input, got shape (2,)",
}


@pytest.mark.parametrize("edit", ["no-layers", "unknown-layer-key", "list", "no-layer",
                                  "unknown-kind", "text-width", "float-input",
                                  "float-classes", *SHAPE_RULES])
def test_malformed_spec_fails_naming_its_file(tmp_path, edit):
    path = save_checkpoint(tmp_path / "model.ralw",
                           Network(build_classifier(8, (2, 4, 2)), seed=15))
    spec_path = tmp_path / "model.json"
    spec = json.loads(spec_path.read_text())
    if edit == "no-layers":
        del spec["layers"]
    elif edit == "unknown-layer-key":
        spec["layers"][0]["stride"] = 1
    elif edit == "list":
        spec = list(spec.values())
    elif edit == "no-layer":
        spec["layers"] = []
    elif edit == "unknown-kind":
        spec["layers"][0]["kind"] = "deconv"
    elif edit == "float-input":  # 8.0 == 8, so it would pass every check
        spec["input"][0] = 8.0
    elif edit == "float-classes":
        spec["classes"] = 4.0
    elif edit == "head-not-per-class":
        spec["classes"] = 3
    elif edit == "conv-after-avgpool":
        spec["layers"].insert(-1, dict(spec["layers"][0]))
    else:
        spec["layers"][0]["channels"] = "2"
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=f"^{re.escape(str(spec_path))}: malformed network "
                                         f"spec \\(") as err:
        load_checkpoint(path)
    assert SHAPE_RULES.get(edit, "") in str(err.value)


class Gathers:
    """An array that logs the thread of each gather; ``fail_in`` names a
    thread whose first gather raises, ``delay`` slows the others."""

    def __init__(self, x, fail_in=None, delay=0.0):
        self.x, self.fail_in, self.delay = x, fail_in, delay
        self.threads, self.done, self.running = [], [], 0
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.x)

    def __getitem__(self, rows):
        me = threading.get_ident()
        with self.lock:
            self.threads.append(me)
            self.running += 1
        try:
            if me == self.fail_in:
                raise RuntimeError("gather failed")
            time.sleep(self.delay)
            return self.x[rows]
        finally:
            with self.lock:
                self.running -= 1
                self.done.append(me)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_cpus_are_the_affinity_set():
    # the one unmocked call: every two-lane test replaces _cpus
    assert network._cpus() == len(os.sched_getaffinity(0))


@pytest.fixture
def two_cpus(monkeypatch):
    # two lanes need two CPUs; give every host two, so both paths run
    monkeypatch.setattr(network, "_cpus", lambda: 2)


# (input size, channel plan): at 16x16 every 3x3 conv's patch matrix fits
# one block; at 64x64 the stem's spans seven, the last one narrower
@pytest.mark.parametrize("size, plan", [(16, (2, 4, 2)), (32, (2, 4, 2)), (64, (8, 16, 8))],
                         ids=["16x16", "32x32", "64x64"])
def test_predict_proba_matches_training_forward_bytes(two_cpus, monkeypatch, size, plan):
    # the read-only path builds no caches and shifts one column block at a
    # time, but must compute the same bytes as the training path, chunk by
    # chunk, across several chunks, in two lanes at every input size
    splits = []

    def recorded(rows, length, itemsize):
        width = block_width(rows, length, itemsize)
        splits.append((length, width))
        return width

    block_width = layers._block_width
    monkeypatch.setattr(layers, "_block_width", recorded)
    net = Network(build_classifier(size, plan), seed=12)
    rng = np.random.default_rng(13)
    x = rng.random((2 * PREDICT_CHUNK + 7, size, size, 3), dtype=np.float32)
    expected = np.concatenate([softmax(net.logits(x[i:i + PREDICT_CHUNK], keep_caches=True)[0])
                               for i in range(0, len(x), PREDICT_CHUNK)])
    trained = len(splits)
    batch = Gathers(x)
    got = net.predict_proba(batch)
    assert len(set(batch.threads)) == 2
    # both modes split each of the seven 3x3 convs of each of 3 chunks alike
    assert trained == 7 * 3 and sorted(splits[:trained]) == sorted(splits[trained:])
    if size == 16:
        assert all(width == length for length, width in splits)
    if size == 64:
        assert any(length > 2 * width and length % width for length, width in splits)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    rows = np.arange(len(x))[::-3]
    np.testing.assert_array_equal(net.predict_proba(x, rows), net.predict_proba(x[rows]))


# a read-only forward of 32 samples, plan 8/16/8, holds at most its stem's
# column block, not its whole patch matrix: the whole matrices peaked at
# 4.65 MiB at 32x32, where the stem's 3.76 MB spans two blocks. At 16x16
# every matrix fits one block, and the peak stays at the whole matrices'
# 1.2346 MiB (1.2347 on Python 3.11: 80 bytes of Python objects more); a
# block pass that keeps the padded grid alive across its GEMM reads
# 1.34 MiB. The bounds leave room for another Python's objects.
@pytest.mark.parametrize("size, bound_mib", [(16, 1.24), (32, 3.65)], ids=["16x16", "32x32"])
def test_read_only_forward_holds_one_patch_block(size, bound_mib):
    net = Network(build_classifier(size, (8, 16, 8)), seed=3)
    x = np.random.default_rng(4).random((PREDICT_CHUNK, size, size, 3), dtype=np.float32)
    net.forward(x)
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


@pytest.mark.parametrize("size", [16, 32], ids=["16x16", "32x32"])
def test_one_lane_gives_the_bytes_of_two(monkeypatch, size):
    net = Network(build_classifier(size, (2, 4, 2)), seed=16)
    x = np.random.default_rng(17).random((3 * PREDICT_CHUNK + 5, size, size, 3),
                                         dtype=np.float32)
    rows = np.random.default_rng(18).permutation(len(x))[:2 * PREDICT_CHUNK + 9]
    got = {}
    for cpus in (1, 2):
        monkeypatch.setattr(network, "_cpus", lambda: cpus)
        batch = Gathers(x)
        got[cpus] = net.predict_proba(batch, rows)
        assert len(set(batch.threads)) == cpus
    np.testing.assert_array_equal(got[1], got[2])


@pytest.mark.parametrize("n", [PREDICT_CHUNK, PREDICT_CHUNK - 9], ids=["one-chunk", "short"])
def test_pass_of_one_chunk_runs_in_the_caller(two_cpus, monkeypatch, n):
    # two CPUs, but one chunk: nothing to hand the helper
    def submit(*args):
        raise AssertionError("a one-chunk pass used the helper")

    monkeypatch.setattr(network._HELPER, "submit", submit)
    net = Network(build_classifier(32, (2, 4, 2)), seed=23)
    x = np.random.default_rng(24).random((n, 32, 32, 3), dtype=np.float32)
    batch = Gathers(x)
    np.testing.assert_array_equal(net.predict_proba(batch), net.forward(x))
    assert batch.threads == [threading.get_ident()]


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_lane_exception_reaches_caller_after_both_lanes_stop(two_cpus, failing):
    net = Network(build_classifier(32, (2, 4, 2)), seed=19)
    x = np.zeros((6 * PREDICT_CHUNK, 32, 32, 3), np.float32)  # 3 chunks a lane
    caller = threading.get_ident()
    helper = network._HELPER.submit(threading.get_ident).result(timeout=10)
    fail_in, other = (helper, caller) if failing == "helper" else (caller, helper)
    batch = Gathers(x, fail_in=fail_in, delay=0.02)  # the other lane is still busy
    with pytest.raises(RuntimeError, match="gather failed"):
        net.predict_proba(batch)
    assert batch.running == 0
    assert batch.done.count(other) == 3
    assert batch.done.count(fail_in) == 1


def test_concurrent_passes_share_one_helper(two_cpus):
    # more callers than CPUs, each splitting its pass with the one helper
    net = Network(build_classifier(32, (2, 4, 2)), seed=21)
    xs = [np.random.default_rng(22 + i).random((PREDICT_CHUNK + 9, 32, 32, 3),
                                               dtype=np.float32) for i in range(4)]
    expected = [net.predict_proba(x) for x in xs]
    got = [None] * len(xs)

    def call(i):
        for _ in range(3):
            got[i] = net.predict_proba(xs[i])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)


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


def test_each_patch_matrix_dies_before_the_layer_below_runs_backward():
    net = Network(build_classifier(16, (2, 4, 2)), seed=16)
    rng = np.random.default_rng(17)
    x = rng.random((4, 16, 16, 3), dtype=np.float32)
    patches, alive = {}, {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Conv2d):
            def keep(x, i=i, forward=layer.forward):
                y, cache = forward(x)
                patches[i] = weakref.ref(cache[0])
                return y, cache
            layer.forward = keep

        def check(dy, cache, i=i, backward=layer.backward):
            alive[i] = [j for j, ref in patches.items() if j > i and ref() is not None]
            return backward(dy, cache)
        layer.backward = check
    net.loss_and_grads(x, np.arange(4))
    assert len(patches) == 10 and len(alive) == len(net.layers)
    assert all(not later for later in alive.values()), alive


class TestBlasThreads:
    def test_import_sets_openblas_to_one_thread(self):
        # the child finds numpy's OpenBLAS on its own, reads its thread count
        # under OPENBLAS_NUM_THREADS=2, then again once ral.nn is imported
        code = ("import ctypes, pathlib, sys\n"
                "import numpy as np\n"
                "libs = sorted((pathlib.Path(np.__file__).parent.parent / 'numpy.libs')"
                ".glob('*openblas*'))\n"
                "names = [f'{p}openblas_get_num_threads{s}' for p in ('', 'scipy_')"
                " for s in ('', '64_')]\n"
                "get = next((getattr(lib, n) for lib in map(ctypes.CDLL, libs)"
                " for n in names if hasattr(lib, n)), None)\n"
                "if get is None:\n"
                "    print('none none')\n"
                "    sys.exit()\n"
                "before = get()\n"
                "import ral.nn\n"
                "print(before, get())\n")
        src = str(Path(network.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
        before, after = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout.split()
        if before == "none":
            pytest.skip("numpy's OpenBLAS exports no openblas_get_num_threads")
        if before == "1":
            pytest.skip("OpenBLAS runs one thread here even when asked for two")
        assert (before, after) == ("2", "1")


class TestAllocator:
    """Importing ral.nn keeps freed memory in the process, for any caller."""

    @pytest.fixture(autouse=True)
    def glibc(self):
        import ctypes

        try:
            ctypes.CDLL(None).mallopt
        except (OSError, AttributeError, TypeError):
            pytest.skip("libc has no mallopt")

    def faults(self, code):
        """Minor faults that ``code`` counts into ``faults``, in a fresh
        interpreter that imports ral.nn and never ral.cli: the allocator
        state of this one depends on the tests before."""
        code = ("import resource, sys\n"
                "import numpy as np\n"
                "import ral.nn\n"
                "def minflt():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                + code +
                "assert 'ral.cli' not in sys.modules\n"
                "print(faults)\n")
        src = str(Path(network.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        return int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)

    def test_freed_block_is_reused_without_faults(self):
        # 3 MiB stays below numpy's huge-page advice; 768 pages when the
        # block is mapped afresh
        assert self.faults("a = np.ones(3 << 18, np.float32); del a\n"
                           "before = minflt()\n"
                           "a = np.ones(3 << 18, np.float32)\n"
                           "faults = minflt() - before\n") < 64

    def test_second_training_step_does_not_fault(self):
        # 2,000-4,000 pages a step when each step maps its buffers afresh.
        # The heap grows once more on some step after the first, by up to
        # about 150 pages, and the heap layout decides which: so the bound
        # is on the median of steps 2-6, not on step 2.
        assert self.faults(
            "net = ral.nn.Network(ral.nn.build_classifier(32, (8, 16, 8)), seed=0)\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random((32, 32, 32, 3), dtype=np.float32)\n"
            "y = rng.integers(0, 4, 32)\n"
            "net.loss_and_grads(x, y)\n"
            "steps = []\n"
            "for _ in range(5):\n"
            "    before = minflt()\n"
            "    net.loss_and_grads(x, y)\n"
            "    steps.append(minflt() - before)\n"
            "faults = sorted(steps)[2]\n") < 64
