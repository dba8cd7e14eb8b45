from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from ral.loop import (IterationReport, RalConfig, finetune, initial_train,
                      prune_by_confidence, prune_by_group, run_ral,
                      score_training_set)
from ral.experiment import write_audit
from ral.metrics import macro_accuracy
from ral.nn import Adam, LayerSpec, Network, NetworkSpec, build_classifier
from ral.patches import SlideImage, TilingSpec, build_training_set


def toy_set(n_per_class=2, size=8, seed=0, classes=("dark", "light")):
    """Separable two-class set: one class dark pixels, the other light."""
    rng = np.random.default_rng(seed)
    slides = []
    for ci, cname in enumerate(classes):
        base = 0.15 if ci == 0 else 0.85
        for i in range(n_per_class):
            px = np.clip(base + 0.05 * rng.standard_normal((size, size, 3)), 0, 1)
            slides.append(SlideImage(f"{cname}_{i}", cname, px.astype(np.float32)))
    return build_training_set(slides, TilingSpec(size, size), list(classes))


def dense_net(size=8, classes=2, seed=0):
    spec = NetworkSpec((size, size, 3), (LayerSpec("dense", channels=classes),), classes)
    return Network(spec, seed=seed)


def zeroed(net):
    for p in net.parameters():
        p[:] = 0
    return net


class TestConfig:
    def test_tau_bounds(self):
        RalConfig(tau=0.0)  # 0 disables pruning, used for baselines
        with pytest.raises(ValueError):
            RalConfig(tau=1.0)
        with pytest.raises(ValueError):
            RalConfig(tau=-0.1)

    def test_group_threshold_bounds(self):
        with pytest.raises(ValueError):
            RalConfig(group_threshold=9)

    def test_seed_is_an_argument_not_a_setting(self):
        config = RalConfig(seed=5)
        assert config.seed == 5
        assert replace(config, tau=0.1).seed == 5
        assert replace(config, seed=6).seed == 6
        assert "seed" not in asdict(config)
        assert "seed" not in [f.name for f in fields(RalConfig)]


class TestInitialTrain:
    def test_separable_set_reaches_full_accuracy_early(self):
        ts = toy_set(n_per_class=4)
        net = dense_net()
        config = RalConfig(max_epochs=60, target_train_accuracy=1.0,
                           learning_rate=0.05, batch_size=8, seed=1)
        log = initial_train(net, ts, config)
        assert log[-1].accuracy == 1.0
        assert len(log) < 60

    def test_zero_epochs_changes_nothing(self):
        ts = toy_set()
        net = dense_net(seed=3)
        before = [p.copy() for p in net.parameters()]
        log = initial_train(net, ts, RalConfig(max_epochs=0))
        assert log == []
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_same_parameters(self):
        config = RalConfig(max_epochs=3, learning_rate=0.01, batch_size=4, seed=5)
        finals = []
        for _ in range(2):
            net = dense_net(seed=2)
            initial_train(net, toy_set(), config)
            finals.append([p.copy() for p in net.parameters()])
        for a, b in zip(*finals):
            np.testing.assert_array_equal(a, b)

    def test_empty_set_rejected(self):
        ts = toy_set()
        ts.active[:] = False
        with pytest.raises(ValueError, match="empty"):
            initial_train(dense_net(), ts, RalConfig())


class TestScore:
    def test_uniform_net_scores_chance(self):
        ts = toy_set()
        net = zeroed(dense_net())
        conf, _ = score_training_set(net, ts)
        # float64, so tau is compared at full precision, as a Python float is
        assert conf.shape == (len(ts),) and conf.dtype == np.float64
        np.testing.assert_allclose(conf, 0.5, rtol=1e-6)  # 2 classes

    def test_uniform_net_four_classes(self):
        ts = toy_set(classes=("a", "b", "c", "d"))
        net = zeroed(dense_net(classes=4))
        conf, _ = score_training_set(net, ts)
        np.testing.assert_allclose(conf, 0.25, rtol=1e-6)

    def test_saturated_prediction_scores_near_one(self):
        ts = toy_set()
        net = zeroed(dense_net())
        net.layers[0].b[0] = 50.0  # model shouts class 0
        conf, pred = score_training_set(net, ts)
        np.testing.assert_allclose(conf, np.where(ts.label == 0, 1.0, 0.0), atol=1e-6)
        assert (pred == 0).all()

    def test_matches_single_patch_oracle(self):
        ts = toy_set(n_per_class=3)
        net = dense_net(seed=7)
        conf, pred = score_training_set(net, ts)
        for i in range(len(ts)):
            probs = net.forward(ts.images[[i]])
            assert conf[i] == pytest.approx(float(probs[0, ts.label[i]]), abs=1e-6)
            assert pred[i] == probs[0].argmax()

    def test_inactive_records_skipped(self):
        ts = toy_set()
        ts.active[0] = False
        conf, pred = score_training_set(zeroed(dense_net()), ts)
        assert np.isnan(conf[0]) and pred[0] == -1
        assert np.isfinite(conf[1:]).all() and (pred[1:] >= 0).all()


class TestPruneByConfidence:
    def test_strict_threshold_boundary(self):
        ts = toy_set()
        conf = np.full(len(ts), 0.5)
        conf[3] = 0.49
        removed = prune_by_confidence(ts, conf, tau=0.5)
        assert removed.tolist() == [3]
        assert ts.n_active == len(ts) - 1
        assert not ts.active[3]

    def test_full_confidence_removes_nothing(self):
        ts = toy_set()
        removed = prune_by_confidence(ts, np.ones(len(ts)), 0.5)
        assert removed.size == 0
        assert ts.n_active == len(ts)

    def test_chance_scores_remove_everything_at_default_tau(self):
        ts = toy_set(classes=("a", "b", "c", "d"))
        net = zeroed(dense_net(classes=4))
        conf, _ = score_training_set(net, ts)
        removed = prune_by_confidence(ts, conf, 0.5)
        assert len(removed) == len(ts)
        assert ts.n_active == 0

    def test_missing_score_rejected(self):
        ts = toy_set()
        conf = np.ones(len(ts))
        conf[0] = np.nan
        with pytest.raises(ValueError, match="no confidence score"):
            prune_by_confidence(ts, conf, 0.5)

    def test_inactive_records_neither_scored_nor_removed_again(self):
        ts = toy_set()
        ts.active[2] = False
        conf = np.ones(len(ts))
        conf[2] = np.nan
        conf[5] = 0.0
        assert prune_by_confidence(ts, conf, 0.5).tolist() == [5]

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(9)
        ts = toy_set(n_per_class=3)
        conf = rng.random(len(ts))
        expected = [i for i in range(len(ts)) if conf[i] < 0.37]
        assert prune_by_confidence(ts, conf, 0.37).tolist() == expected


def first_group(ts):
    return np.arange(8)


class TestPruneByGroup:
    def test_five_removed_takes_remaining_three(self):
        ts = toy_set(n_per_class=1)
        group = first_group(ts)
        hit = group[:5]
        ts.active[hit] = False
        extra = prune_by_group(ts, hit, 4)
        assert extra.tolist() == group[5:].tolist()

    def test_exactly_four_removed_keeps_rest(self):
        ts = toy_set(n_per_class=1)
        group = first_group(ts)
        hit = group[:4]
        ts.active[hit] = False
        assert prune_by_group(ts, hit, 4).size == 0
        assert ts.active[group[4:]].all()

    def test_untouched_group_unchanged(self):
        ts = toy_set(n_per_class=1)
        assert prune_by_group(ts, [], 4).size == 0
        assert ts.n_active == len(ts)

    def test_exhaustive_all_removal_patterns(self):
        for pattern in range(256):
            ts = toy_set(n_per_class=1)
            group = first_group(ts)
            hit = group[[i for i in range(8) if pattern >> i & 1]]
            ts.active[hit] = False
            extra = prune_by_group(ts, hit, 4)
            survivors = [i for i in group if i not in hit]
            if bin(pattern).count("1") > 4:
                assert extra.tolist() == survivors
            else:
                assert extra.size == 0

    def test_groups_counted_separately(self):
        # 5 removals in one group, 4 in another: only the first group goes
        ts = toy_set(n_per_class=1)
        a, b = np.arange(8), np.arange(8, 16)
        hit = np.concatenate([b[:4], a[:5]])
        ts.active[hit] = False
        assert prune_by_group(ts, hit, 4).tolist() == a[5:].tolist()
        assert ts.active[b[4:]].all()

    def test_only_this_rounds_removals_count(self):
        # 3 removals in a previous round plus 2 now: group survives (2 <= 4)
        ts = toy_set(n_per_class=1)
        group = first_group(ts)
        ts.active[group[:3]] = False
        now = group[3:5]
        ts.active[now] = False
        assert prune_by_group(ts, now, 4).size == 0


@pytest.mark.parametrize("train, message", [
    (lambda net, ts, config: initial_train(net, ts, config),
     "cannot train on an empty training set"),
    (lambda net, ts, config: finetune(net, ts, config, Adam(config.learning_rate)),
     "cannot finetune on an empty training set")], ids=["initial_train", "finetune"])
def test_empty_active_set_rejected_before_any_step(monkeypatch, train, message):
    ts = toy_set()
    ts.active[:] = False

    def no_step(*args, **kwargs):
        raise AssertionError("took a training step on an empty active set")

    monkeypatch.setattr(Network, "loss_and_grads", no_step)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(dense_net(), ts, RalConfig(max_epochs=2, finetune_epochs=2))


class TestFinetune:
    def test_zero_epochs_unchanged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=0)
        before = [p.copy() for p in net.parameters()]
        log = finetune(net, ts, config, Adam(config.learning_rate))
        assert log == []
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_zero_learning_rate_unchanged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=2, learning_rate=0.0)
        before = [p.copy() for p in net.parameters()]
        finetune(net, ts, config, Adam(config.learning_rate))
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_nan_weight_stops_training_at_its_batch(self):
        ts = toy_set()
        net = dense_net(seed=4)
        net.layers[0].w[5, 1] = np.nan
        before = [p.copy() for p in net.parameters()]
        config = RalConfig(finetune_epochs=2, learning_rate=0.01, batch_size=4)
        with pytest.raises(FloatingPointError, match="at epoch 3, batch 0"):
            finetune(net, ts, config, Adam(config.learning_rate), epoch_offset=3)
        # the optimizer never saw the bad gradients
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_loss_finite_and_logged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=3, learning_rate=0.01, batch_size=4)
        log = finetune(net, ts, config, Adam(config.learning_rate))
        assert len(log) == 3
        assert all(np.isfinite(s.loss) for s in log)


def per_tensor_epochs(net, ts, config, epochs):
    """The training loop as it was before the flat parameter vector: a
    finiteness check, and one Adam per parameter tensor."""
    adams = [Adam(config.learning_rate) for _ in net.parameters()]
    rng = np.random.default_rng(config.seed)
    for _ in range(epochs):
        idx = ts.active_indices()
        order = idx[rng.permutation(len(idx))]
        for start in range(0, len(order), config.batch_size):
            take = order[start:start + config.batch_size]
            loss, grads = net.loss_and_grads(ts.images[take], ts.label[take])
            assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads)
            for adam, p, g in zip(adams, net.parameters(), grads):
                adam.step(p, g)
    return adams


class TestFlatStep:
    def test_bitwise_equal_to_per_tensor_steps(self):
        # desk-shaped: 32x32 records, channel plan 8/16/8, four classes
        ts = toy_set(n_per_class=2, size=32, classes=("a", "b", "c", "d"))
        spec = build_classifier(32, (8, 16, 8), classes=4)
        config = RalConfig(max_epochs=3, target_train_accuracy=1.01, batch_size=8,
                           learning_rate=3e-3, seed=6)
        steps = config.max_epochs * (len(ts) // config.batch_size)
        assert steps >= 20

        ref = Network(spec, seed=1)
        ref_adams = per_tensor_epochs(ref, ts, config, config.max_epochs)
        net = Network(spec, seed=1)
        adam = Adam(config.learning_rate)
        initial_train(net, ts, config, adam)

        assert adam.t == steps
        assert all(a.t == steps for a in ref_adams)
        for a, b in zip(net.parameters(), ref.parameters()):
            np.testing.assert_array_equal(a, b)
        for flat, name in ((adam.m, "m"), (adam.v, "v")):
            assert flat.shape == net.theta.shape
            np.testing.assert_array_equal(
                flat, np.concatenate([getattr(a, name).reshape(-1) for a in ref_adams]))
        # the network moved, so the comparison compared something
        assert not np.array_equal(net.theta, Network(spec, seed=1).theta)

    def test_nan_in_one_layer_gradient_stops_training_at_its_batch(self):
        ts = toy_set(n_per_class=2)
        net = Network(build_classifier(8, (2, 4, 2), classes=2), seed=4)
        layer = net.layers[6]  # a trunk conv between two others
        backward, calls, seen = layer.backward, [], []

        def nan_on_third_call(dy, cache):
            dx, (dw, db) = backward(dy, cache)
            calls.append(1)
            if len(calls) == 3:
                seen.append(net.theta.copy())  # the parameters batch 2 ran with
                dw = dw.copy()
                dw.flat[1] = np.nan
            return dx, [dw, db]

        layer.backward = nan_on_third_call
        config = RalConfig(finetune_epochs=2, learning_rate=0.01, batch_size=4)
        with pytest.raises(FloatingPointError, match="at epoch 5, batch 2"):
            finetune(net, ts, config, Adam(config.learning_rate), epoch_offset=5)
        np.testing.assert_array_equal(net.theta, seen[0])
        assert np.isfinite(net.theta).all()


class TestRunRal:
    def test_k_zero_single_report_nothing_removed(self):
        ts = toy_set()
        config = RalConfig(iterations=0, max_epochs=2, learning_rate=0.01,
                           batch_size=8, seed=3)
        result = run_ral(dense_net(), ts, config)
        assert len(result.reports) == 1
        r = result.reports[0]
        assert (r.removed_by_confidence, r.removed_by_group) == (0, 0)
        assert r.active_before == r.active_after == len(ts)
        assert result.status == "completed"

    def test_tau_zero_is_plain_finetuning(self):
        config = RalConfig(tau=0.0, iterations=2, max_epochs=2,
                           finetune_epochs=1, learning_rate=0.01,
                           batch_size=8, seed=6)
        ts1 = toy_set()
        net1 = dense_net(seed=8)
        result = run_ral(net1, ts1, config)
        assert all(r.removed_by_confidence == 0 and r.removed_by_group == 0
                   for r in result.reports)
        assert ts1.n_active == len(ts1)
        # manual replay: initial fit then K bare finetunes on the same rng stream
        ts2 = toy_set()
        net2 = dense_net(seed=8)
        adam = Adam(config.learning_rate)
        rng = np.random.default_rng(config.seed)
        initial_train(net2, ts2, config, adam, rng)
        score_training_set(net2, ts2)
        finetune(net2, ts2, config, adam, rng)
        score_training_set(net2, ts2)
        finetune(net2, ts2, config, adam, rng)
        for a, b in zip(net1.parameters(), net2.parameters()):
            np.testing.assert_array_equal(a, b)

    # tau 0 prunes nothing; lr 0 keeps the zeroed net uniform over 4
    # classes, so round 1 removes every record and the run halts
    @pytest.mark.parametrize("tau, lr, classes, total", [
        (0.0, 0.01, ("a", "b"), 3 + 2 + 2), (0.5, 0.0, ("a", "b", "c", "d"), 3)],
        ids=["completed", "halted"])
    def test_epochs_are_counted_from_the_logs(self, tau, lr, classes, total):
        config = RalConfig(tau=tau, iterations=2, max_epochs=3, finetune_epochs=2,
                           learning_rate=lr, batch_size=8, seed=6)
        result = run_ral(zeroed(dense_net(classes=len(classes))), toy_set(classes=classes),
                         config)
        assert result.total_epochs == total
        epochs = [s.epoch for log in result.epoch_logs for s in log]
        assert epochs == list(range(total))

    def test_bookkeeping_reconciles_and_counts_monotone(self):
        ts = toy_set(n_per_class=4, seed=2)
        config = RalConfig(iterations=3, max_epochs=4, finetune_epochs=1,
                           learning_rate=0.02, batch_size=8, seed=11)
        result = run_ral(dense_net(seed=1), ts, config)
        actives = [result.reports[0].active_before]
        for r in result.reports:
            assert r.reconciles()
            assert r.active_after <= actives[-1]
            actives.append(r.active_after)

    def test_deterministic_reports(self):
        config = RalConfig(iterations=2, max_epochs=3, finetune_epochs=1,
                           learning_rate=0.02, batch_size=8, seed=13)
        runs = []
        for _ in range(2):
            result = run_ral(dense_net(seed=5), toy_set(n_per_class=3, seed=4), config)
            runs.append([r.to_dict() for r in result.reports] + [result.audit])
        assert runs[0] == runs[1]

    def test_empty_set_halt_is_reported_not_raised(self):
        # lr=0 keeps the zeroed net uniform: every confidence is 0.25 < 0.5,
        # so round 1 removes everything and the loop halts with a report
        ts = toy_set(classes=("a", "b", "c", "d"))
        net = zeroed(dense_net(classes=4))
        config = RalConfig(iterations=3, max_epochs=1, learning_rate=0.0,
                           batch_size=8, seed=1)
        result = run_ral(net, ts, config)
        assert result.status == "empty_refined_set"
        assert len(result.reports) == 2
        last = result.reports[-1]
        assert last.active_after == 0
        assert last.removed_by_confidence == len(ts)
        assert last.reconciles()

    def test_audit_covers_every_removal_once(self):
        ts = toy_set(n_per_class=4, seed=6)
        config = RalConfig(iterations=2, max_epochs=3, finetune_epochs=1,
                           learning_rate=0.02, batch_size=8, seed=17)
        result = run_ral(dense_net(seed=2), ts, config)
        audited = [pid for _, pid, _ in result.audit]
        assert len(audited) == len(set(audited))
        inactive = set(ts.patch_ids(np.flatnonzero(~ts.active)))
        assert set(audited) == inactive

    def test_audit_rows_in_patch_id_order(self, tmp_path):
        # 11 cells in one row: record order runs s/0, s/1, ..., s/10, but
        # "s/10/..." sorts before "s/2/...". Only each cell's top-left pixel
        # is bright and the net trusts label 0 only when the patch's
        # top-left pixel is bright: 2 of 8 variants keep it there, so each
        # group loses 6 records by confidence and 2 by the group rule.
        size = 4
        px = np.zeros((size, 11 * size, 3), dtype=np.float32)
        px[0, ::size] = 1.0
        ts = build_training_set([SlideImage("s", "a", px)], TilingSpec(size, size),
                                ["a", "b"])
        net = zeroed(dense_net(size=size))
        net.layers[0].w[0, 0] = 50.0
        config = RalConfig(tau=0.6, iterations=1, max_epochs=0, finetune_epochs=0)
        result = run_ral(net, ts, config)
        write_audit(tmp_path, result)
        rows = [line.split(",") for line in
                (tmp_path / "audit.csv").read_text().splitlines()[1:]]
        assert [(k, reason) for k, _, reason in rows] == (
            [("1", "confidence")] * 66 + [("1", "group")] * 22)
        for reason in ("confidence", "group"):
            ids = [pid for _, pid, r in rows if r == reason]
            assert ids == sorted(ids)
            record_order = [pid for pid in ts.patch_ids() if pid in set(ids)]
            assert ids != record_order
        assert sorted(pid for _, pid, _ in rows) == sorted(ts.patch_ids())

    def test_train_patch_acc_comes_from_a_pass_over_the_active_records(self):
        ts = toy_set(n_per_class=4, seed=2)
        config = RalConfig(iterations=2, max_epochs=3, finetune_epochs=1,
                           learning_rate=0.02, batch_size=8, seed=11)
        net = dense_net(seed=1)
        result = run_ral(net, ts, config)
        _, pred = score_training_set(net, ts)
        idx = ts.active_indices()
        expected = macro_accuracy(ts.label[idx], pred[idx], len(ts.class_names))
        assert result.reports[-1].train_patch_acc == expected
