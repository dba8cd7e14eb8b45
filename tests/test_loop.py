import numpy as np
import pytest

from ral.loop import (IterationReport, RalConfig, finetune, initial_train,
                      prune_by_confidence, prune_by_group, run_ral,
                      score_training_set)
from ral.nn import LayerSpec, Network, NetworkSpec
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
        ts.deactivate([r.patch_id for r in ts.records])
        with pytest.raises(ValueError, match="empty"):
            initial_train(dense_net(), ts, RalConfig())


class TestScore:
    def test_uniform_net_scores_chance(self):
        ts = toy_set()
        net = zeroed(dense_net())
        scores = score_training_set(net, ts)
        assert len(scores) == len(ts)
        assert all(v == pytest.approx(0.5) for v in scores.values())  # 2 classes

    def test_uniform_net_four_classes(self):
        ts = toy_set(classes=("a", "b", "c", "d"))
        net = zeroed(dense_net(classes=4))
        scores = score_training_set(net, ts)
        assert all(v == pytest.approx(0.25) for v in scores.values())

    def test_saturated_prediction_scores_near_one(self):
        ts = toy_set()
        net = zeroed(dense_net())
        net.layers[0].b[0] = 50.0  # model shouts class 0
        scores = score_training_set(net, ts)
        for r in ts.records:
            expected = 1.0 if r.label == 0 else 0.0
            assert scores[r.patch_id] == pytest.approx(expected, abs=1e-6)

    def test_matches_single_patch_oracle(self):
        ts = toy_set(n_per_class=3)
        net = dense_net(seed=7)
        scores = score_training_set(net, ts)
        for r in ts.records:
            probs = net.forward(ts.pixels_of(r.patch_id)[None])
            assert scores[r.patch_id] == pytest.approx(float(probs[0, r.label]), abs=1e-6)

    def test_inactive_records_skipped(self):
        ts = toy_set()
        ts.deactivate([ts.records[0].patch_id])
        scores = score_training_set(zeroed(dense_net()), ts)
        assert ts.records[0].patch_id not in scores

    def test_max_mode(self):
        ts = toy_set()
        net = zeroed(dense_net())
        net.layers[0].b[1] = 50.0
        scores = score_training_set(net, ts, mode="max")
        assert all(v == pytest.approx(1.0, abs=1e-6) for v in scores.values())


class TestPruneByConfidence:
    def test_strict_threshold_boundary(self):
        ts = toy_set()
        scores = {r.patch_id: 0.5 for r in ts.records}
        low = ts.records[3].patch_id
        scores[low] = 0.49
        removed = prune_by_confidence(ts, scores, tau=0.5)
        assert removed == [low]
        assert ts.n_active == len(ts) - 1

    def test_full_confidence_removes_nothing(self):
        ts = toy_set()
        removed = prune_by_confidence(ts, {r.patch_id: 1.0 for r in ts.records}, 0.5)
        assert removed == []
        assert ts.n_active == len(ts)

    def test_chance_scores_remove_everything_at_default_tau(self):
        ts = toy_set(classes=("a", "b", "c", "d"))
        net = zeroed(dense_net(classes=4))
        scores = score_training_set(net, ts)
        removed = prune_by_confidence(ts, scores, 0.5)
        assert len(removed) == len(ts)
        assert ts.n_active == 0

    def test_missing_score_rejected(self):
        ts = toy_set()
        scores = {r.patch_id: 1.0 for r in ts.records[1:]}
        with pytest.raises(ValueError, match="no confidence score"):
            prune_by_confidence(ts, scores, 0.5)

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(9)
        ts = toy_set(n_per_class=3)
        scores = {r.patch_id: float(rng.random()) for r in ts.records}
        expected = sorted(pid for pid, s in scores.items() if s < 0.37)
        assert prune_by_confidence(ts, scores, 0.37) == expected


class TestPruneByGroup:
    def test_five_removed_takes_remaining_three(self):
        ts = toy_set(n_per_class=1)
        group = [r for r in ts.records if r.group_id == ts.records[0].group_id]
        hit = [r.patch_id for r in group[:5]]
        ts.deactivate(hit)
        extra = prune_by_group(ts, hit)
        assert sorted(extra) == sorted(r.patch_id for r in group[5:])

    def test_exactly_four_removed_keeps_rest(self):
        ts = toy_set(n_per_class=1)
        group = [r for r in ts.records if r.group_id == ts.records[0].group_id]
        hit = [r.patch_id for r in group[:4]]
        ts.deactivate(hit)
        assert prune_by_group(ts, hit) == []
        assert all(r.active for r in group[4:])

    def test_untouched_group_unchanged(self):
        ts = toy_set(n_per_class=1)
        assert prune_by_group(ts, []) == []
        assert ts.n_active == len(ts)

    def test_exhaustive_all_removal_patterns(self):
        for pattern in range(256):
            ts = toy_set(n_per_class=1)
            group = [r for r in ts.records if r.group_id == ts.records[0].group_id]
            hit = [group[i].patch_id for i in range(8) if pattern >> i & 1]
            ts.deactivate(hit)
            extra = prune_by_group(ts, hit)
            survivors = [r.patch_id for r in group if r.patch_id not in hit]
            if bin(pattern).count("1") > 4:
                assert sorted(extra) == sorted(survivors)
            else:
                assert extra == []

    def test_only_this_rounds_removals_count(self):
        # 3 removals in a previous round plus 2 now: group survives (2 <= 4)
        ts = toy_set(n_per_class=1)
        group = [r for r in ts.records if r.group_id == ts.records[0].group_id]
        earlier = [r.patch_id for r in group[:3]]
        ts.deactivate(earlier)
        now = [r.patch_id for r in group[3:5]]
        ts.deactivate(now)
        assert prune_by_group(ts, now) == []


class TestFinetune:
    def test_zero_epochs_unchanged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=0)
        before = [p.copy() for p in net.parameters()]
        log = finetune(net, ts, config, config.make_optimizer())
        assert log == []
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_zero_learning_rate_unchanged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=2, learning_rate=0.0)
        before = [p.copy() for p in net.parameters()]
        finetune(net, ts, config, config.make_optimizer())
        for a, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_loss_finite_and_logged(self):
        ts = toy_set()
        net = dense_net(seed=4)
        config = RalConfig(finetune_epochs=3, learning_rate=0.01, batch_size=4)
        log = finetune(net, ts, config, config.make_optimizer())
        assert len(log) == 3
        assert all(np.isfinite(s.loss) for s in log)


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
        adam = config.make_optimizer()
        rng = np.random.default_rng(config.seed)
        initial_train(net2, ts2, config, adam, rng)
        score_training_set(net2, ts2, config.confidence_mode)
        finetune(net2, ts2, config, adam, rng)
        score_training_set(net2, ts2, config.confidence_mode)
        finetune(net2, ts2, config, adam, rng)
        for a, b in zip(net1.parameters(), net2.parameters()):
            np.testing.assert_array_equal(a, b)

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
        inactive = {r.patch_id for r in ts.records if not r.active}
        assert set(audited) == inactive
