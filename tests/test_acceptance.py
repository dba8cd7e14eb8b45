"""Acceptance suite: one test per criterion, each printing a scoreboard line.

The heavyweight desk-scale experiment (criteria 4, 5, 6) runs once in a
session fixture and is shared: five seeded refinement runs, one repeat of
the first seed through the CLI for byte determinism, and one tau=0
baseline with the identical epoch budget.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from ral.cli import main
from ral.config import ExperimentConfig
from ral.experiment import run_experiment
from ral.loop import prune_by_confidence, prune_by_group
from ral.nn import LayerSpec, Network, NetworkSpec, build_classifier, gradient_check
from ral.patches import (SlideMeta, TilingSpec, augment8, build_manifest,
                         grid_counts, variant_transform)
from ral.slices import majority_vote
from ral.synth import generate, write_dataset

CLASSES = ["Benign", "InSitu", "Invasive", "Normal"]

DESK_PRESET = {
    "tiling": {"window": 32, "stride": 32},
    "network": {"channel_plan": [8, 16, 8]},
    "ral": {"tau": 0.5, "group_threshold": 4, "iterations": 3,
            "max_epochs": 6, "target_train_accuracy": 1.01,
            "finetune_epochs": 2, "batch_size": 64, "learning_rate": 1e-3},
    "synthetic": {"classes": 4, "slide_size": [128, 128], "window": 32,
                  "stride": 32, "slides_per_class": 10,
                  "contamination_rho": 0.1},
}
SEEDS = (0, 1, 2, 3, 4)


def desk_config(root, seed):
    cfg = json.loads(json.dumps(DESK_PRESET))
    cfg["seed"] = seed
    cfg["dataset_path"] = str(root / f"data{seed}")
    cfg["output_dir"] = str(root / f"run{seed}")
    return cfg


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()

    # seed 0 goes through the CLI twice for the byte-determinism criterion
    cfg0 = desk_config(root, SEEDS[0])
    cfg0_path = root / "cfg0.json"
    cfg0_path.write_text(json.dumps(cfg0))
    ds0 = generate(ExperimentConfig.from_dict(cfg0).synthetic.build(cfg0["seed"]))
    write_dataset(ds0, cfg0["dataset_path"])
    assert main(["ral", "--config", str(cfg0_path)]) == 0
    out0 = Path(cfg0["output_dir"])
    first_bytes = {n: (out0 / n).read_bytes() for n in ("report.json", "audit.csv")}
    assert main(["ral", "--config", str(cfg0_path)]) == 0
    second_bytes = {n: (out0 / n).read_bytes() for n in ("report.json", "audit.csv")}
    report0 = json.loads(first_bytes["report.json"])

    # remaining seeds, in process (same engine the CLI drives)
    seed_trajectories = {SEEDS[0]: [r["val_slice_acc"] for r in report0["iterations"]]}
    all_reports = [list(report0["iterations"])]
    for seed in SEEDS[1:]:
        cfg = desk_config(root, seed)
        config = ExperimentConfig.from_dict(cfg)
        ds = generate(config.synthetic.build(seed))
        write_dataset(ds, cfg["dataset_path"])
        out = run_experiment(config, write=False)
        seed_trajectories[seed] = [r.val_slice_acc for r in out.result.reports]
        all_reports.append([r.to_dict() for r in out.result.reports])

    # tau=0 baseline at seed 0: same epoch budget, no pruning
    cfg_base = desk_config(root, SEEDS[0])
    cfg_base["ral"]["tau"] = 0.0
    baseline = run_experiment(ExperimentConfig.from_dict(cfg_base),
                              root / "baseline", write=False)
    all_reports.append([r.to_dict() for r in baseline.result.reports])

    return {
        "report0": report0,
        "first_bytes": first_bytes,
        "second_bytes": second_bytes,
        "trajectories": seed_trajectories,
        "all_reports": all_reports,
        "baseline_final_val_slice": baseline.result.reports[-1].val_slice_acc,
        "baseline_epochs": baseline.result.total_epochs,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    conv = lambda k, c: LayerSpec("conv", k, c, "relu")
    nets = [
        ("dense-only", NetworkSpec((6, 6, 2), (LayerSpec("dense", channels=4),), 4)),
        ("1x1-conv", NetworkSpec((6, 6, 3),
                                 (conv(1, 4), LayerSpec("avgpool"),
                                  LayerSpec("dense", channels=4)), 4)),
        ("3x3-conv+pool", NetworkSpec((8, 8, 3),
                                      (conv(3, 4), LayerSpec("maxpool", 2),
                                       LayerSpec("avgpool"),
                                       LayerSpec("dense", channels=4)), 4)),
        ("3x3-conv", NetworkSpec((6, 6, 2),
                                 (conv(3, 3), LayerSpec("dense", channels=4)), 4)),
        ("trunk-shaped", build_classifier(8, (2, 4, 2))),
    ]
    worst = 0.0
    failures = []
    for i, (name, spec) in enumerate(nets):
        net = Network(spec, seed=10 + i)
        rng = np.random.default_rng(20 + i)
        batch = rng.random((3,) + tuple(spec.input), dtype=np.float32)
        labels = rng.integers(0, spec.classes, size=3)
        report = gradient_check(net, batch, labels, h=1e-3, tol=1e-4, max_coords=48)
        worst = max(worst, report.max_rel_err)
        if not report.ok:
            failures.append((name, report.summary()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    record_criterion(1, ok, f"{len(nets)} nets, max rel err {worst:.2e} "
                            f"(tol 1e-4), {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_2_counting_fidelity():
    t0 = time.perf_counter()
    overlap = grid_counts(1536, 2048, 512, 256)
    nonoverlap = grid_counts(1536, 2048, 512, 512)
    metas = [SlideMeta(f"{c}_{i:03d}", c, 1536, 2048)
             for c in CLASSES for i in range(80)]
    records = build_manifest(metas, TilingSpec(512, 256), CLASSES)
    elapsed = time.perf_counter() - t0
    ok = (overlap == (7, 5) and nonoverlap == (4, 3)
          and len(records) == 89_600 and elapsed < 5.0)
    record_criterion(2, ok, f"35/12 patches per slide, {len(records)} records "
                            f"from 4x80 slides, {elapsed:.2f}s")
    assert overlap == (7, 5) and 7 * 5 == 35
    assert nonoverlap == (4, 3) and 4 * 3 == 12
    assert len(records) == 89_600
    assert elapsed < 5.0


def one_group_set():
    return build_manifest([SlideMeta("s", "Benign", 512, 512)],
                          TilingSpec(512, 512), CLASSES)


def test_criterion_3_pruning_rule_exactness():
    t0 = time.perf_counter()
    group_rule_ok = True
    for pattern in range(256):
        ts = one_group_set()
        hit = [i for i in range(8) if pattern >> i & 1]
        ts.active[hit] = False
        extra = prune_by_group(ts, hit, group_threshold=4)
        survivors = [i for i in range(8) if i not in hit]
        expected = survivors if len(hit) > 4 else []
        if extra.tolist() != expected or ts.n_active != 8 - len(hit) - len(extra):
            group_rule_ok = False
            break
    ts = one_group_set()
    scores = np.full(len(ts), 0.50)
    scores[0] = 0.49
    removed = prune_by_confidence(ts, scores, tau=0.5)
    boundary_ok = removed.tolist() == [0] and ts.n_active == 7
    elapsed = time.perf_counter() - t0
    ok = group_rule_ok and boundary_ok and elapsed < 1.0
    record_criterion(3, ok, f"2^8 group patterns exact, 0.49 removed / 0.50 kept, "
                            f"{elapsed:.2f}s")
    assert group_rule_ok
    assert boundary_ok
    assert elapsed < 1.0


def test_criterion_4_monotone_bookkeeping(desk_runs):
    bad = []
    for reports in desk_runs["all_reports"]:
        prev = reports[0]["active_before"]
        for row in reports:
            if row["active_after"] != (row["active_before"]
                                       - row["removed_by_confidence"]
                                       - row["removed_by_group"]):
                bad.append(("reconcile", row))
            if row["active_after"] > prev:
                bad.append(("monotone", row))
            prev = row["active_after"]
    n_rows = sum(len(r) for r in desk_runs["all_reports"])
    record_criterion(4, not bad, f"{n_rows} iteration rows across "
                                 f"{len(desk_runs['all_reports'])} runs reconcile, "
                                 f"counts non-increasing")
    assert not bad, bad


def test_criterion_5_desk_scale_efficacy(desk_runs):
    m = desk_runs["report0"]["oracle_metrics"]
    recall_ok = m["mislabel_recall"] >= 0.6
    false_ok = m["clean_false_removal_rate"] <= 0.15

    ral_final = desk_runs["report0"]["iterations"][-1]["val_slice_acc"]
    base_final = desk_runs["baseline_final_val_slice"]
    budget_match = (desk_runs["report0"]["total_epochs"]
                    == desk_runs["baseline_epochs"])
    baseline_ok = ral_final >= base_final and budget_match

    nondecreasing = sum(
        all(a <= b + 1e-9 for a, b in zip(traj, traj[1:]))
        for traj in desk_runs["trajectories"].values())
    trend_ok = nondecreasing >= 3

    elapsed_ok = desk_runs["elapsed"] < 900.0
    ok = recall_ok and false_ok and baseline_ok and trend_ok and elapsed_ok
    record_criterion(
        5, ok,
        f"recall {m['mislabel_recall']:.3f} (>=0.6), "
        f"false removal {m['clean_false_removal_rate']:.3f} (<=0.15), "
        f"RAL {ral_final:.2f}% vs baseline {base_final:.2f}% at equal "
        f"{desk_runs['baseline_epochs']}-epoch budget, "
        f"trend non-decreasing on {nondecreasing}/5 seeds (>=3), "
        f"{desk_runs['elapsed']:.0f}s (<900s)")
    assert recall_ok and false_ok, m
    assert baseline_ok, (ral_final, base_final, budget_match)
    assert trend_ok, desk_runs["trajectories"]
    assert elapsed_ok, desk_runs["elapsed"]


def test_criterion_6_byte_determinism(desk_runs):
    same = {name: desk_runs["first_bytes"][name] == desk_runs["second_bytes"][name]
            for name in ("report.json", "audit.csv")}
    ok = all(same.values())
    record_criterion(6, ok, "report.json and audit.csv byte-identical across "
                            "two identical cmd_ral runs")
    assert ok, same


def test_criterion_7_augmentation_group_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    patch = rng.random((16, 16, 3), dtype=np.float32)

    r4 = patch
    for _ in range(4):
        r4 = np.rot90(r4, axes=(0, 1))
    rotation_ok = np.array_equal(r4, patch)
    flip_ok = np.array_equal(np.flipud(np.flipud(patch)), patch)

    variants = augment8(patch)
    distinct_ok = all(not np.array_equal(variants[i], variants[j])
                      for i in range(8) for j in range(i + 1, 8))
    keys = {v.tobytes() for v in variants}
    closure_ok = all(
        np.ascontiguousarray(variant_transform(v, t)).tobytes() in keys
        for v in variants for t in range(8))
    elapsed = time.perf_counter() - t0
    ok = rotation_ok and flip_ok and distinct_ok and closure_ok and elapsed < 1.0
    record_criterion(7, ok, f"rotation^4=id, flip^2=id, 8 distinct variants, "
                            f"closed under all transforms, {elapsed:.2f}s")
    assert rotation_ok and flip_ok and distinct_ok and closure_ok
    assert elapsed < 1.0


def test_criterion_8_voting_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    perm_ok = True
    for _ in range(30):
        probs = rng.random((12, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = probs.argmax(axis=1)
        base = majority_vote(labels.reshape(3, 4), probs.reshape(3, 4, 4))[0]
        for _ in range(10):
            p = rng.permutation(12)
            got = majority_vote(labels[p].reshape(3, 4), probs[p].reshape(3, 4, 4))[0]
            if got != base:
                perm_ok = False

    majority_ok = True
    for _ in range(100):
        winner = int(rng.integers(0, 4))
        labels = np.full(12, winner)
        labels[:5] = rng.integers(0, 4, size=5)  # winner keeps >= 7 of 12 cells
        probs = rng.random((12, 4))
        got, tie_broken, _ = majority_vote(labels.reshape(3, 4), probs.reshape(3, 4, 4))
        if got != winner or tie_broken:
            majority_ok = False

    # documented fixture: counts {A: 6, B: 6}, summed prob A 6.2 > B 5.8
    labels = np.array([0] * 6 + [1] * 6)
    probs = np.zeros((12, 2))
    probs[:6] = (0.70, 0.30)
    probs[6:] = (0.30, 0.70)
    probs[0] = (0.90, 0.10)  # pushes sum A to 6.2 vs B 5.8
    got, tie_broken, _ = majority_vote(labels.reshape(3, 4), probs.reshape(3, 4, 2))
    sums = probs.sum(axis=0)
    fixture_ok = (got == 0 and tie_broken
                  and sums[0] == pytest.approx(6.2) and sums[1] == pytest.approx(5.8))

    elapsed = time.perf_counter() - t0
    ok = perm_ok and majority_ok and fixture_ok and elapsed < 1.0
    record_criterion(8, ok, f"vote permutation-invariant, strict majority never "
                            f"tie-breaks, 6-6 tie resolved by summed probability, "
                            f"{elapsed:.2f}s")
    assert perm_ok and majority_ok and fixture_ok
    assert elapsed < 1.0
