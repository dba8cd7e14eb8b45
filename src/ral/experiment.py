"""End-to-end experiment runner: dataset -> refinement loop -> artifacts.

Artifacts written to the output directory:

    report.json       full run record: resolved config, per-iteration rows,
                      oracle metrics when ground truth is available
    table1.csv        iteration,active_count
    table3.csv        iteration,patch_train,patch_val,slice_train,slice_val
    audit.csv         iteration,patch_id,reason   (one row per removal)
    checkpoint.ralw   final weights (+ checkpoint.json network spec)

Nothing here carries timestamps: identical config + seed reproduces every
artifact byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .config import ExperimentConfig
from .dataset import load_dataset, require_splits
from .loop import run_ral
from .nn import Network, build_classifier, save_checkpoint
from .patches import TilingSpec, build_training_set
from .slices import evaluate_slides
from .synth import oracle_eval


@dataclass
class ExperimentOutput:
    result: object            # RalResult
    net: object
    class_names: list
    oracle_metrics: object    # OracleMetrics or None
    out_dir: Path


def build_network_for(config: ExperimentConfig, class_names, in_channels):
    spec = build_classifier(config.tiling.window, config.network.channel_plan,
                            in_channels=in_channels, classes=len(class_names),
                            stem_channels=config.network.stem_channels)
    return Network(spec, seed=config.seed)


def make_evaluator(config, class_names, train_slides, val_slides):
    """Three of the four per-iteration accuracy numbers (run_ral supplies
    the train patch accuracy from its own pass over the active records).

    Every number comes from one non-overlapping grid pass per slide: the
    validation patch accuracy is the macro accuracy of the validation
    cells, and the slice accuracies are the macro accuracies of the votes.
    """
    window = config.eval_window

    def evaluator(net):
        train = evaluate_slides(net, train_slides, window, class_names)
        val = evaluate_slides(net, val_slides, window, class_names)
        return {"val_patch_acc": val["patch_acc"],
                "train_slice_acc": train["slice_acc"],
                "val_slice_acc": val["slice_acc"]}

    return evaluator


def run_experiment(config: ExperimentConfig, out_dir=None, write=True):
    """Run the full refinement experiment described by the config."""
    if config.dataset_path is None:
        raise ValueError("config.dataset_path is required for this command")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    train_slides, val_slides, class_names, oracle = load_dataset(
        config.dataset_path, config.val_fraction, config.seed)
    require_splits(train_slides, val_slides)

    tiling = TilingSpec(config.tiling.window, config.tiling.stride)
    ts = build_training_set(train_slides, tiling, class_names)
    population = ts.patch_ids()
    in_channels = train_slides[0].pixels.shape[2]
    net = build_network_for(config, class_names, in_channels)
    evaluator = make_evaluator(config, class_names, train_slides, val_slides)

    result = run_ral(net, ts, config.ral.build(config.seed), evaluator)

    oracle_metrics = None
    if oracle is not None:
        removed = [pid for _, pid, _ in result.audit]
        oracle_metrics = oracle_eval(removed, population, oracle)

    if write:
        out.mkdir(parents=True, exist_ok=True)
        write_report(out, config, class_names, result, oracle_metrics)
        write_tables(out, result)
        write_audit(out, result)
        save_checkpoint(out / "checkpoint.ralw", net)
    return ExperimentOutput(result, net, class_names, oracle_metrics, out)


def write_report(out, config, class_names, result, oracle_metrics):
    report = {
        "config": config.to_dict(),
        "class_names": class_names,
        "status": result.status,
        "total_epochs": result.total_epochs,
        "iterations": [r.to_dict() for r in result.reports],
        "oracle_metrics": asdict(oracle_metrics) if oracle_metrics else None,
    }
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")


def _fmt(v):
    return "" if v is None else f"{v:.2f}"


def write_tables(out, result):
    lines1 = ["iteration,active_count"]
    lines3 = ["iteration,patch_train,patch_val,slice_train,slice_val"]
    for r in result.reports:
        lines1.append(f"{r.k},{r.active_after}")
        lines3.append(f"{r.k},{_fmt(r.train_patch_acc)},{_fmt(r.val_patch_acc)},"
                      f"{_fmt(r.train_slice_acc)},{_fmt(r.val_slice_acc)}")
    (out / "table1.csv").write_text("\n".join(lines1) + "\n")
    (out / "table3.csv").write_text("\n".join(lines3) + "\n")


def write_audit(out, result):
    lines = ["iteration,patch_id,reason"]
    lines.extend(f"{k},{pid},{reason}" for k, pid, reason in result.audit)
    (out / "audit.csv").write_text("\n".join(lines) + "\n")
