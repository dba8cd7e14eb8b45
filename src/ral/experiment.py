"""End-to-end experiment runner: dataset -> refinement loop -> artifacts.

Artifacts written to the output directory:

    report.json       full run record: resolved config, per-iteration rows,
                      oracle metrics when ground truth is available
    table1.csv        iteration,active_count
    table3.csv        iteration,patch_train,patch_val,slice_train,slice_val
    audit.csv         iteration,patch_id,reason   (one row per removal)
    checkpoint.ralw   final weights (+ checkpoint.json network spec)

Nothing here carries timestamps: identical config + seed, under one BLAS
thread count, reproduces every artifact byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .config import ExperimentConfig
from .loop import run_ral
from .nn import Network, save_checkpoint
from .patches import VARIANTS, build_training_set, require_splits
from .slices import SlideCells, evaluate_slides
from .synth import oracle_eval


@dataclass
class ExperimentOutput:
    result: object            # RalResult
    oracle_metrics: object    # OracleMetrics or None


def build_network_for(config: ExperimentConfig, class_names, in_channels):
    return Network(config.network_spec(in_channels, len(class_names)), seed=config.seed)


def make_evaluator(config, class_names, train_slides, val_slides):
    """Three of the four per-iteration accuracy numbers (run_ral supplies
    the train patch accuracy from its own pass over the active records).

    Every number comes from one non-overlapping grid pass per slide: the
    validation patch accuracy is the macro accuracy of the validation
    cells, and the slice accuracies are the macro accuracies of the votes.
    Each split is cut into its ``SlideCells`` once, here, and scored from
    them every round; a slide that the window does not divide fails here,
    before training.
    """
    train_cells, val_cells = (SlideCells(slides, config.tiling.window)
                              for slides in (train_slides, val_slides))

    def evaluator(net):
        train = evaluate_slides(net, train_cells, class_names)
        val = evaluate_slides(net, val_cells, class_names)
        return {"val_patch_acc": val["patch_acc"],
                "train_slice_acc": train["slice_acc"],
                "val_slice_acc": val["slice_acc"]}

    return evaluator


def run_experiment(config: ExperimentConfig, out_dir=None, write=True):
    """Run the full refinement experiment described by the config."""
    ral_config = replace(config.ral, seed=config.seed)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    train_slides, val_slides, class_names, oracle = config.load_dataset()
    require_splits(train_slides, val_slides)
    grid = (config.tiling.window, config.tiling.stride)
    if oracle is not None and oracle.grid not in (None, grid):
        raise ValueError(f"the oracle's regions are generator.json's window/stride "
                         f"{oracle.grid[0]}/{oracle.grid[1]} cells, but tiling cuts "
                         f"{grid[0]}/{grid[1]} cells: oracle metrics would score other pixels")

    ts = build_training_set(train_slides, config.tiling, class_names)
    # looked up before training, so that an oracle that lacks a group, or
    # disagrees with the training set's labels, fails first
    mislabeled = (None if oracle is None else
                  oracle.mislabeled(ts.group_ids(), ts.group_labels()).repeat(VARIANTS))
    in_channels = train_slides[0].pixels.shape[2]
    net = build_network_for(config, class_names, in_channels)
    evaluator = make_evaluator(config, class_names, train_slides, val_slides)

    result = run_ral(net, ts, ral_config, evaluator)

    # records start active and are only ever deactivated: inactive means removed
    oracle_metrics = None if oracle is None else oracle_eval(~ts.active, mislabeled)

    if write:
        out.mkdir(parents=True, exist_ok=True)
        write_report(out, config, class_names, result, oracle_metrics)
        write_tables(out, result)
        write_audit(out, result)
        save_checkpoint(out / "checkpoint.ralw", net)
    return ExperimentOutput(result, oracle_metrics)


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
