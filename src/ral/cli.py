"""Command-line interface.

    ral generate      --config FILE [--seed N] [--out DIR]
    ral tile          --config FILE [--seed N] [--out DIR]
    ral train         --config FILE [--seed N] [--out DIR]
    ral ral           --config FILE [--seed N] [--out DIR]
    ral eval          --config FILE --checkpoint W.ralw [--out DIR]
    ral predict-slide --config FILE --checkpoint W.ralw --image SLIDE [--out DIR]

All state flows through the config file and flags; no environment
variables. --seed and --out override the config's seed and output_dir.
Commands never write into the dataset directory, and an output directory
is locked for the duration of a run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from pathlib import Path

from .config import ExperimentConfig
from .dataset import class_names_of, load_dataset
from .experiment import build_network_for, run_experiment
from .imageio import load_image, save_image
from .loop import initial_train
from .metrics import macro_accuracy
from .nn import load_checkpoint, save_checkpoint
from .patches import (SlideImage, SlideMeta, TilingSpec, build_eval_patches,
                      build_manifest, build_training_set, manifest_to_dicts)
from .slices import predict_slide, render_class_map, slice_accuracy
from .synth import generate, write_dataset


@contextlib.contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise RuntimeError(f"output dir {out_dir} is locked by another run "
                           f"(remove {lock} if stale)") from None
    os.close(fd)
    try:
        yield out_dir
    finally:
        lock.unlink(missing_ok=True)


def _resolve(args):
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    return config, Path(config.output_dir)


def _dataset_path(config):
    if config.dataset_path is None:
        raise ValueError("config.dataset_path is required for this command")
    return config.dataset_path


def cmd_generate(args):
    config, out = _resolve(args)
    with output_lock(out):
        ds = generate(config.synthetic.build(config.seed))
        write_dataset(ds, out)
        n_mis = len(ds.oracle.mislabeled_groups())
        print(f"generated {len(ds.train_slides)} train + {len(ds.val_slides)} val slides "
              f"({', '.join(ds.class_names)}) with {n_mis}/{len(ds.oracle)} "
              f"mislabeled patch groups -> {out}")
    return 0


def cmd_tile(args):
    """Plan the training-set tiling and write it as a patch manifest."""
    config, out = _resolve(args)
    train_slides, val_slides, class_names, _ = load_dataset(
        _dataset_path(config), config.val_fraction, config.seed)
    tiling = TilingSpec(config.tiling.window, config.tiling.stride)
    records = build_manifest(
        [SlideMeta(s.slide_id, s.class_label, s.height, s.width) for s in train_slides],
        tiling, class_names)
    with output_lock(out):
        (out / "manifest.json").write_text(
            json.dumps(manifest_to_dicts(records, class_names), indent=1) + "\n")
    groups = len({r.group_id for r in records})
    print(f"tiled {len(train_slides)} training slides ({len(val_slides)} held out): "
          f"{groups} patch groups, {len(records)} augmented records "
          f"-> {out / 'manifest.json'}")
    return 0


def cmd_train(args):
    config, out = _resolve(args)
    train_slides, _, class_names, _ = load_dataset(
        _dataset_path(config), config.val_fraction, config.seed)
    tiling = TilingSpec(config.tiling.window, config.tiling.stride)
    ts = build_training_set(train_slides, tiling, class_names)
    net = build_network_for(config, class_names, train_slides[0].pixels.shape[2])
    with output_lock(out):
        log = initial_train(net, ts, config.ral.build(config.seed))
        save_checkpoint(out / "checkpoint.ralw", net)
        (out / "train_log.json").write_text(json.dumps(
            [{"epoch": s.epoch, "loss": s.loss, "accuracy": s.accuracy}
             for s in log], indent=1) + "\n")
    last = log[-1] if log else None
    print(f"trained {len(log)} epochs on {ts.n_active} records"
          + (f" (final loss {last.loss:.4f}, acc {last.accuracy:.3f})" if last else "")
          + f" -> {out / 'checkpoint.ralw'}")
    return 0


def cmd_ral(args):
    config, out = _resolve(args)
    with output_lock(out):
        output = run_experiment(config, out)
    for r in output.result.reports:
        print(f"k={r.k}: active {r.active_before} -> {r.active_after} "
              f"(-{r.removed_by_confidence} confidence, -{r.removed_by_group} group) "
              f"val patch {_p(r.val_patch_acc)} val slice {_p(r.val_slice_acc)}")
    if output.oracle_metrics is not None:
        m = output.oracle_metrics
        print(f"oracle: mislabel recall {m.mislabel_recall:.3f}, "
              f"clean false-removal rate {m.clean_false_removal_rate:.3f}")
    print(f"status {output.result.status}, {output.result.total_epochs} epochs -> {out}")
    return 0


def _p(v):
    return "n/a" if v is None else f"{v:.2f}%"


def cmd_eval(args):
    config, out = _resolve(args)
    net = load_checkpoint(args.checkpoint)
    train_slides, val_slides, class_names, _ = load_dataset(
        _dataset_path(config), config.val_fraction, config.seed)
    n = len(class_names)
    window = config.eval_window
    tiling = TilingSpec(window, window)
    truth = {s.slide_id: class_names.index(s.class_label)
             for s in train_slides + val_slides}
    summary = {}
    for split, slides in (("train", train_slides), ("val", val_slides)):
        x, y, _ = build_eval_patches(slides, tiling, class_names)
        patch_pred = net.predict_proba(x).argmax(axis=1)
        votes = [predict_slide(net, s, window) for s in slides]
        macro_slice, plain_slice = slice_accuracy(votes, truth, n)
        summary[split] = {
            "patch_acc": macro_accuracy(y, patch_pred, n),
            "slice_acc": macro_slice,
            "slice_acc_plain": plain_slice,
        }
    with output_lock(out):
        (out / "eval.json").write_text(json.dumps(summary, indent=1) + "\n")
    for split, row in summary.items():
        print(f"{split}: patch {row['patch_acc']:.2f}% slice {row['slice_acc']:.2f}%")
    return 0


def cmd_predict_slide(args):
    config, out = _resolve(args)
    net = load_checkpoint(args.checkpoint)
    pixels = load_image(args.image)
    slide_id = Path(args.image).stem
    if config.dataset_path and Path(config.dataset_path).is_dir():
        class_names = class_names_of(config.dataset_path)
    else:
        class_names = [f"class{i}" for i in range(net.spec.classes)]
    slide = SlideImage(slide_id, class_names[0], pixels)
    pred = predict_slide(net, slide, config.eval_window)
    with output_lock(out):
        map_path = out / f"classmap_{slide_id}.ppm"
        save_image(map_path, render_class_map(pred, class_names,
                                              cell_size=config.eval_window))
    counts = ", ".join(f"{class_names[c]}:{n}" for c, n in sorted(pred.vote_counts.items()))
    print(f"{slide_id}: {class_names[pred.voted_label]} "
          f"(votes {counts}{', tie broken' if pred.tie_broken else ''}) -> {map_path}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "tile": cmd_tile,
    "train": cmd_train,
    "ral": cmd_ral,
    "eval": cmd_eval,
    "predict-slide": cmd_predict_slide,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ral",
        description="Training-set refinement by reversed active learning: "
                    "tile, train, prune low-confidence patches, vote slides.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output_dir")
        if name in ("eval", "predict-slide"):
            p.add_argument("--checkpoint", required=True, help="weights file (.ralw)")
        if name == "predict-slide":
            p.add_argument("--image", required=True, help="slide image to classify")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as e:
        print(f"ral: error: {e}", file=sys.stderr)
        detail = None
        with contextlib.suppress(Exception):
            out = Path(args.out) if args.out else None
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                detail = out / "error.log"
                detail.write_text(traceback.format_exc())
        if detail:
            print(f"ral: detail in {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
