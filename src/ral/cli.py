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
import ctypes
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

from .config import ExperimentConfig
from .dataset import class_names_of, load_dataset, require_splits
from .experiment import build_network_for, run_experiment
from .imageio import load_image, save_image
from .loop import initial_train
from .nn import load_checkpoint, save_checkpoint
from .patches import (VARIANTS, SlideImage, TilingSpec, build_manifest, build_training_set,
                      manifest_to_dicts)
from .slices import evaluate_slides, predict_slide, render_class_map
from .synth import generate, write_dataset


# mallopt parameters of glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory():
    """Have glibc's malloc keep freed memory in the process for reuse.

    A training step frees a few MB of patch matrices and activations that
    the next step allocates again. By default glibc maps blocks above its
    mmap threshold (128 KiB, raised only after a larger mapped block is
    freed) and unmaps them on free, and returns a free heap top above
    twice that to the OS, so each step faults its working memory back in.
    Fixed thresholds keep blocks up to 32 MiB on the heap and up to 64 MiB
    of free heap in the process. Does nothing where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


class OutputLocked(RuntimeError):
    """Another run holds the output directory's lock; the directory is its."""


@contextlib.contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        holder = ""
        with contextlib.suppress(OSError, ValueError):
            holder = f" (pid {int(lock.read_text())})"
        raise OutputLocked(f"output dir {out_dir} is locked by another run{holder} "
                           f"(remove {lock} if stale)") from None
    os.write(fd, f"{os.getpid()}\n".encode())
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


def _error_dir(args):
    """The resolved output directory, or --out when the config does not load."""
    with contextlib.suppress(Exception):
        return _resolve(args)[1]
    return Path(args.out)


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
    manifest = build_manifest(train_slides, tiling, class_names)
    with output_lock(out):
        (out / "manifest.json").write_text(
            json.dumps(manifest_to_dicts(manifest), indent=1) + "\n")
    print(f"tiled {len(train_slides)} training slides ({len(val_slides)} held out): "
          f"{len(manifest) // VARIANTS} patch groups, {len(manifest)} augmented records "
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
        (out / "train_log.json").write_text(
            json.dumps([asdict(s) for s in log], indent=1) + "\n")
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
    require_splits(train_slides, val_slides)
    summary = {split: evaluate_slides(net, slides, config.eval_window, class_names)
               for split, slides in (("train", train_slides), ("val", val_slides))}
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
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as e:
        print(f"ral: error: {e}", file=sys.stderr)
        if isinstance(e, OutputLocked):  # leave the holder's directory as it is
            return 1
        detail = None
        with contextlib.suppress(Exception):
            out = _error_dir(args)
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.log").write_text(traceback.format_exc())
            detail = out / "error.log"
        if detail:
            print(f"ral: detail in {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
