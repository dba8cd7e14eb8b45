"""Command-line interface.

    ral generate      --config FILE [--seed N] [--out DIR]
    ral tile          --config FILE [--seed N] [--out DIR]
    ral train         --config FILE [--seed N] [--out DIR]
    ral ral           --config FILE [--seed N] [--out DIR]
    ral eval          --config FILE --checkpoint W.ralw [--out DIR]
    ral predict-slide --config FILE --checkpoint W.ralw --image SLIDE [--out DIR]

All state flows through the config file and flags; no environment
variables. --seed and --out override the config's seed and output_dir.
``main`` loads the config and locks the output directory once, for the
whole of every command. Commands never write into the dataset directory.

The lock is an exclusive ``flock`` on ``<out>/.lock``, which names its
holder's pid. The kernel drops it when the holder exits or is killed, so
a run that died leaves no lock behind: the next run takes the file over
and says so on stderr. A live holder's directory is refused before any
data or checkpoint is read.

``main`` builds its argument parser once per process (``build_parser`` is
cached), so an in-process caller that runs many commands pays for it once.

A command owns its whole process, so ``main`` also limits glibc's malloc
to one arena: the helper thread of a two-lane read-only pass
(``Network.predict_proba``) then reuses the main heap, where an arena of
its own would hold a second set of chunk buffers. The mmap and trim
thresholds that keep freed memory in the process are set by importing
``ral.nn`` (``nn.network.keep_freed_memory``), for every caller.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import json
import os
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path

from .config import ExperimentConfig
from .dataset import class_names_of, load_slide
from .experiment import build_network_for, run_experiment
from .imageio import save_image
from .loop import initial_train
from .nn import load_checkpoint, save_checkpoint
from .nn.network import M_ARENA_MAX, mallopt
from .patches import (VARIANTS, build_manifest, build_training_set, manifest_to_dicts,
                      require_splits)
from .slices import SlideCells, evaluate_slides, predict_slide, render_class_map
from .synth import generate, write_dataset


class OutputLocked(RuntimeError):
    """Another run holds the output directory's lock; the directory is its."""


def _holder(fd):
    """' (pid N)' for the pid that the lock file names, or ''."""
    with contextlib.suppress(OSError, ValueError):
        return f" (pid {int(os.pread(fd, 32, 0))})"
    return ""


@contextlib.contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = _holder(fd)
            os.close(fd)
            raise OutputLocked(f"output dir {out_dir} is locked by another run{holder}") from None
        # a releasing run unlinks the file before it unlocks it: the lock
        # counts only while the path still names the locked file
        with contextlib.suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fd), os.stat(lock)):
                break
        os.close(fd)
    try:
        if os.fstat(fd).st_size:  # a clean release unlinks the file, so its holder died
            print(f"ral: taking over {lock} from a run that ended without releasing it"
                  f"{_holder(fd)}", file=sys.stderr)
            os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()}\n".encode(), 0)
        yield out_dir
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _resolve(args):
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    flags = {k: v for k, v in (("seed", args.seed), ("output_dir", args.out)) if v is not None}
    if flags:
        config = replace(config, **flags)
    return config, Path(config.output_dir)


def cmd_generate(args, config, out):
    ds = generate(config.synthetic.build(config.seed, config.val_fraction))
    write_dataset(ds, out)
    n_mis = int(ds.oracle.mislabeled(ds.oracle.entries).sum())
    print(f"generated {len(ds.train_slides)} train + {len(ds.val_slides)} val slides "
          f"({', '.join(ds.class_names)}) with {n_mis}/{len(ds.oracle)} "
          f"mislabeled patch groups -> {out}")
    return 0


def cmd_tile(args, config, out):
    """Plan the training-set tiling and write it as a patch manifest."""
    train_slides, val_slides, class_names, _ = config.load_dataset()
    manifest = build_manifest(train_slides, config.tiling, class_names)
    (out / "manifest.json").write_text(json.dumps(manifest_to_dicts(manifest), indent=1) + "\n")
    print(f"tiled {len(train_slides)} training slides ({len(val_slides)} held out): "
          f"{len(manifest) // VARIANTS} patch groups, {len(manifest)} augmented records "
          f"-> {out / 'manifest.json'}")
    return 0


def cmd_train(args, config, out):
    train_slides, _, class_names, _ = config.load_dataset()
    ts = build_training_set(train_slides, config.tiling, class_names)
    net = build_network_for(config, class_names, train_slides[0].pixels.shape[2])
    log = initial_train(net, ts, replace(config.ral, seed=config.seed))
    save_checkpoint(out / "checkpoint.ralw", net)
    (out / "train_log.json").write_text(json.dumps([asdict(s) for s in log], indent=1) + "\n")
    last = log[-1] if log else None
    print(f"trained {len(log)} epochs on {ts.n_active} records"
          + (f" (final loss {last.loss:.4f}, acc {last.accuracy:.3f})" if last else "")
          + f" -> {out / 'checkpoint.ralw'}")
    return 0


def cmd_ral(args, config, out):
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
    if output.result.status == "completed":
        return 0
    # every artifact is written, so the failure can be audited; no traceback to log
    r = output.result.reports[-1]
    print(f"ral: error: run ended {output.result.status} in round {r.k}: "
          f"{r.active_before - r.active_after} of {r.active_before} records removed",
          file=sys.stderr)
    return 1


def _p(v):
    return "n/a" if v is None else f"{v:.2f}%"


def _require_classes(net, class_names, checkpoint):
    if net.spec.classes != len(class_names):
        raise ValueError(f"checkpoint {checkpoint} outputs {net.spec.classes} classes, "
                         f"but the dataset has {len(class_names)}")


def _load_grid_checkpoint(path):
    """(network, window, channels) of checkpoint ``path``. Slides are cut
    into square cells, so a checkpoint of non-square input is rejected."""
    net = load_checkpoint(path)
    height, width, channels = net.spec.input
    if height != width:
        raise ValueError(f"checkpoint {path} takes {height}x{width} (HxW) input, not square")
    return net, height, channels


def cmd_eval(args, config, out):
    """Patch and slide accuracy of the checkpoint on both splits, written as
    eval.json. The grid window is the checkpoint's input size, whatever the
    config's tiling; a checkpoint whose class or channel count is not the
    dataset's is rejected before any forward pass or write, and one of
    non-square input before the dataset is read."""
    net, window, channels = _load_grid_checkpoint(args.checkpoint)
    train_slides, val_slides, class_names, _ = config.load_dataset()
    require_splits(train_slides, val_slides)
    _require_classes(net, class_names, args.checkpoint)
    if train_slides[0].pixels.shape[2] != channels:  # every slide has the first one's count
        raise ValueError(f"checkpoint {args.checkpoint} takes {channels}-channel input, but "
                         f"the dataset's slides have {train_slides[0].pixels.shape[2]} channels")
    summary = {split: evaluate_slides(net, SlideCells(slides, window), class_names)
               for split, slides in (("train", train_slides), ("val", val_slides))}
    (out / "eval.json").write_text(json.dumps(summary, indent=1) + "\n")
    for split, row in summary.items():
        print(f"{split}: patch {row['patch_acc']:.2f}% slice {row['slice_acc']:.2f}%")
    return 0


def cmd_predict_slide(args, config, out):
    """Classify one slide and write its class map. Class names come from the
    dataset's class directories, under the layout check of ``load_dataset``,
    or are ``class0``, ``class1``, ... when the config sets no dataset_path."""
    net, window, channels = _load_grid_checkpoint(args.checkpoint)
    if config.dataset_path is None:
        class_names = [f"class{i}" for i in range(net.spec.classes)]
    else:
        class_names = class_names_of(config.dataset_path)
    _require_classes(net, class_names, args.checkpoint)
    slide = load_slide(args.image, class_names[0], channels,
                       f"the input of checkpoint {args.checkpoint}")
    pred = predict_slide(net, slide, window)
    map_path = out / f"classmap_{slide.slide_id}.ppm"
    save_image(map_path, render_class_map(pred, class_names, cell_size=window))
    counts = ", ".join(f"{class_names[c]}:{n}" for c, n in sorted(pred.vote_counts.items()))
    print(f"{slide.slide_id}: {class_names[pred.voted_label]} "
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


@functools.cache
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
    mallopt(M_ARENA_MAX, 1)
    args = build_parser().parse_args(argv)
    out = args.out  # where error.log goes when the config does not load
    try:
        config, out = _resolve(args)
        with output_lock(out):
            return COMMANDS[args.command](args, config, out)
    except Exception as e:
        print(f"ral: error: {e}", file=sys.stderr)
        if isinstance(e, OutputLocked):  # leave the holder's directory as it is
            return 1
        detail = None
        with contextlib.suppress(Exception):
            out = Path(out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.log").write_text(traceback.format_exc())
            detail = out / "error.log"
        if detail:
            print(f"ral: detail in {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
