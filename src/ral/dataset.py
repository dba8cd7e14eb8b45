"""Dataset directories: one folder per class name, slide_id = file stem.

Two layouts are accepted:

    root/<class>/<slide>.{ppm,pgm,ralt}            (flat; split at load time)
    root/{train,val}/<class>/<slide>.{...}         (pre-split)

Every slide of a dataset, in both splits, is HxWxC with one C: the first
slide's (``load_slide``, which reads ``ral predict-slide``'s image too).
An ``oracle.json`` at the root, when present, carries mislabel ground
truth for synthetic data, and a ``generator.json`` beside it the grid of
the oracle's regions.
"""

from __future__ import annotations

import json
from pathlib import Path

from .imageio import load_image
from .patches import SlideImage, split_slides
from .synth import MislabelOracle

IMAGE_SUFFIXES = (".ppm", ".pgm", ".ralt")


def _class_dirs(base):
    names = sorted(p.name for p in base.iterdir() if p.is_dir())
    if not names:
        raise ValueError(f"{base}: no class directories found")
    return names


def load_slide(path, class_label, channels=None, source="the dataset's first slide"):
    """The slide in image file ``path``; raises unless it is HxWxC with C > 0
    and, given ``channels``, C is the ``channels`` that ``source`` has."""
    path = Path(path)
    pixels = load_image(path)
    if pixels.ndim != 3 or not pixels.shape[2]:
        raise ValueError(f"{path}: slide shape {pixels.shape} is not HxWxC, C > 0")
    if channels and pixels.shape[2] != channels:
        raise ValueError(f"{path}: slide has {pixels.shape[2]} channels, but {source} "
                         f"has {channels}")
    return SlideImage(path.stem, class_label, pixels)


def _load_class_dirs(root, channels=None):
    slides = []
    class_names = _class_dirs(root)
    for cname in class_names:
        files = sorted(p for p in (root / cname).iterdir()
                       if p.suffix in IMAGE_SUFFIXES)
        if not files:
            raise ValueError(f"{root / cname}: no slide images found")
        for f in files:
            slides.append(load_slide(f, cname, channels))
            channels = slides[-1].pixels.shape[2]
    return slides, class_names


def require_splits(train, val):
    """Raise unless both splits hold a slide; run before any training, so
    that a split rounded down to nothing fails before the work, not after."""
    for name, split in (("training", train), ("validation", val)):
        if not split:
            raise ValueError(f"the {name} split is empty: raise val_fraction or "
                             f"add slides so that each split gets at least one")


def _root(root):
    """``root`` as a Path; raises unless it is a directory."""
    if not Path(root).is_dir():
        raise ValueError(f"dataset path {root} is not a directory")
    return Path(root)


def class_names_of(root):
    """Class directory names without loading any pixel data."""
    root = _root(root)
    return _class_dirs(root / "train" if (root / "train").is_dir() else root)


def load_dataset(root, val_fraction=0.2, seed=0):
    """(train_slides, val_slides, class_names, oracle-or-None)."""
    root = _root(root)
    oracle = None
    oracle_path = root / "oracle.json"
    if oracle_path.exists():
        oracle = MislabelOracle.from_json(oracle_path.read_text())
        if (root / "generator.json").exists():
            meta = json.loads((root / "generator.json").read_text())
            if not isinstance(meta, dict) or not {"window", "stride"} <= meta.keys():
                raise ValueError(f"{root / 'generator.json'}: no window and stride of the regions")
            oracle.grid = (meta["window"], meta["stride"])
    has_train, has_val = (root / "train").is_dir(), (root / "val").is_dir()
    if has_train != has_val:
        raise ValueError(f"{root}: found only one of train/ and val/")
    if has_train:
        train, train_names = _load_class_dirs(root / "train")
        val, val_names = _load_class_dirs(root / "val", train[0].pixels.shape[2])
        if train_names != val_names:
            raise ValueError(f"{root}: train and val class directories differ")
        return train, val, train_names, oracle
    slides, class_names = _load_class_dirs(root)
    train, val = split_slides(slides, val_fraction, seed)
    return train, val, class_names, oracle
