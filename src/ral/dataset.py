"""Dataset directories: one folder per class name, slide_id = file stem.

Two layouts are accepted:

    root/<class>/<slide>.{ppm,pgm,ralt}            (flat; split at load time)
    root/{train,val}/<class>/<slide>.{...}         (pre-split)

``_layout`` tells them apart from directory names alone, for
``load_dataset`` and ``class_names_of`` alike: a pre-split dataset has
both train/ and val/, with the same class directories in each.

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


def _layout(root):
    """(split directories, class names) of dataset directory ``root``, read
    from directory names alone: (root/train, root/val) when it is pre-split,
    else (root,). Raises unless ``root`` is a directory that holds both or
    neither of train/ and val/, and both splits have the same class
    directories."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"dataset path {root} is not a directory")
    has_train, has_val = (root / "train").is_dir(), (root / "val").is_dir()
    if has_train != has_val:
        raise ValueError(f"{root}: found only one of train/ and val/")
    splits = (root / "train", root / "val") if has_train else (root,)
    names = [_class_dirs(d) for d in splits]
    if names[0] != names[-1]:
        raise ValueError(f"{root}: train and val class directories differ")
    return splits, names[0]


def _load_split(base, class_names, channels=None):
    slides = []
    for cname in class_names:
        files = sorted(p for p in (base / cname).iterdir()
                       if p.suffix in IMAGE_SUFFIXES)
        if not files:
            raise ValueError(f"{base / cname}: no slide images found")
        for f in files:
            slides.append(load_slide(f, cname, channels))
            channels = slides[-1].pixels.shape[2]
    return slides


def class_names_of(root):
    """Class directory names without loading any pixel data."""
    return _layout(root)[1]


def load_dataset(root, val_fraction=0.2, seed=0):
    """(train_slides, val_slides, class_names, oracle-or-None). The layout
    is checked before ``oracle.json`` is read, and every oracle label is one
    of the class names, before any slide is decoded."""
    splits, class_names = _layout(root)
    root = Path(root)
    oracle = None
    oracle_path = root / "oracle.json"
    if oracle_path.exists():
        oracle = MislabelOracle.from_json(oracle_path.read_text(), oracle_path)
        known = set(class_names)
        for e in oracle.entries.values():
            if e.assigned_label not in known or e.true_label not in known:
                label = e.true_label if e.assigned_label in known else e.assigned_label
                raise ValueError(f"{oracle_path}: group {e.group_id!r} has label {label!r}, "
                                 f"which is no class of the dataset ({', '.join(class_names)})")
        if (root / "generator.json").exists():
            meta = json.loads((root / "generator.json").read_text())
            if not isinstance(meta, dict) or not {"window", "stride"} <= meta.keys():
                raise ValueError(f"{root / 'generator.json'}: no window and stride of the regions")
            oracle.grid = (meta["window"], meta["stride"])
            # "16" or true would read as a grid that no tiling can match
            if not all(type(n) is int and n > 0 for n in oracle.grid):
                raise ValueError(f"{root / 'generator.json'}: window and stride must be positive "
                                 f"integers, got {oracle.grid[0]!r} and {oracle.grid[1]!r}")
    train = _load_split(splits[0], class_names)
    if len(splits) == 1:
        train, val = split_slides(train, val_fraction, seed)
    else:
        val = _load_split(splits[1], class_names, train[0].pixels.shape[2])
    return train, val, class_names, oracle
