"""Dataset directories: one folder per class name, slide_id = file stem.

Two layouts are accepted:

    root/<class>/<slide>.{ppm,pgm,ralt}            (flat; split at load time)
    root/{train,val}/<class>/<slide>.{...}         (pre-split)

An ``oracle.json`` at the root, when present, carries mislabel ground truth
for synthetic data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .imageio import load_image
from .patches import SlideImage
from .synth import MislabelOracle, _round_half_up

IMAGE_SUFFIXES = (".ppm", ".pgm", ".ralt")


def _load_class_dirs(root):
    root = Path(root)
    slides = []
    class_names = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not class_names:
        raise ValueError(f"{root}: no class directories found")
    for cname in class_names:
        files = sorted(p for p in (root / cname).iterdir()
                       if p.suffix in IMAGE_SUFFIXES)
        if not files:
            raise ValueError(f"{root / cname}: no slide images found")
        for f in files:
            slides.append(SlideImage(f.stem, cname, load_image(f)))
    return slides, class_names


def split_slides(slides, val_fraction, seed):
    """Seeded stratified split by slide: all patches of a slide share its
    side of the split, so patch-level leakage is impossible."""
    by_class = {}
    for s in slides:
        by_class.setdefault(s.class_label, []).append(s)
    rng = np.random.default_rng((seed, 0xA11))
    train, val = [], []
    for cname in sorted(by_class):
        group = sorted(by_class[cname], key=lambda s: s.slide_id)
        n_val = _round_half_up(val_fraction * len(group))
        if n_val >= len(group):
            raise ValueError(f"class {cname}: validation fraction leaves no training slides")
        val_idx = set(rng.choice(len(group), size=n_val, replace=False).tolist())
        for i, s in enumerate(group):
            (val if i in val_idx else train).append(s)
    return train, val


def require_splits(train, val):
    """Raise unless both splits hold a slide; run before any training, so
    that a split rounded down to nothing fails before the work, not after."""
    for name, split in (("training", train), ("validation", val)):
        if not split:
            raise ValueError(f"the {name} split is empty: raise val_fraction or "
                             f"add slides so that each split gets at least one")


def class_names_of(root):
    """Class directory names without loading any pixel data."""
    root = Path(root)
    base = root / "train" if (root / "train").is_dir() else root
    names = sorted(p.name for p in base.iterdir() if p.is_dir())
    if not names:
        raise ValueError(f"{root}: no class directories found")
    return names


def load_dataset(root, val_fraction=0.2, seed=0):
    """(train_slides, val_slides, class_names, oracle-or-None)."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"dataset path {root} is not a directory")
    oracle = None
    oracle_path = root / "oracle.json"
    if oracle_path.exists():
        oracle = MislabelOracle.from_json(oracle_path.read_text())
    has_train, has_val = (root / "train").is_dir(), (root / "val").is_dir()
    if has_train != has_val:
        raise ValueError(f"{root}: found only one of train/ and val/")
    if has_train:
        train, train_names = _load_class_dirs(root / "train")
        val, val_names = _load_class_dirs(root / "val")
        if train_names != val_names:
            raise ValueError(f"{root}: train and val class directories differ")
        return train, val, train_names, oracle
    slides, class_names = _load_class_dirs(root)
    train, val = split_slides(slides, val_fraction, seed)
    return train, val, class_names, oracle
