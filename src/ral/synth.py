"""Synthetic contaminated slide generator.

Each slide is a mosaic of window-sized texture regions. Regions normally
carry the slide's class texture (an oriented sinusoid plus Gaussian noise,
with a class-specific spatial frequency), but a controlled fraction of
regions per slide is painted with another class's texture while the slide
keeps its label: patch-level label noise with known ground truth. The
oracle records, per region group, the assigned and true class, which makes
the pruning behaviour of the refinement loop measurable - something real
weakly-labeled datasets cannot offer.

Regions tessellate (stride equals window), and ``ral ral`` requires its
tiling to cut the same grid, so "this patch group is mislabeled" is exact.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .imageio import save_image
from .patches import (SlideImage, _round_half_up, check_types, make_group_id, require_count,
                      require_splits, split_slides)

DEFAULT_CLASS_NAMES = ("Normal", "Benign", "InSitu", "Invasive")

# (cycles per window, orientation degrees): frequencies spaced by factor 2
# so classes stay separable under any rotation/flip of the patch.
DEFAULT_TEXTURES = ((1.5, 0.0), (3.0, 30.0), (6.0, 60.0), (12.0, 90.0))
TEXTURE_AMPLITUDE = 0.25  # of every sinusoid around the mid-grey 0.5


@dataclass
class SynthSpec:
    """The generator settings: the config file's ``synthetic`` section.

    ``seed`` and ``val_fraction``, arguments that ``build`` takes from the
    config's top level, ``texture_params``, derived from ``classes``, and
    the constant ``TEXTURE_AMPLITUDE`` are no fields: no config keys and no
    part of the resolved config in ``report.json``."""
    classes: int = 4
    slide_size: tuple[int, ...] = (128, 128)  # (H, W)
    window: int = 32
    stride: int = 32                 # must equal window (regions tessellate)
    slides_per_class: int = 10
    contamination_rho: float = 0.1   # fraction of regions per slide mislabeled
    noise_sigma: float = 0.05
    seed: InitVar[int] = 0
    val_fraction: InitVar[float] = 0.2

    def __post_init__(self, seed, val_fraction):
        check_types(self, "synthetic")
        self.seed, self.val_fraction = seed, val_fraction  # dataclasses.replace keeps them
        for name in ("classes", "window", "slides_per_class"):
            require_count(getattr(self, name), f"generator {name}")
        if self.stride != self.window:
            raise ValueError(
                f"generator stride ({self.stride}) must equal the window "
                f"({self.window}): contaminated regions must coincide with "
                f"tiling cells for the oracle to be exact")
        if len(self.slide_size) != 2 or min(self.slide_size) < 1:
            raise ValueError(f"generator slide_size must be two positive integers, "
                             f"got {list(self.slide_size)}")
        h, w = self.slide_size
        if h % self.window or w % self.window:
            raise ValueError(f"slide size {w}x{h} not divisible by window {self.window}")
        if not 0.0 <= self.contamination_rho < 1.0:
            raise ValueError(f"contamination_rho must be in [0, 1), got {self.contamination_rho}")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.classes == 1 and self.contaminated_per_slide():
            raise ValueError(f"contamination_rho {self.contamination_rho} needs a second "
                             f"class to paint mislabeled regions with, got classes 1")
        # an empty validation split is allowed here; write_dataset refuses it
        if not 0.0 <= val_fraction < 1.0:
            raise ValueError(f"generator val_fraction must be in [0, 1), got {val_fraction}")
        if _round_half_up(val_fraction * self.slides_per_class) >= self.slides_per_class:
            raise ValueError(f"generator val_fraction {val_fraction} leaves no training "
                             f"slide of {self.slides_per_class} per class")

    def build(self, seed, val_fraction=0.2):
        return replace(self, seed=seed, val_fraction=val_fraction)

    @property
    def texture_params(self):
        """Per-class (frequency, orientation): pairwise distinct frequencies."""
        if self.classes <= len(DEFAULT_TEXTURES):
            return DEFAULT_TEXTURES[:self.classes]
        return tuple((1.5 * 2 ** (i * 3.0 / self.classes), (180.0 * i) / self.classes)
                     for i in range(self.classes))

    def class_names(self):
        # lexicographic, matching how dataset directories are enumerated,
        # so class indices agree between generation and reload
        if self.classes == len(DEFAULT_CLASS_NAMES):
            return sorted(DEFAULT_CLASS_NAMES)
        return sorted(f"class{i}" for i in range(self.classes))

    def regions_per_slide(self):
        h, w = self.slide_size
        return (h // self.window) * (w // self.window)

    def contaminated_per_slide(self):
        return _round_half_up(self.contamination_rho * self.regions_per_slide())


class OracleEntry(NamedTuple):
    group_id: str
    assigned_label: str
    true_label: str

    @property
    def mislabeled(self):
        return self.assigned_label != self.true_label


class MislabelOracle:
    """group_id -> (assigned label, true label) for every generated region."""

    def __init__(self, entries):
        self.entries = {e.group_id: e for e in entries}
        self.grid = None  # the regions' (window, stride), when generator.json is known

    def __len__(self):
        return len(self.entries)

    def mislabeled(self, group_ids, labels=None):
        """Bool array: is each of ``group_ids`` a mislabeled region.

        With ``labels``, the class name a training set gives each group's
        records, raises a ValueError at the first group whose assigned
        label differs, so that no metric counts against the wrong labels.
        """
        try:
            entries = [self.entries[g] for g in group_ids]
        except KeyError as e:
            raise ValueError(f"unknown group_id {e.args[0]!r} in oracle") from None
        for e, label in zip(entries, labels or ()):
            if e.assigned_label != label:
                raise ValueError(f"oracle gives group {e.group_id!r} assigned_label "
                                 f"{e.assigned_label!r}, but the training set labels it "
                                 f"{label!r}")
        return np.array([e.mislabeled for e in entries], dtype=bool)

    def to_json(self):
        return json.dumps([{**e._asdict(), "is_mislabeled": e.mislabeled}
                           for e in self.entries.values()], indent=1)

    @staticmethod
    def from_json(text, source="oracle.json"):
        """The oracle that ``text``, the JSON list of ``to_json``, holds, its
        entries in list order. Raises a ValueError, naming ``source``, for
        anything but a list, and else at the first entry at fault: one that
        is no object or lacks a field, or a repeat of an earlier group_id."""
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError(f"{source}: expected a list of entries, got {type(raw).__name__}")
        oracle = MislabelOracle(())
        for i, d in enumerate(raw):
            try:
                e = OracleEntry(d["group_id"], d["assigned_label"], d["true_label"])
            except (KeyError, TypeError):
                name = next(f for f in OracleEntry._fields if not isinstance(d, dict) or f not in d)
                raise ValueError(f"oracle entry {i} has no {name!r} field") from None
            if e.group_id in oracle.entries:
                raise ValueError(f"oracle lists group_id {e.group_id!r} more than once")
            oracle.entries[e.group_id] = e
        return oracle


@dataclass
class SynthDataset:
    spec: SynthSpec
    class_names: list
    train_slides: list
    val_slides: list
    oracle: MislabelOracle


def _texture_tile(rng, window, freq, theta_deg, phase, sigma):
    theta = np.deg2rad(theta_deg)
    y, x = np.mgrid[0:window, 0:window].astype(np.float64)
    u = 2.0 * np.pi * freq * (x * np.cos(theta) + y * np.sin(theta)) / window
    base = 0.5 + TEXTURE_AMPLITUDE * np.sin(u + phase)
    tile = base[:, :, None] + rng.normal(0.0, sigma, size=(window, window, 3))
    return np.clip(tile, 0.0, 1.0).astype(np.float32)


def _generate_slide(spec: SynthSpec, class_idx, slide_idx, class_names):
    rng = np.random.default_rng((spec.seed, class_idx, slide_idx))
    h, w = spec.slide_size
    rows, cols = h // spec.window, w // spec.window
    n_regions = rows * cols
    n_contam = spec.contaminated_per_slide()
    contaminated = set(rng.choice(n_regions, size=n_contam, replace=False).tolist())
    slide_id = f"{class_names[class_idx]}_{slide_idx:03d}"
    pixels = np.empty((h, w, 3), dtype=np.float32)
    entries = []
    for cell in range(n_regions):
        row, col = divmod(cell, cols)
        true_idx = class_idx
        if cell in contaminated:
            others = [c for c in range(spec.classes) if c != class_idx]
            true_idx = int(others[rng.integers(len(others))])
        freq, theta = spec.texture_params[true_idx]
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        tile = _texture_tile(rng, spec.window, freq, theta, phase, spec.noise_sigma)
        pixels[row * spec.window:(row + 1) * spec.window,
               col * spec.window:(col + 1) * spec.window] = tile
        entries.append(OracleEntry(make_group_id(slide_id, col, row),
                                   class_names[class_idx],
                                   class_names[true_idx]))
    return SlideImage(slide_id, class_names[class_idx], pixels), entries


def generate(spec: SynthSpec):
    """Build all slides, their train/val split and the oracle. The split is
    ``split_slides`` at the spec's ``val_fraction``, as a flat dataset
    directory is split on load."""
    class_names = spec.class_names()
    slides, all_entries = [], []
    for ci in range(spec.classes):
        for si in range(spec.slides_per_class):
            slide, entries = _generate_slide(spec, ci, si, class_names)
            slides.append(slide)
            all_entries.extend(entries)
    train_slides, val_slides = split_slides(slides, spec.val_fraction, spec.seed)
    return SynthDataset(spec, class_names, train_slides, val_slides,
                        MislabelOracle(all_entries))


@dataclass
class OracleMetrics:
    mislabel_recall: float
    clean_false_removal_rate: float
    removed_mislabeled: int
    total_mislabeled: int
    removed_clean: int
    total_clean: int


def oracle_eval(removed, mislabeled):
    """Score a removal run against ground truth.

    ``removed`` and ``mislabeled`` are aligned bool arrays, one entry per
    record of the population the removals were drawn from (the training
    records before any pruning); recall and false removal rate are
    fractions of that population's mislabeled and clean records.
    """
    # Python ints: json.dumps rejects numpy integers
    total_mis = int(np.count_nonzero(mislabeled))
    total_clean = len(mislabeled) - total_mis
    rem_mis = int(np.count_nonzero(removed & mislabeled))
    rem_clean = int(np.count_nonzero(removed & ~mislabeled))
    recall = rem_mis / total_mis if total_mis else 0.0
    false_rate = rem_clean / total_clean if total_clean else 0.0
    return OracleMetrics(recall, false_rate, rem_mis, total_mis, rem_clean, total_clean)


def write_dataset(dataset: SynthDataset, out_dir):
    """Materialize the dataset: train/<class>/<slide>.ppm, val/...,
    oracle.json and generator.json. A split with no slide is refused before
    any file is written: no command could read the directory."""
    require_splits(dataset.train_slides, dataset.val_slides)
    out = Path(out_dir)
    for split_name, slides in (("train", dataset.train_slides),
                               ("val", dataset.val_slides)):
        for slide in slides:
            d = out / split_name / slide.class_label
            d.mkdir(parents=True, exist_ok=True)
            save_image(d / f"{slide.slide_id}.ppm", slide.pixels)
    (out / "oracle.json").write_text(dataset.oracle.to_json())
    meta = asdict(dataset.spec)
    # the derived textures and the arguments, at their keys' places in earlier files
    meta.update(texture_params=dataset.spec.texture_params,
                val_fraction=dataset.spec.val_fraction, seed=dataset.spec.seed)
    (out / "generator.json").write_text(json.dumps(meta, indent=1))
    return out
