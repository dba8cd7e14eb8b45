"""Slide tiling and 8-fold rotation/flip augmentation.

A slide is cut into window-sized patches on a regular grid, ``cell_grid``
(stride may be smaller than the window for overlapping tiles), which
``slices`` votes over too. Every crop expands into its 8 square-symmetry
variants: rotations by 0/90/180/270 degrees, then the vertical flip of each.
The 8 variants of one crop form a group, the unit on which the group-removal
rule of the refinement loop operates. Every patch starts out carrying its
parent slide's label.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass, fields

import numpy as np

VARIANTS = 8


_type_hints = functools.cache(typing.get_type_hints)
_KINDS = {int: "an integer", float: "a number", str: "a string",
          tuple[int, ...]: "a list of integers", str | None: "a string or null"}


def _has_type(value, hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    if args:
        return any(_has_type(value, a) for a in args)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


def check_types(settings, section):
    """Raise unless each field of the dataclass ``settings`` has its annotated
    type: a bool is neither an int nor a float, an int is a float (and is kept
    as it is), ``tuple[X, ...]`` holds X's and ``X | None`` allows None."""
    hints = _type_hints(type(settings))
    for f in fields(settings):
        value, hint = getattr(settings, f.name), hints[f.name]
        if not _has_type(value, hint):
            kind = _KINDS.get(hint) or "a " + hint.__name__
            got = json.dumps(value, default=repr)
            if isinstance(value, list):  # only a direct construction; _take makes JSON lists tuples
                kind, got = kind.replace("a list", "a tuple"), f"a list {got}"
            raise ValueError(f"{section} config key {f.name!r} must be {kind}, got {got}")


def require_count(value, what, minimum=1):
    """Raise unless the integer ``value`` is at least ``minimum``, 1 or 0."""
    if value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value}")


@dataclass(frozen=True)
class TilingSpec:
    """The training-set tiling: the config file's ``tiling`` section."""
    window: int = 32
    stride: int = 32

    def __post_init__(self):
        check_types(self, "tiling")
        require_count(self.window, "tiling window")
        require_count(self.stride, "tiling stride")
        if self.stride > self.window:
            raise ValueError(f"stride {self.stride} exceeds window {self.window}")


@dataclass
class SlideImage:
    slide_id: str
    class_label: str
    pixels: np.ndarray  # HxWxC in [0,1]

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


def _round_half_up(x):
    return int(np.floor(x + 0.5))


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
    """Raise unless both splits hold a slide; run before any training or
    write, so that a split rounded down to nothing fails before the work."""
    for name, split in (("training", train), ("validation", val)):
        if not split:
            raise ValueError(f"the {name} split is empty: raise val_fraction or "
                             f"add slides so that each split gets at least one")


@dataclass(frozen=True)
class SlideMeta:
    """Slide identity and geometry only; enough to plan a tiling."""
    slide_id: str
    class_label: str
    height: int
    width: int


def grid_counts(height, width, window, stride):
    """(cols, rows) of full window placements: floor((dim-window)/stride)+1."""
    if window > height or window > width:
        raise ValueError(f"window {window} larger than image {width}x{height}")
    return ((width - window) // stride + 1, (height - window) // stride + 1)


def cell_grid(pixels, window, stride):
    """Read-only (rows, cols, window, window, C) view of the full window
    placements in HxWxC ``pixels``: cell (row, col) is at y, x = stride * (row, col)."""
    grid_counts(pixels.shape[0], pixels.shape[1], window, stride)
    view = np.lib.stride_tricks.sliding_window_view(pixels, (window, window), axis=(0, 1))
    return view[::stride, ::stride].transpose(0, 1, 3, 4, 2)


def tile(slide: SlideImage, spec: TilingSpec):
    """Crop all grid patches of a slide, row-major, as copies.

    Returns [((col, row), pixels), ...].
    """
    grid = cell_grid(slide.pixels, spec.window, spec.stride)
    return [((col, row), grid[row, col].copy())
            for row in range(grid.shape[0]) for col in range(grid.shape[1])]


def variant_transform(pixels, variant):
    """Apply one of the 8 square symmetries. Variant 0 is the identity."""
    if not 0 <= variant < VARIANTS:
        raise ValueError(f"variant must be 0..7, got {variant}")
    out = np.rot90(pixels, variant % 4, axes=(0, 1))
    if variant >= 4:
        out = np.flipud(out)
    return out


def augment8(pixels):
    """All 8 rotation/flip variants of a square patch, indexed by variant."""
    if pixels.shape[0] != pixels.shape[1]:
        raise ValueError(f"augmentation needs a square patch, got {pixels.shape[0]}x{pixels.shape[1]}")
    return [np.ascontiguousarray(variant_transform(pixels, v)) for v in range(VARIANTS)]


@functools.cache
def _variant_sources(size):
    """(VARIANTS, size*size) table: row v holds, for each flat position of
    variant v of a size x size patch, the flat position in the patch that
    it copies."""
    grid = np.arange(size * size).reshape(size, size)
    table = np.stack([variant_transform(grid, v).ravel() for v in range(VARIANTS)])
    table.flags.writeable = False
    return table


def make_patch_id(slide_id, col, row, variant):
    return f"{slide_id}/{col}/{row}/{variant}"


def make_group_id(slide_id, col, row):
    return f"{slide_id}/{col}/{row}"


@dataclass(eq=False)
class TrainingSet:
    """Patch records as numpy columns, plus their pixel data.

    Record i is variant i % 8 (0 identity, 1-3 rotations, 4-7 vertically
    flipped rotations) of augmentation group i // 8, the 8 variants of the
    crop at grid cell (``col[i]``, ``row[i]``) of slide
    ``slide_ids[slide[i]]``; it is labeled ``class_names[label[i]]``.
    Records only ever get deactivated (``active`` cleared), never relabeled
    or deleted, so any pruning decision can be audited afterwards.
    ``crops`` is a (groups, H, W, C) float32 array holding each group's
    crop once, as variant 0; it is None for manifest-only sets (planning
    and counting work without touching pixel data). ``images[rows]``
    gathers the pixels of the records ``rows`` from it; no array holds
    every record's pixels.
    """

    class_names: list
    slide_ids: list
    slide: np.ndarray
    col: np.ndarray
    row: np.ndarray
    label: np.ndarray
    active: np.ndarray
    crops: np.ndarray | None = None

    def __len__(self):
        return len(self.label)

    @property
    def images(self):
        """The records' pixels, gathered on indexing: ``images[rows]`` is an
        (n, H, W, C) float32 array for an index array ``rows``."""
        return RecordImages(self)

    @property
    def n_active(self):
        return int(np.count_nonzero(self.active))

    def active_indices(self):
        return np.flatnonzero(self.active)

    def patch_ids(self, idx=slice(None)):
        """Id strings (slide/col/row/variant) of records ``idx``."""
        variant = np.arange(len(self))[idx] % VARIANTS
        columns = (self.slide[idx], self.col[idx], self.row[idx], variant)
        return [make_patch_id(self.slide_ids[s], c, r, v)
                for s, c, r, v in zip(*(a.tolist() for a in columns))]

    def group_ids(self):
        """Id strings (slide/col/row) of the groups, indexed by group number."""
        columns = (self.slide[::VARIANTS], self.col[::VARIANTS], self.row[::VARIANTS])
        return [make_group_id(self.slide_ids[s], c, r)
                for s, c, r in zip(*(a.tolist() for a in columns))]

    def group_labels(self):
        """Class names the groups' records carry, indexed by group number."""
        return [self.class_names[i] for i in self.label[::VARIANTS].tolist()]


class RecordImages:
    """Indexable view of a TrainingSet's record pixels.

    A record's pixels are its group's crop under its variant's symmetry,
    a fixed permutation of the crop's pixel positions, so one ``np.take``
    over the crops' pixels gathers any set of records.
    """

    def __init__(self, ts: TrainingSet):
        self.ts = ts

    def __len__(self):
        return len(self.ts)

    def __getitem__(self, rows):
        _, h, w, c = self.ts.crops.shape
        group, variant = np.divmod(rows, VARIANTS)
        src = (group * (h * w))[:, None] + _variant_sources(h)[variant]
        return np.take(self.ts.crops.reshape(-1, c), src, axis=0).reshape(len(src), h, w, c)


def build_manifest(slides, spec: TilingSpec, class_names):
    """Plan all patch records for the given slides, as a TrainingSet
    without pixel data.

    Reads only ``slide_id``, ``class_label``, ``height`` and ``width`` of
    each slide, so a SlideImage and a pixel-free SlideMeta plan alike.
    Every grid cell, row-major within its slide, expands to its 8 variants;
    all records start active and carry the parent slide's label.
    """
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    seen = set()
    cells = []  # per slide: the slide index, col and row of each grid cell
    for s, meta in enumerate(slides):
        if meta.slide_id in seen:
            raise ValueError(f"duplicate slide_id {meta.slide_id!r}")
        seen.add(meta.slide_id)
        cols, rows = grid_counts(meta.height, meta.width, spec.window, spec.stride)
        row, col = np.divmod(np.arange(cols * rows), cols)
        cells.append((np.full(cols * rows, s), col, row))
    slide, col, row = (np.repeat(np.concatenate(parts), VARIANTS) for parts in zip(*cells))
    labels = np.array([name_to_idx[m.class_label] for m in slides], dtype=np.intp)
    return TrainingSet(list(class_names), [m.slide_id for m in slides], slide, col, row,
                       label=labels[slide], active=np.ones(len(slide), dtype=bool))


def build_training_set(slides, spec: TilingSpec, class_names=None):
    """Tile slides into a materialized TrainingSet.

    Each crop is copied once, from its slide's ``cell_grid`` into one
    preallocated (groups, H, W, C) array; its 8 variants are derived when
    records are gathered, so the set holds an eighth of its records' pixels.
    """
    if class_names is None:
        class_names = sorted({s.class_label for s in slides})
    ts = build_manifest(slides, spec, class_names)
    ts.crops = np.empty((len(ts) // VARIANTS, spec.window, spec.window,
                         slides[0].pixels.shape[2]), dtype=np.float32)
    g = 0
    for slide in slides:
        grid = cell_grid(slide.pixels, spec.window, spec.stride)
        n = grid.shape[0] * grid.shape[1]
        ts.crops[g:g + n].reshape(grid.shape)[...] = grid  # a view of the contiguous rows
        g += n
    return ts


def manifest_to_dicts(ts: TrainingSet):
    """JSON-ready view of the patch records (labels as class names)."""
    columns = (ts.slide, ts.col, ts.row, np.arange(len(ts)) % VARIANTS, ts.label, ts.active)
    out = []
    for s, c, r, v, label, active in zip(*(a.tolist() for a in columns)):
        sid = ts.slide_ids[s]
        out.append({"patch_id": make_patch_id(sid, c, r, v), "slide_id": sid,
                    "grid_xy": [c, r], "variant": v,
                    "group_id": make_group_id(sid, c, r),
                    "label": ts.class_names[label], "active": active})
    return out
