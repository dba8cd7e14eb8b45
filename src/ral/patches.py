"""Slide tiling and 8-fold rotation/flip augmentation.

A slide is cut into window-sized patches on a regular grid (stride may be
smaller than the window for overlapping tiles). Every cropped patch is
expanded into its 8 square-symmetry variants: rotations by 0/90/180/270
degrees, then the vertical flip of each. The 8 variants of one crop form a
group, the unit on which the group-removal rule of the refinement loop
operates. Every patch starts out carrying its parent slide's label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = 8


@dataclass(frozen=True)
class TilingSpec:
    window: int
    stride: int

    def __post_init__(self):
        if self.window <= 0 or self.stride <= 0:
            raise ValueError(f"window and stride must be positive, got {self.window}/{self.stride}")
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


@dataclass(frozen=True)
class SlideMeta:
    """Slide identity and geometry only; enough to plan a tiling."""
    slide_id: str
    class_label: str
    height: int
    width: int


@dataclass
class PatchRecord:
    patch_id: str
    slide_id: str
    col: int
    row: int
    variant: int  # 0 identity, 1-3 rotations, 4-7 vertically flipped rotations
    group_id: str
    label: int    # index into the owning set's class_names
    active: bool = True

    @property
    def grid_xy(self):
        return (self.col, self.row)


def grid_counts(height, width, window, stride):
    """(cols, rows) of full window placements: floor((dim-window)/stride)+1."""
    if window > height or window > width:
        raise ValueError(f"window {window} larger than image {width}x{height}")
    return ((width - window) // stride + 1, (height - window) // stride + 1)


def tile(slide: SlideImage, spec: TilingSpec):
    """Crop all grid patches of a slide, row-major, as copies.

    Returns [((col, row), pixels), ...].
    """
    cols, rows = grid_counts(slide.height, slide.width, spec.window, spec.stride)
    out = []
    for row in range(rows):
        y0 = row * spec.stride
        for col in range(cols):
            x0 = col * spec.stride
            out.append(((col, row),
                        slide.pixels[y0:y0 + spec.window, x0:x0 + spec.window].copy()))
    return out


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


def make_patch_id(slide_id, col, row, variant):
    return f"{slide_id}/{col}/{row}/{variant}"


def make_group_id(slide_id, col, row):
    return f"{slide_id}/{col}/{row}"


def group_of(patch_id):
    return patch_id.rsplit("/", 1)[0]


class TrainingSet:
    """Patch records plus their pixel data, with per-record activity.

    Records only ever get deactivated, never relabeled or deleted, so any
    pruning decision can be audited afterwards. ``pixels`` is an (R, H, W, C)
    float32 array aligned with ``records``; it is None for manifest-only
    sets (planning and counting work without touching pixel data).
    """

    def __init__(self, class_names, records, pixels=None):
        self.class_names = list(class_names)
        self.records = records
        self.pixels = pixels
        self._index = {r.patch_id: i for i, r in enumerate(records)}
        if len(self._index) != len(records):
            raise ValueError("duplicate patch ids in training set")

    def __len__(self):
        return len(self.records)

    @property
    def n_active(self):
        return sum(1 for r in self.records if r.active)

    def record(self, patch_id):
        return self.records[self._index[patch_id]]

    def pixels_of(self, patch_id):
        return self.pixels[self._index[patch_id]]

    def active_indices(self):
        return np.array([i for i, r in enumerate(self.records) if r.active], dtype=np.intp)

    def labels(self):
        return np.array([r.label for r in self.records], dtype=np.intp)

    def deactivate(self, patch_ids):
        for pid in patch_ids:
            self.records[self._index[pid]].active = False

    def group_members(self, group_id):
        return [r for r in self.records if r.group_id == group_id]


def build_manifest(metas, spec: TilingSpec, class_names):
    """Plan all patch records for the given slides without pixel data.

    Every grid cell expands to its 8 variants; all records start active and
    carry the parent slide's label.
    """
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    seen = set()
    records = []
    for meta in metas:
        if meta.slide_id in seen:
            raise ValueError(f"duplicate slide_id {meta.slide_id!r}")
        seen.add(meta.slide_id)
        label = name_to_idx[meta.class_label]
        cols, rows = grid_counts(meta.height, meta.width, spec.window, spec.stride)
        for row in range(rows):
            for col in range(cols):
                gid = make_group_id(meta.slide_id, col, row)
                for v in range(VARIANTS):
                    records.append(PatchRecord(
                        patch_id=make_patch_id(meta.slide_id, col, row, v),
                        slide_id=meta.slide_id, col=col, row=row, variant=v,
                        group_id=gid, label=label))
    return records


def build_training_set(slides, spec: TilingSpec, class_names=None):
    """Tile and augment slides into a materialized TrainingSet."""
    if class_names is None:
        class_names = sorted({s.class_label for s in slides})
    metas = [SlideMeta(s.slide_id, s.class_label, s.height, s.width) for s in slides]
    records = build_manifest(metas, spec, class_names)
    chunks = []
    for slide in slides:
        for _, crop in tile(slide, spec):
            chunks.extend(augment8(crop))
    pixels = np.stack(chunks).astype(np.float32, copy=False)
    if len(pixels) != len(records):
        raise AssertionError("pixel/record count mismatch")
    return TrainingSet(class_names, records, pixels)


def build_eval_patches(slides, spec: TilingSpec, class_names):
    """Raw (unaugmented) patches of the given slides, for evaluation.

    Returns (X, y, ids): patch pixels, label indices, patch ids (variant 0).
    """
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    xs, ys, ids = [], [], []
    for slide in slides:
        label = name_to_idx[slide.class_label]
        for (col, row), crop in tile(slide, spec):
            xs.append(crop.astype(np.float32))
            ys.append(label)
            ids.append(make_patch_id(slide.slide_id, col, row, 0))
    return np.stack(xs), np.array(ys, dtype=np.intp), ids


def manifest_to_dicts(records, class_names):
    """JSON-ready view of patch records (labels as class names)."""
    return [{"patch_id": r.patch_id, "slide_id": r.slide_id,
             "grid_xy": [r.col, r.row], "variant": r.variant,
             "group_id": r.group_id, "label": class_names[r.label],
             "active": r.active} for r in records]


def save_patch(ts: TrainingSet, patch_id, path):
    """Write one record's pixels to disk.

    ``.ralt`` keeps exact float32 values (bit-identical round trip);
    ``.ppm``/``.pgm`` quantize to 8 bits for viewing.
    """
    from .imageio import save_image, save_ralt

    pixels = ts.pixels_of(patch_id)
    path = str(path)
    if path.endswith(".ralt"):
        return save_ralt(path, pixels)
    return save_image(path, pixels)
