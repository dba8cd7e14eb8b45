"""Whole-slide classification by patch-grid majority vote.

A slide is split into a non-overlapping grid of window-sized patches
(rows = H/window, cols = W/window, row-major). The network scores each
patch; the slide label is the plurality winner over the per-patch argmax
labels. Count ties go to the tied class with the larger summed probability
over all cells, and an exact tie after that falls back to the lowest class
index, so the vote is fully deterministic.

Cells are read straight out of each slide's pixels by ``SlideCells``, on
``patches.cell_grid``, the cut the training set is built by, and one
``predict_proba`` pass scores them, for one slide or for every slide of an
evaluation split, in ``PREDICT_CHUNK`` chunks. A ``SlideCells`` is the one
owner of an evaluation split: it is cut and checked once, and
``predict_slides`` and ``evaluate_slides`` score it as often as asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imageio import to_uint8
from .metrics import macro_accuracy, plain_accuracy
from .patches import SlideImage, cell_grid

# Class-name keyed colors for rendered maps, with an indexed fallback
# palette for other naming schemes. All colors are distinct.
NAMED_COLORS = {
    "Normal": (0.0, 0.8, 0.0),    # green
    "Benign": (0.0, 0.0, 1.0),    # blue
    "InSitu": (1.0, 0.65, 0.0),   # orange
    "Invasive": (1.0, 0.0, 0.0),  # red
}
FALLBACK_COLORS = (
    (0.0, 0.8, 0.0), (0.0, 0.0, 1.0), (1.0, 0.65, 0.0), (1.0, 0.0, 0.0),
    (0.5, 0.0, 0.5), (0.0, 0.8, 0.8), (0.9, 0.9, 0.0), (0.35, 0.35, 0.35),
)


def class_color(name, index):
    if name in NAMED_COLORS:
        return NAMED_COLORS[name]
    return FALLBACK_COLORS[index % len(FALLBACK_COLORS)]


@dataclass
class SlidePrediction:
    slide_id: str
    grid_probs: np.ndarray    # (rows, cols, n_classes)
    patch_labels: np.ndarray  # (rows, cols) argmax per cell
    voted_label: int
    vote_counts: dict         # class index -> cell count
    tie_broken: bool

    @property
    def rows(self):
        return self.grid_probs.shape[0]

    @property
    def cols(self):
        return self.grid_probs.shape[1]


def majority_vote(patch_labels, grid_probs):
    """Plurality winner over cell labels.

    Returns (label, tie_broken, counts). ``tie_broken`` is set only when
    several classes share the top count and summed probabilities decide.
    """
    labels = np.asarray(patch_labels).ravel()
    if labels.size == 0:
        raise ValueError("majority_vote needs at least one cell")
    n_classes = np.asarray(grid_probs).shape[-1]
    counts = np.bincount(labels, minlength=n_classes)
    top = counts.max()
    tied = np.flatnonzero(counts == top)
    if len(tied) == 1:
        return int(tied[0]), False, counts
    sums = np.asarray(grid_probs).reshape(-1, n_classes).sum(axis=0)
    best = tied[np.argmax(sums[tied])]  # argmax takes the lowest index on ties
    return int(best), True, counts


class SlideCells:
    """Indexable view of the grid cells of one or more slides.

    Cell i is the i-th cell, row-major, of ``slides`` in order.
    ``cells[rows]`` gathers cells ``rows`` into an (n, window, window, C)
    float32 array, so a pass over many slides copies one chunk of cells at
    a time, never the whole set. Building one checks the two rules of the
    grid: there is at least one slide, and the window divides each slide's
    dimensions.

    Each cell is copied straight into the preallocated result, so a gather
    holds no second chunk-sized array; a fancy-indexed gather would, and the
    extra heap block raised a refinement's peak RSS by about 0.7 MB.
    """

    def __init__(self, slides, window):
        if not slides:
            raise ValueError("need at least one slide to predict, got an empty split")
        self.slides = slides
        self.grids = []  # per slide: its cell_grid at stride = window
        for slide in slides:
            if slide.height % window or slide.width % window:
                raise ValueError(
                    f"slide {slide.slide_id} is {slide.width}x{slide.height}, "
                    f"not divisible by window {window}")
            self.grids.append(cell_grid(slide.pixels, window, window))
        self.cols = np.array([g.shape[1] for g in self.grids])
        self.starts = np.cumsum([0] + [g.shape[0] * g.shape[1] for g in self.grids])

    def __len__(self):
        return int(self.starts[-1])

    def __getitem__(self, rows):
        slide = np.searchsorted(self.starts, rows, side="right") - 1
        r, c = np.divmod(rows - self.starts[slide], self.cols[slide])
        out = np.empty((len(rows),) + self.grids[0].shape[2:], np.float32)
        for i, (s, y, x) in enumerate(zip(slide.tolist(), r.tolist(), c.tolist())):
            out[i] = self.grids[s][y, x]
        return out


def _prediction(slide_id, grid):
    patch_labels = grid.argmax(axis=2)
    voted, tie_broken, counts = majority_vote(patch_labels, grid)
    return SlidePrediction(slide_id, grid, patch_labels, voted,
                           {int(c): int(n) for c, n in enumerate(counts) if n},
                           tie_broken)


def predict_slides(net, cells: SlideCells):
    """Score every cell of ``cells`` in one pass, vote per slide."""
    probs = net.predict_proba(cells)
    return [_prediction(s.slide_id, probs[a:b].reshape(g.shape[0], g.shape[1], -1))
            for s, g, a, b in zip(cells.slides, cells.grids, cells.starts, cells.starts[1:])]


def predict_slide(net, slide: SlideImage, window):
    """Grid up a slide without overlap, score each patch, vote.

    Slide dimensions must be divisible by the window.
    """
    return predict_slides(net, SlideCells([slide], window))[0]


def render_class_map(prediction: SlidePrediction, class_names, cell_size):
    """One colored block per grid cell, as an 8-bit RGB image: a uint8
    (rows * cell_size, cols * cell_size, 3) array.

    The float32 palette is quantized once by ``imageio.to_uint8``, so
    ``save_image`` writes the bytes the [0,1] colors would give; the cell
    colors are then repeated along each row and down each column.
    """
    palette = to_uint8(np.array([class_color(name, i) for i, name in enumerate(class_names)],
                                dtype=np.float32))
    cells = palette[prediction.patch_labels]
    return cells.repeat(cell_size, axis=1).repeat(cell_size, axis=0)


def evaluate_slides(net, cells: SlideCells, class_names):
    """Patch and slide accuracy of the labeled slides of ``cells``, from one
    grid pass over all their cells.

    Patch accuracy is the macro accuracy of every grid cell's label against
    its slide's label. Returns {"patch_acc", "slice_acc" (macro),
    "slice_acc_plain"}, all in %.
    """
    n = len(class_names)
    preds = predict_slides(net, cells)
    truth = [class_names.index(s.class_label) for s in cells.slides]
    voted = [p.voted_label for p in preds]
    cell_truth = np.repeat(truth, [p.patch_labels.size for p in preds])
    cell_pred = np.concatenate([p.patch_labels.ravel() for p in preds])
    return {"patch_acc": macro_accuracy(cell_truth, cell_pred, n),
            "slice_acc": macro_accuracy(truth, voted, n),
            "slice_acc_plain": plain_accuracy(truth, voted)}
