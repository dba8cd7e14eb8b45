"""Whole-slide classification by patch-grid majority vote.

A slide is split into a non-overlapping grid of window-sized patches
(rows = H/window, cols = W/window, row-major). The network scores each
patch; the slide label is the plurality winner over the per-patch argmax
labels. Count ties go to the tied class with the larger summed probability
over all cells, and an exact tie after that falls back to the lowest class
index, so the vote is fully deterministic.

Cells are read straight out of each slide's pixels (``SlideCells``), and
one ``predict_proba`` pass scores them, for one slide or for every slide
of an evaluation split, in ``PREDICT_CHUNK`` chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import macro_accuracy, plain_accuracy
from .patches import SlideImage

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

    Cell i is the i-th cell, row-major, of the slides in order.
    ``cells[rows]`` gathers cells ``rows`` into an (n, window, window, C)
    float32 array, so a pass over many slides copies one chunk of cells at
    a time, never the whole set. Slide dimensions must be divisible by the
    window.

    Each run of consecutive cells along one grid row is copied straight
    into the result by one slice assignment, so a gather holds no second
    chunk-sized array; a fancy-indexed gather would, and the extra heap
    block raised a refinement's peak RSS by about 0.7 MB.
    """

    def __init__(self, slides, window):
        self.grids = []  # per slide: (rows, cols, window, window, C) view of its pixels
        for slide in slides:
            if slide.height % window or slide.width % window:
                raise ValueError(
                    f"slide {slide.slide_id} is {slide.width}x{slide.height}, "
                    f"not divisible by window {window}")
            rows, cols = slide.height // window, slide.width // window
            self.grids.append(slide.pixels.reshape(rows, window, cols, window, -1)
                              .swapaxes(1, 2))
        self.cols = np.array([g.shape[1] for g in self.grids])
        self.starts = np.cumsum([0] + [g.shape[0] * g.shape[1] for g in self.grids])

    def __len__(self):
        return int(self.starts[-1])

    def __getitem__(self, rows):
        rows = np.asarray(rows)
        slide = np.searchsorted(self.starts, rows, side="right") - 1
        r, c = np.divmod(rows - self.starts[slide], self.cols[slide])
        # a run starts where a cell is not the right neighbour of the one before
        starts = np.ones(len(rows), bool)
        starts[1:] = (np.diff(rows) != 1) | (c[1:] == 0)
        bounds = np.flatnonzero(starts).tolist() + [len(rows)]
        out = np.empty((len(rows),) + self.grids[0].shape[2:], np.float32)
        for a, b in zip(bounds, bounds[1:]):
            out[a:b] = self.grids[slide[a]][r[a], c[a]:c[a] + b - a]
        return out


def _prediction(slide_id, grid):
    patch_labels = grid.argmax(axis=2)
    voted, tie_broken, counts = majority_vote(patch_labels, grid)
    return SlidePrediction(slide_id, grid, patch_labels, voted,
                           {int(c): int(n) for c, n in enumerate(counts) if n},
                           tie_broken)


def predict_slides(net, slides, window):
    """Grid up each slide without overlap, score all cells in one pass, vote
    per slide. Slide dimensions must be divisible by the window."""
    if not slides:
        raise ValueError("need at least one slide to predict, got an empty split")
    cells = SlideCells(slides, window)
    probs = net.predict_proba(cells)
    return [_prediction(s.slide_id, probs[a:b].reshape(g.shape[0], g.shape[1], -1))
            for s, g, a, b in zip(slides, cells.grids, cells.starts, cells.starts[1:])]


def predict_slide(net, slide: SlideImage, window):
    """Grid up a slide without overlap, score each patch, vote.

    Slide dimensions must be divisible by the window.
    """
    return predict_slides(net, [slide], window)[0]


def render_class_map(prediction: SlidePrediction, class_names, cell_size=32):
    """One colored block per grid cell, as an RGB float image in [0,1]."""
    rows, cols = prediction.patch_labels.shape
    palette = np.array([class_color(name, i) for i, name in enumerate(class_names)],
                       dtype=np.float32)
    img = np.empty((rows, cell_size, cols, cell_size, 3), dtype=np.float32)
    img[...] = palette[prediction.patch_labels][:, None, :, None]
    return img.reshape(rows * cell_size, cols * cell_size, 3)


def slice_accuracy(predictions, truth_labels, n_classes):
    """(macro %, plain %) of voted labels against per-slide truth.

    ``truth_labels`` maps slide_id to a class index; an unmatched
    prediction is an error, not a skip.
    """
    if not predictions:
        raise ValueError("no slide predictions to score")
    y_true, y_pred = [], []
    for p in predictions:
        if p.slide_id not in truth_labels:
            raise ValueError(f"unknown slide_id {p.slide_id!r} in predictions")
        y_true.append(truth_labels[p.slide_id])
        y_pred.append(p.voted_label)
    return (macro_accuracy(y_true, y_pred, n_classes),
            plain_accuracy(y_true, y_pred))


def evaluate_slides(net, slides, window, class_names):
    """Patch and slide accuracy of labeled slides, from one grid pass over
    all their cells.

    Patch accuracy is the macro accuracy of every grid cell's label against
    its slide's label. Returns {"patch_acc", "slice_acc" (macro),
    "slice_acc_plain"}, all in %.
    """
    n = len(class_names)
    preds = predict_slides(net, slides, window)
    truth = {s.slide_id: class_names.index(s.class_label) for s in slides}
    cell_truth = np.concatenate([np.full(p.patch_labels.size, truth[p.slide_id])
                                 for p in preds])
    cell_pred = np.concatenate([p.patch_labels.ravel() for p in preds])
    macro_slice, plain_slice = slice_accuracy(preds, truth, n)
    return {"patch_acc": macro_accuracy(cell_truth, cell_pred, n),
            "slice_acc": macro_slice, "slice_acc_plain": plain_slice}
