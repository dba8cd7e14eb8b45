import numpy as np
import pytest

from ral.imageio import save_image
from ral.metrics import macro_accuracy, plain_accuracy
from ral.nn import LayerSpec, Network, NetworkSpec, build_classifier
from ral.nn.network import PREDICT_CHUNK
from ral.patches import SlideImage
from ral.slices import (SlideCells, class_color, evaluate_slides, majority_vote,
                        predict_slide, predict_slides, render_class_map, SlidePrediction)

CLASSES = ["Normal", "Benign", "InSitu", "Invasive"]


def small_net(window=8, classes=4, seed=0):
    spec = NetworkSpec((window, window, 3), (LayerSpec("dense", channels=classes),), classes)
    return Network(spec, seed=seed)


def make_slide(slide_id, h, w, seed=0, label="Normal"):
    rng = np.random.default_rng(seed)
    return SlideImage(slide_id, label, rng.random((h, w, 3), dtype=np.float32))


class TestPredictSlide:
    def test_full_scale_geometry_gives_twelve_cells(self):
        net = small_net(window=512)
        slide = SlideImage("s", "Normal",
                           np.zeros((1536, 2048, 3), dtype=np.float32))
        pred = predict_slide(net, slide, window=512)
        assert (pred.rows, pred.cols) == (3, 4)
        assert sum(pred.vote_counts.values()) == 12

    def test_single_cell_slide(self):
        net = small_net()
        slide = make_slide("one", 8, 8, seed=1)
        pred = predict_slide(net, slide, window=8)
        assert (pred.rows, pred.cols) == (1, 1)
        assert pred.voted_label == int(pred.grid_probs[0, 0].argmax())

    def test_grid_matches_per_patch_oracle(self):
        net = small_net(seed=3)
        slide = make_slide("s", 16, 24, seed=2)
        pred = predict_slide(net, slide, window=8)
        for r in range(2):
            for c in range(3):
                crop = slide.pixels[r * 8:(r + 1) * 8, c * 8:(c + 1) * 8]
                probs = net.forward(crop[None])[0]
                np.testing.assert_allclose(pred.grid_probs[r, c], probs, atol=1e-6)
                assert pred.patch_labels[r, c] == probs.argmax()

    def test_indivisible_dims_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="not divisible"):
            predict_slide(net, make_slide("s", 20, 16), window=8)
        with pytest.raises(ValueError, match="not divisible"):
            SlideCells([make_slide("a", 16, 16), make_slide("b", 16, 20)], 8)


def mixed_split(n=24):
    # slides of different sizes, more cells than one predict_proba chunk
    return [make_slide(f"s{i}", 8 * (1 + i % 3), 8 * (2 + i % 4), seed=30 + i,
                       label=CLASSES[i % 4]) for i in range(n)]


class TestEvaluateSlides:
    def test_batched_pass_matches_per_slide_predictions(self):
        net = Network(build_classifier(8, (2, 4, 2)), seed=5)
        slides = mixed_split()
        assert sum(s.height * s.width for s in slides) // 64 > 2 * PREDICT_CHUNK
        batched = predict_slides(net, SlideCells(slides, 8))
        assert [p.slide_id for p in batched] == [s.slide_id for s in slides]
        for got, slide in zip(batched, slides):
            alone = predict_slide(net, slide, 8)
            np.testing.assert_array_equal(got.grid_probs, alone.grid_probs)
            np.testing.assert_array_equal(got.patch_labels, alone.patch_labels)
            assert (got.voted_label, got.vote_counts, got.tie_broken) == \
                (alone.voted_label, alone.vote_counts, alone.tie_broken)

    def test_cells_gather_any_index_array(self):
        slides = mixed_split()
        crops = [s.pixels[y:y + 8, x:x + 8] for s in slides
                 for y in range(0, s.height, 8) for x in range(0, s.width, 8)]
        cells = SlideCells(slides, 8)
        assert cells.slides is slides and len(cells) == len(crops)
        rng = np.random.default_rng(9)
        for rows in (np.arange(len(crops)), np.arange(5, 77), rng.permutation(len(crops)),
                     rng.integers(len(crops), size=40), np.array([3, 3, 4, 2]),
                     np.array([], dtype=int)):
            got = cells[rows]
            assert got.dtype == np.float32 and got.shape == (len(rows), 8, 8, 3)
            for g, i in zip(got, rows):
                np.testing.assert_array_equal(g, crops[i])

    def test_empty_split_rejected_before_any_pass(self):
        class NoForward:
            def predict_proba(self, batch, rows=None):
                raise AssertionError("forward pass on an empty split")

        # building the cells of an empty split fails, so no pass can start
        message = "^need at least one slide to predict, got an empty split$"
        with pytest.raises(ValueError, match=message):
            evaluate_slides(NoForward(), SlideCells([], 8), CLASSES)
        with pytest.raises(ValueError, match=message):
            predict_slides(NoForward(), SlideCells([], 8))

    def test_matches_per_cell_tally(self):
        net = small_net(seed=4)
        slides = [make_slide(f"s{i}", 16, 24, seed=10 + i, label=CLASSES[i % 4])
                  for i in range(6)]
        got = evaluate_slides(net, SlideCells(slides, 8), CLASSES)
        # oracle: score every cell alone, then tally cells and votes by hand
        cell_true, cell_pred, slide_true, slide_pred = [], [], [], []
        for s in slides:
            label = CLASSES.index(s.class_label)
            cells = [net.forward(s.pixels[r:r + 8, c:c + 8][None])[0].argmax()
                     for r in range(0, 16, 8) for c in range(0, 24, 8)]
            cell_true += [label] * len(cells)
            cell_pred += cells
            slide_true.append(label)
            slide_pred.append(predict_slide(net, s, 8).voted_label)
        assert got == {"patch_acc": macro_accuracy(cell_true, cell_pred, 4),
                       "slice_acc": macro_accuracy(slide_true, slide_pred, 4),
                       "slice_acc_plain": plain_accuracy(slide_true, slide_pred)}

    def test_uniform_net_scores_chance(self):
        net = small_net()
        for p in net.parameters():
            p[:] = 0
        slides = [make_slide(f"s{i}", 8, 16, seed=i, label=c) for i, c in enumerate(CLASSES)]
        got = evaluate_slides(net, SlideCells(slides, 8), CLASSES)
        # every cell and vote says class 0, right for one class in four
        assert got == {"patch_acc": 25.0, "slice_acc": 25.0, "slice_acc_plain": 25.0}


class TestMajorityVote:
    def test_unanimous(self):
        labels = np.full((3, 4), 3)
        probs = np.zeros((3, 4, 4))
        probs[:, :, 3] = 1.0
        label, tie_broken, _ = majority_vote(labels, probs)
        assert label == 3 and not tie_broken

    def test_plurality(self):
        labels = np.array([0] * 5 + [1] * 4 + [2] * 3).reshape(3, 4)
        probs = np.full((3, 4, 4), 0.25)
        label, tie_broken, counts = majority_vote(labels, probs)
        assert label == 0 and not tie_broken
        assert counts[0] == 5 and counts[1] == 4 and counts[2] == 3

    def test_tie_broken_by_summed_probability(self):
        # 6 cells each for classes 0 and 1; class 0 sums to 6.2, class 1 to 5.8
        labels = np.array([0] * 6 + [1] * 6).reshape(3, 4)
        probs = np.zeros((3, 4, 2))
        flat = probs.reshape(12, 2)
        flat[:6, 0], flat[:6, 1] = 0.70, 0.30
        flat[6:, 0], flat[6:, 1] = 0.333333, 0.666667
        # sum class0 = 6*0.7 + 6*0.333 = 6.2; sum class1 = 6*0.3 + 6*0.667 = 5.8
        label, tie_broken, _ = majority_vote(labels, probs)
        assert label == 0 and tie_broken

    def test_exact_tie_falls_back_to_lowest_index(self):
        labels = np.array([[2, 1], [1, 2]])
        probs = np.full((2, 2, 3), 1 / 3)
        label, tie_broken, _ = majority_vote(labels, probs)
        assert label == 1 and tie_broken

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^majority_vote needs at least one cell$"):
            majority_vote(np.zeros((0, 3), dtype=int), np.zeros((0, 3, 4)))

    def test_invariant_under_cell_permutation(self):
        rng = np.random.default_rng(6)
        probs = rng.random((3, 4, 4))
        probs /= probs.sum(axis=2, keepdims=True)
        labels = probs.argmax(axis=2)
        base = majority_vote(labels, probs)[0]
        flat_l, flat_p = labels.reshape(-1), probs.reshape(-1, 4)
        for _ in range(20):
            perm = rng.permutation(12)
            assert majority_vote(flat_l[perm].reshape(3, 4),
                                 flat_p[perm].reshape(3, 4, 4))[0] == base

    def test_strict_majority_never_tie_breaks(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            labels = rng.integers(0, 4, size=12)
            counts = np.bincount(labels, minlength=4)
            if counts.max() * 2 <= len(labels):
                continue  # not a strict majority, skip
            probs = rng.random((12, 4))
            label, tie_broken, _ = majority_vote(labels.reshape(3, 4),
                                                 probs.reshape(3, 4, 4))
            assert not tie_broken
            assert label == counts.argmax()


def float_class_map(labels, names, cell_size):
    """The float path class maps took before they were 8-bit: a float32
    [0,1] image filled cell by cell."""
    rows, cols = labels.shape
    img = np.zeros((rows * cell_size, cols * cell_size, 3), dtype=np.float32)
    for r in range(rows):
        for c in range(cols):
            idx = int(labels[r, c])
            img[cell_size * r:cell_size * (r + 1),
                cell_size * c:cell_size * (c + 1)] = class_color(names[idx], idx)
    return img


def quantized(x):
    # how a pixmap writer stores [0,1] floats
    return np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)


class TestRenderClassMap:
    def make_prediction(self, labels, n_classes=4):
        labels = np.asarray(labels)
        probs = np.eye(n_classes)[labels]
        return SlidePrediction("s", probs, labels, 0, {}, False)

    def color(self, index, names=CLASSES):
        return quantized(np.array(class_color(names[index], index), dtype=np.float32))

    def test_uniform_grid_renders_one_color(self):
        pred = self.make_prediction(np.zeros((3, 4), dtype=int))
        img = render_class_map(pred, CLASSES, cell_size=4)
        assert img.shape == (12, 16, 3) and img.dtype == np.uint8
        np.testing.assert_array_equal(img, np.broadcast_to(self.color(0), img.shape))
        assert self.color(0).tolist() == [0, 204, 0]

    def test_palette_is_injective(self):
        colors = {class_color(name, i) for i, name in enumerate(CLASSES)}
        assert len(colors) == 4
        assert len({tuple(self.color(i)) for i in range(4)}) == 4

    def test_known_grid_matches_fixture(self):
        labels = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 3, 3]])
        pred = self.make_prediction(labels)
        img = render_class_map(pred, CLASSES, cell_size=2)
        # hand-built expectation: each 2x2 block uniformly its class color
        for r in range(3):
            for c in range(4):
                block = img[2 * r:2 * r + 2, 2 * c:2 * c + 2]
                np.testing.assert_array_equal(
                    block, np.broadcast_to(self.color(labels[r, c]), (2, 2, 3)))

    @pytest.mark.parametrize("names", [CLASSES, [f"class{i}" for i in range(10)]])
    def test_bytes_match_per_cell_loop(self, names):
        labels = np.random.default_rng(8).integers(len(names), size=(5, 7))
        img = render_class_map(self.make_prediction(labels, len(names)), names, cell_size=3)
        ref = quantized(float_class_map(labels, names, 3))
        assert img.dtype == np.uint8 and img.flags.c_contiguous and img.flags.writeable
        assert img.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("cell_size", [1, 3, 32])
    @pytest.mark.parametrize("names", [CLASSES, [f"class{i}" for i in range(10)]],
                             ids=["named", "fallback"])
    def test_written_bytes_match_the_float_path(self, tmp_path, names, cell_size):
        labels = np.random.default_rng(cell_size).integers(len(names), size=(4, 6))
        img = render_class_map(self.make_prediction(labels, len(names)), names, cell_size)
        path = save_image(tmp_path / "map.ppm", img)
        ref = quantized(float_class_map(labels, names, cell_size))
        header = f"P6\n{6 * cell_size} {4 * cell_size}\n255\n".encode()
        assert path.read_bytes() == header + ref.tobytes()

    def test_label_grids_map_to_distinct_images(self):
        a = self.make_prediction(np.zeros((2, 2), dtype=int))
        b = self.make_prediction(np.array([[0, 0], [0, 1]]))
        img_a = render_class_map(a, CLASSES, cell_size=2)
        img_b = render_class_map(b, CLASSES, cell_size=2)
        assert not np.array_equal(img_a, img_b)


class TestSliceAccuracy:
    """``evaluate_slides``' slide scores, from given votes and slide labels."""

    def slice_accuracy(self, monkeypatch, voted, truth):
        slides = [SlideImage(f"s{i}", CLASSES[t], np.zeros((1, 1, 3), np.float32))
                  for i, t in enumerate(truth)]
        preds = [SlidePrediction(s.slide_id, np.zeros((1, 1, 4)), np.zeros((1, 1), dtype=int),
                                 int(v), {}, False) for s, v in zip(slides, voted)]
        monkeypatch.setattr("ral.slices.predict_slides", lambda net, cells: preds)
        row = evaluate_slides(None, SlideCells(slides, 1), CLASSES)
        return row["slice_acc"], row["slice_acc_plain"]

    def test_all_correct(self, monkeypatch):
        labels = [i % 4 for i in range(8)]
        macro, plain = self.slice_accuracy(monkeypatch, labels, labels)
        assert macro == 100.0 and plain == 100.0

    def test_constant_predictor_on_balanced_classes(self, monkeypatch):
        macro, _ = self.slice_accuracy(monkeypatch, [0] * 8, [i % 4 for i in range(8)])
        assert macro == pytest.approx(25.0)

    def test_matches_tally_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)
        truth_list = rng.integers(0, 4, size=20)
        pred_list = rng.integers(0, 4, size=20)
        macro, plain = self.slice_accuracy(monkeypatch, pred_list, truth_list)
        per_class = []
        for c in range(4):
            mask = truth_list == c
            if mask.any():
                per_class.append((pred_list[mask] == c).mean())
        assert macro == pytest.approx(100 * np.mean(per_class))
        assert plain == pytest.approx(100 * (pred_list == truth_list).mean())

    def test_macro_equals_plain_on_balanced_sets(self):
        rng = np.random.default_rng(9)
        truth_list = np.repeat(np.arange(4), 5)
        pred_list = rng.integers(0, 4, size=20)
        macro = macro_accuracy(truth_list, pred_list, 4)
        # per-class accuracy averaged over equally sized classes == plain
        assert macro == pytest.approx(plain_accuracy(truth_list, pred_list))

    @pytest.mark.parametrize("score", [lambda t, p: macro_accuracy(t, p, 4), plain_accuracy],
                             ids=["macro", "plain"])
    def test_empty_label_set_rejected(self, score):
        with pytest.raises(ValueError, match="^cannot score an empty label set$"):
            score([], [])
