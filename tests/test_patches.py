import numpy as np
import pytest

from ral.patches import (SlideImage, SlideMeta, TilingSpec, augment8,
                         build_manifest, build_training_set, cell_grid, grid_counts,
                         tile, variant_transform)

CLASSES = ["Benign", "InSitu", "Invasive", "Normal"]


def make_slide(slide_id, label, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return SlideImage(slide_id, label, rng.random((h, w, 3), dtype=np.float32))


class TestGrid:
    def test_full_scale_training_grid(self):
        assert grid_counts(1536, 2048, 512, 256) == (7, 5)

    def test_full_scale_nonoverlap_grid(self):
        assert grid_counts(1536, 2048, 512, 512) == (4, 3)

    def test_exact_fit_single_patch(self):
        assert grid_counts(512, 512, 512, 256) == (1, 1)

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="larger than image"):
            grid_counts(256, 256, 512, 256)

    def test_counts_match_brute_force_enumeration(self):
        # oracle: count window placements directly for many small geometries
        for dim in range(4, 40):
            for window in range(1, dim + 1):
                for stride in range(1, window + 1):
                    placed = len(range(0, dim - window + 1, stride))
                    cols, _ = grid_counts(dim, dim, window, stride)
                    assert cols == placed, (dim, window, stride)


class TestCellGrid:
    # stride = window and stride < window, on square, non-square and 1-channel slides
    @pytest.mark.parametrize("h, w, c, window, stride", [
        (8, 8, 3, 4, 4), (12, 20, 3, 4, 4), (10, 14, 3, 4, 3), (7, 5, 1, 3, 2),
        (16, 24, 1, 8, 8), (9, 9, 2, 9, 1)])
    def test_cells_are_the_explicit_slices(self, h, w, c, window, stride):
        pixels = np.random.default_rng(h * w).random((h, w, c), dtype=np.float32)
        grid = cell_grid(pixels, window, stride)
        cols, rows = grid_counts(h, w, window, stride)
        assert grid.shape == (rows, cols, window, window, c)
        for row in range(rows):
            for col in range(cols):
                y, x = row * stride, col * stride
                np.testing.assert_array_equal(grid[row, col],
                                              pixels[y:y + window, x:x + window])
        assert np.shares_memory(grid, pixels)

    def test_view_is_read_only(self):
        pixels = np.zeros((8, 8, 3), dtype=np.float32)
        grid = cell_grid(pixels, 4, 2)
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0, 0, 0, 0] = 1.0
        assert not pixels.any()

    def test_window_larger_than_slide_rejected(self):
        with pytest.raises(ValueError, match="window 8 larger than image 4x16"):
            cell_grid(np.zeros((16, 4, 3), dtype=np.float32), 8, 8)


class TestTile:
    def test_row_major_order_and_bounds(self):
        slide = make_slide("s", "Normal", 10, 14)
        spec = TilingSpec(window=4, stride=3)
        out = tile(slide, spec)
        cols, rows = grid_counts(10, 14, 4, 3)
        assert len(out) == cols * rows
        seen = [xy for xy, _ in out]
        assert seen == [(c, r) for r in range(rows) for c in range(cols)]
        for (col, row), crop in out:
            assert crop.shape == (4, 4, 3)
            assert col * 3 + 4 <= 14 and row * 3 + 4 <= 10
            np.testing.assert_array_equal(
                crop, slide.pixels[row * 3:row * 3 + 4, col * 3:col * 3 + 4])

    def test_patches_are_copies(self):
        slide = make_slide("s", "Normal", 8, 8)
        (_, crop), = tile(slide, TilingSpec(8, 8))
        crop[0, 0, 0] = 123.0
        assert slide.pixels[0, 0, 0] != 123.0


class TestAugment8:
    def test_constant_patch_gives_eight_identical(self):
        variants = augment8(np.full((6, 6, 3), 0.3, dtype=np.float32))
        assert len(variants) == 8
        for v in variants:
            np.testing.assert_array_equal(v, variants[0])

    def test_generic_patch_gives_eight_distinct(self):
        rng = np.random.default_rng(2)
        variants = augment8(rng.random((8, 8, 3), dtype=np.float32))
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(variants[i], variants[j]), (i, j)

    def test_group_laws(self):
        rng = np.random.default_rng(3)
        patch = rng.random((5, 5, 1), dtype=np.float32)
        r4 = patch
        for _ in range(4):
            r4 = np.rot90(r4, axes=(0, 1))
        np.testing.assert_array_equal(r4, patch)
        np.testing.assert_array_equal(np.flipud(np.flipud(patch)), patch)

    def test_variant_set_closed_under_all_transforms(self):
        rng = np.random.default_rng(4)
        variants = augment8(rng.random((6, 6, 3), dtype=np.float32))
        keys = {v.tobytes() for v in variants}
        for v in variants:
            for t in range(8):
                assert np.ascontiguousarray(variant_transform(v, t)).tobytes() in keys

    def test_variant_zero_is_identity(self):
        rng = np.random.default_rng(5)
        patch = rng.random((4, 4, 3), dtype=np.float32)
        np.testing.assert_array_equal(augment8(patch)[0], patch)

    def test_vertical_flip_swaps_top_and_bottom(self):
        patch = np.zeros((2, 2, 1), dtype=np.float32)
        patch[0, 0, 0] = 1.0  # top-left marker
        flipped = variant_transform(patch, 4)
        assert flipped[1, 0, 0] == 1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            augment8(np.zeros((4, 6, 3), dtype=np.float32))

    @pytest.mark.parametrize("variant", [-1, 8])
    def test_variant_out_of_range_rejected(self, variant):
        with pytest.raises(ValueError, match=f"^variant must be 0..7, got {variant}$"):
            variant_transform(np.zeros((2, 2, 1), dtype=np.float32), variant)


class TestManifest:
    def test_full_scale_record_count(self):
        metas = [SlideMeta(f"{c}_{i:03d}", c, 1536, 2048)
                 for c in CLASSES for i in range(80)]
        ts = build_manifest(metas, TilingSpec(512, 256), CLASSES)
        assert len(ts) == 89_600
        assert ts.crops is None

    def test_single_exact_slide(self):
        ts = build_manifest([SlideMeta("s", "Normal", 512, 512)],
                            TilingSpec(512, 512), ["Normal"])
        assert len(ts) == 8
        assert ts.patch_ids() == [f"s/0/0/{v}" for v in range(8)]
        assert ts.group_ids() == ["s/0/0"]

    def test_two_midsize_slides(self):
        metas = [SlideMeta("a", "Normal", 1024, 1024), SlideMeta("b", "Normal", 1024, 1024)]
        ts = build_manifest(metas, TilingSpec(512, 256), ["Normal"])
        assert len(ts) == 2 * 9 * 8

    def test_duplicate_slide_id_rejected(self):
        metas = [SlideMeta("x", "Normal", 512, 512), SlideMeta("x", "Benign", 512, 512)]
        with pytest.raises(ValueError, match="duplicate"):
            build_manifest(metas, TilingSpec(512, 512), ["Benign", "Normal"])

    def test_groups_complete_and_labels_inherited(self):
        metas = [SlideMeta("n1", "Normal", 96, 96), SlideMeta("b1", "Benign", 96, 96)]
        ts = build_manifest(metas, TilingSpec(32, 32), ["Benign", "Normal"])
        assert len(ts) % 8 == 0
        for g in range(len(ts) // 8):
            members = np.arange(8 * g, 8 * g + 8)
            variants = [int(pid.rsplit("/", 1)[1]) for pid in ts.patch_ids(members)]
            assert sorted(variants) == list(range(8))
            assert len(set(ts.label[members].tolist())) == 1
            assert len({(s, c, r) for s, c, r in zip(ts.slide[members], ts.col[members],
                                                      ts.row[members])}) == 1
        expected = [1 if ts.slide_ids[s] == "n1" else 0 for s in ts.slide]
        assert ts.label.tolist() == expected
        assert ts.active.all()

    def test_columns_match_nested_loop_enumeration(self):
        # oracle: slides in order, then grid rows, columns and variants
        metas = [SlideMeta("a", "Benign", 12, 20), SlideMeta("b", "Normal", 8, 8)]
        ts = build_manifest(metas, TilingSpec(4, 4), ["Benign", "Normal"])
        expected = []
        for s, meta in enumerate(metas):
            cols, rows = grid_counts(meta.height, meta.width, 4, 4)
            for row in range(rows):
                for col in range(cols):
                    expected.extend((s, col, row, v) for v in range(8))
        got = list(zip(ts.slide.tolist(), ts.col.tolist(), ts.row.tolist(),
                       [i % 8 for i in range(len(ts))]))
        assert got == expected
        # record i is variant i % 8 of group i // 8, whose id is group_ids()[i // 8]
        group_ids = ts.group_ids()
        assert len(group_ids) == len(ts) // 8
        assert [f"{group_ids[i // 8]}/{i % 8}" for i in range(len(ts))] == ts.patch_ids()


class TestTrainingSetBuild:
    def test_pixels_align_with_records(self):
        slides = [make_slide("a", "Normal", 8, 8, seed=1),
                  make_slide("b", "Benign", 8, 8, seed=2)]
        ts = build_training_set(slides, TilingSpec(4, 4), ["Benign", "Normal"])
        assert len(ts) == 2 * 4 * 8
        pixels = ts.images[np.arange(len(ts))]
        assert pixels.shape == (64, 4, 4, 3)
        assert pixels.dtype == np.float32
        # variant 0 of group a/1/0 is the raw crop at x0=4, y0=0
        i = ts.patch_ids().index("a/1/0/0")
        assert i % 8 == 0
        np.testing.assert_array_equal(pixels[i], slides[0].pixels[0:4, 4:8])
        for i in range(len(ts)):
            s, c, r, v = ts.slide[i], ts.col[i], ts.row[i], i % 8
            crop = slides[s].pixels[4 * r:4 * r + 4, 4 * c:4 * c + 4]
            np.testing.assert_array_equal(pixels[i], variant_transform(crop, v))

    def test_one_crop_per_group(self):
        # odd window, overlapping tiles, and rows gathered out of order
        slides = [make_slide("a", "Normal", 7, 5, seed=4)]
        ts = build_training_set(slides, TilingSpec(3, 2))
        assert ts.crops.shape == (len(ts) // 8, 3, 3, 3)
        for g in range(len(ts.crops)):
            np.testing.assert_array_equal(ts.crops[g], ts.images[[8 * g]][0])
        rows = np.array([13, 2, len(ts) - 1, 2, 8])
        got = ts.images[rows]
        assert got.shape == (5, 3, 3, 3) and got.dtype == np.float32
        for k, i in enumerate(rows):
            crop = ts.crops[i // 8]
            np.testing.assert_array_equal(got[k], variant_transform(crop, i % 8))

    @pytest.mark.parametrize("spec", [TilingSpec(4, 4), TilingSpec(4, 2), TilingSpec(5, 3)])
    def test_crops_are_the_tiles(self, spec):
        slides = [make_slide("a", "Normal", 12, 10, seed=6),
                  make_slide("b", "Benign", 8, 14, seed=7)]
        ts = build_training_set(slides, spec)
        tiles = [crop for slide in slides for _, crop in tile(slide, spec)]
        assert ts.crops.shape == (len(tiles), spec.window, spec.window, 3)
        for got, want in zip(ts.crops, tiles):
            np.testing.assert_array_equal(got, want)

    def test_deactivate_and_counts(self):
        slides = [make_slide("a", "Normal", 4, 4, seed=3)]
        ts = build_training_set(slides, TilingSpec(4, 4))
        assert ts.n_active == 8
        ts.active[[1, 5]] = False
        assert ts.n_active == 6
        assert ts.active_indices().tolist() == [0, 2, 3, 4, 6, 7]
        assert ts.patch_ids(~ts.active) == ["a/0/0/1", "a/0/0/5"]

    def test_manifest_dicts_carry_all_fields(self):
        from ral.patches import manifest_to_dicts

        ts = build_manifest([SlideMeta("s", "Benign", 64, 64)],
                            TilingSpec(32, 32), ["Benign", "Normal"])
        ts.active[10] = False
        dicts = manifest_to_dicts(ts)
        assert dicts[9] == {"patch_id": "s/1/0/1", "slide_id": "s", "grid_xy": [1, 0],
                            "variant": 1, "group_id": "s/1/0", "label": "Benign",
                            "active": True}
        assert dicts[10]["active"] is False
        group_ids = ts.group_ids()
        assert [group_ids[i // 8] for i in range(len(ts))] == [d["group_id"] for d in dicts]
