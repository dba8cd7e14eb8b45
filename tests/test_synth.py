import dataclasses
import json
import re

import numpy as np
import pytest

from ral.dataset import load_dataset
from ral.imageio import save_image
from ral.patches import TilingSpec, build_training_set, tile
from ral.synth import (DEFAULT_TEXTURES, MislabelOracle, OracleEntry, SynthSpec,
                       generate, oracle_eval, write_dataset)


def small_spec(**kw):
    defaults = dict(slide_size=(64, 64), window=16, stride=16,
                    slides_per_class=5, contamination_rho=0.25, seed=3)
    defaults.update(kw)
    return SynthSpec(**defaults)


def mislabeled_groups(oracle):
    ids = list(oracle.entries)
    return {gid for gid, flag in zip(ids, oracle.mislabeled(ids)) if flag}


class TestSpec:
    def test_overlapping_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            SynthSpec(stride=16, window=32)

    def test_indivisible_slide_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            SynthSpec(slide_size=(100, 128))

    def test_build_carries_the_seed_and_changes_no_setting(self):
        spec = small_spec(classes=3)
        built = spec.build(11)
        assert (built.seed, spec.seed) == (11, 3)
        assert built == spec and dataclasses.asdict(built) == dataclasses.asdict(spec)
        assert dataclasses.replace(built, noise_sigma=0.1).seed == 11
        split = spec.build(11, 0.4)
        assert (split.val_fraction, built.val_fraction, spec.val_fraction) == (0.4, 0.2, 0.2)
        assert dataclasses.replace(split, noise_sigma=0.1).val_fraction == 0.4

    def test_derived_textures_one_per_class_with_distinct_frequencies(self):
        for classes in range(1, 13):
            textures = SynthSpec(classes=classes, contamination_rho=0.0).texture_params
            assert len(textures) == classes
            assert len({f for f, _ in textures}) == classes

    def test_default_region_math(self):
        spec = SynthSpec()
        assert spec.regions_per_slide() == 16
        assert spec.contaminated_per_slide() == 2  # round(0.1 * 16)

    def test_quarter_rho_on_four_regions(self):
        spec = small_spec(slide_size=(32, 32), contamination_rho=0.25)
        assert spec.regions_per_slide() == 4
        assert spec.contaminated_per_slide() == 1


class TestGenerate:
    def test_rho_zero_oracle_all_clean(self):
        ds = generate(small_spec(contamination_rho=0.0))
        assert mislabeled_groups(ds.oracle) == set()

    def test_contaminated_count_exact_per_slide(self):
        spec = small_spec()  # 16 regions, rho 0.25 -> exactly 4 per slide
        ds = generate(spec)
        by_slide = {}
        for gid in mislabeled_groups(ds.oracle):
            by_slide[gid.split("/")[0]] = by_slide.get(gid.split("/")[0], 0) + 1
        for slide in ds.train_slides + ds.val_slides:
            assert by_slide.get(slide.slide_id, 0) == 4

    def test_same_seed_bit_identical(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for sa, sb in zip(a.train_slides + a.val_slides, b.train_slides + b.val_slides):
            assert sa.slide_id == sb.slide_id
            np.testing.assert_array_equal(sa.pixels, sb.pixels)
        assert a.oracle.to_json() == b.oracle.to_json()

    def test_different_seed_differs(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        assert not np.array_equal(a.train_slides[0].pixels, b.train_slides[0].pixels)

    def test_split_is_stratified(self):
        ds = generate(small_spec(slides_per_class=5, val_fraction=0.2))
        for names, expect in ((ds.train_slides, 4), (ds.val_slides, 1)):
            per_class = {}
            for s in names:
                per_class[s.class_label] = per_class.get(s.class_label, 0) + 1
            assert all(v == expect for v in per_class.values())

    def test_oracle_groups_match_tiling_cells(self):
        spec = small_spec(slides_per_class=2)
        ds = generate(spec)
        expected = set()
        for slide in ds.train_slides + ds.val_slides:
            for (col, row), _ in tile(slide, TilingSpec(spec.window, spec.stride)):
                expected.add(f"{slide.slide_id}/{col}/{row}")
        assert set(ds.oracle.entries) == expected

    def test_assigned_label_is_always_slide_label(self):
        ds = generate(small_spec())
        for gid, entry in ds.oracle.entries.items():
            assert entry.assigned_label == gid.split("/")[0].rsplit("_", 1)[0]

    def test_eleven_classes_reload_with_the_same_names_and_split(self, tmp_path):
        # class10 sorts before class2: the names and the split must follow
        # the order in which a dataset directory's classes are listed
        spec = small_spec(classes=11, slide_size=(16, 16), slides_per_class=5)
        ds = generate(spec)
        assert ds.class_names == sorted(ds.class_names)

        def ids(slides):
            return [(s.class_label, s.slide_id) for s in slides]

        train, val, class_names, _ = load_dataset(write_dataset(ds, tmp_path / "split"))
        assert class_names == ds.class_names
        assert ids(train) == ids(ds.train_slides) and ids(val) == ids(ds.val_slides)
        # a flat directory of the same slides is split on load the same way
        flat = tmp_path / "flat"
        for s in ds.train_slides + ds.val_slides:
            (flat / s.class_label).mkdir(parents=True, exist_ok=True)
            save_image(flat / s.class_label / f"{s.slide_id}.ppm", s.pixels)
        train, val, class_names, _ = load_dataset(flat, spec.val_fraction, spec.seed)
        assert class_names == ds.class_names
        assert ids(train) == ids(ds.train_slides) and ids(val) == ids(ds.val_slides)

    def test_mislabeled_fraction_near_rho(self):
        spec = SynthSpec(slides_per_class=6, contamination_rho=0.1, seed=5)
        ds = generate(spec)
        frac = len(mislabeled_groups(ds.oracle)) / len(ds.oracle)
        assert frac == pytest.approx(0.125, abs=0.03)  # round(1.6)=2 of 16


class TestSeparability:
    def test_nearest_centroid_on_texture_features(self):
        # the learnability floor: mean/gradient features must separate the
        # class textures even before any CNN training
        spec = SynthSpec(slides_per_class=4, contamination_rho=0.0, seed=7)
        ds = generate(spec)

        def features(patch):
            g = patch.mean(axis=2)
            return np.array([g.mean(),
                             np.abs(np.diff(g, axis=0)).mean(),
                             np.abs(np.diff(g, axis=1)).mean()])

        feats, labels = [], []
        name_to_idx = {n: i for i, n in enumerate(ds.class_names)}
        for slide in ds.train_slides + ds.val_slides:
            for _, crop in tile(slide, TilingSpec(spec.window, spec.stride)):
                feats.append(features(crop))
                labels.append(name_to_idx[slide.class_label])
        feats = np.stack(feats)
        labels = np.array(labels)
        fit, hold = slice(0, None, 2), slice(1, None, 2)  # every class in both
        centroids = np.stack([feats[fit][labels[fit] == c].mean(axis=0)
                              for c in range(4)])
        scale = feats[fit].std(axis=0) + 1e-9
        d = np.linalg.norm((feats[hold][:, None] - centroids[None]) / scale, axis=2)
        acc = (d.argmin(axis=1) == labels[hold]).mean()
        assert acc > 0.9


class TestOracleEval:
    def make_case(self):
        # three groups of 8 records; only group 0 is mislabeled
        oracle = MislabelOracle([OracleEntry("s/0/0", "A", "B"),
                                 OracleEntry("s/1/0", "A", "A"),
                                 OracleEntry("s/0/1", "A", "A")])
        flags = oracle.mislabeled(["s/0/0", "s/1/0", "s/0/1"])
        assert flags.tolist() == [True, False, False]
        group = np.repeat(np.arange(3), 8)
        return oracle, flags[group], group

    def test_nothing_removed(self):
        _, mislabeled, _ = self.make_case()
        m = oracle_eval(np.zeros(24, dtype=bool), mislabeled)
        assert (m.mislabel_recall, m.clean_false_removal_rate) == (0.0, 0.0)
        assert (m.removed_mislabeled, m.removed_clean) == (0, 0)

    def test_exactly_the_mislabeled_removed(self):
        _, mislabeled, group = self.make_case()
        m = oracle_eval(group == 0, mislabeled)
        assert (m.mislabel_recall, m.clean_false_removal_rate) == (1.0, 0.0)
        assert m.total_mislabeled == 8 and m.total_clean == 16
        assert m.removed_mislabeled == 8 and m.removed_clean == 0

    def test_random_removal_rates_near_fraction(self):
        spec = small_spec(slides_per_class=8)
        ds = generate(spec)
        ts = build_training_set(ds.train_slides, TilingSpec(spec.window, spec.stride),
                                ds.class_names)
        mislabeled = ds.oracle.mislabeled(ts.group_ids()).repeat(8)
        # 4 of each slide's 16 regions are mislabeled
        assert mislabeled.sum() == len(ts) // 4
        f = 0.3
        m = oracle_eval(np.random.default_rng(11).random(len(ts)) < f, mislabeled)
        assert m.mislabel_recall == pytest.approx(f, abs=0.05)
        assert m.clean_false_removal_rate == pytest.approx(f, abs=0.05)

    def test_unknown_id_rejected(self):
        oracle, _, _ = self.make_case()
        with pytest.raises(ValueError, match="unknown group_id 'nope/0/0'"):
            oracle.mislabeled(["s/0/0", "nope/0/0"])


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        spec = small_spec(slides_per_class=3)
        ds = generate(spec)
        root = write_dataset(ds, tmp_path / "data")
        train, val, class_names, oracle = load_dataset(root)
        assert class_names == ds.class_names
        assert len(train) == len(ds.train_slides)
        assert len(val) == len(ds.val_slides)
        assert oracle is not None
        assert mislabeled_groups(oracle) == mislabeled_groups(ds.oracle)
        # pixel content survives 8-bit quantization to within half a step
        by_id = {s.slide_id: s for s in ds.train_slides}
        loaded = train[0]
        np.testing.assert_allclose(loaded.pixels, by_id[loaded.slide_id].pixels,
                                   atol=0.5 / 255 + 1e-6)

    def test_generator_metadata_written(self, tmp_path):
        ds = generate(small_spec(slides_per_class=3))
        root = write_dataset(ds, tmp_path / "data")
        meta = json.loads((root / "generator.json").read_text())
        assert meta["window"] == 16
        assert meta["slides_per_class"] == 3
        # neither is a field; both are written, at their old key positions
        assert meta["seed"] == 3
        assert meta["texture_params"] == [list(t) for t in DEFAULT_TEXTURES]
        assert list(meta)[-3:] == ["texture_params", "val_fraction", "seed"]

    def test_split_with_no_validation_slide_is_not_written(self, tmp_path):
        # round(0.2 * 2) = 0 validation slides: generate allows it in memory,
        # but no command could read the directory, so nothing is written
        ds = generate(small_spec(slides_per_class=2))
        assert ds.train_slides and not ds.val_slides
        with pytest.raises(ValueError, match="the validation split is empty"):
            write_dataset(ds, tmp_path / "data")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("field", ["group_id", "assigned_label", "true_label"])
    def test_oracle_entry_without_a_field_rejected(self, tmp_path, field):
        root = write_dataset(generate(small_spec(slides_per_class=3)), tmp_path / "data")
        entries = json.loads((root / "oracle.json").read_text())
        del entries[3][field]
        (root / "oracle.json").write_text(json.dumps(entries))
        with pytest.raises(ValueError, match=f"oracle entry 3 has no '{field}' field"):
            load_dataset(root)

    def test_oracle_entry_that_is_no_object_rejected(self, tmp_path):
        root = write_dataset(generate(small_spec(slides_per_class=3)), tmp_path / "data")
        entries = json.loads((root / "oracle.json").read_text())
        entries[2] = 7
        (root / "oracle.json").write_text(json.dumps(entries))
        with pytest.raises(ValueError, match="oracle entry 2 has no 'group_id' field"):
            load_dataset(root)

    @pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"),
                                            ("{}", "dict"), ('"x"', "str")])
    def test_oracle_that_is_no_list_rejected(self, tmp_path, text, kind):
        # {} would read as an empty oracle
        root = write_dataset(generate(small_spec(slides_per_class=3)), tmp_path / "data")
        (root / "oracle.json").write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(root / 'oracle.json'))}: "
                                             f"expected a list of entries, got {kind}$"):
            load_dataset(root)

    def test_duplicate_group_id_rejected(self, tmp_path):
        root = write_dataset(generate(small_spec(slides_per_class=3)), tmp_path / "data")
        entries = json.loads((root / "oracle.json").read_text())
        first = entries[0]
        # a second entry for the same group that disagrees on its true label
        other = next(e["true_label"] for e in entries if e["true_label"] != first["true_label"])
        entries.append(dict(first, true_label=other))
        (root / "oracle.json").write_text(json.dumps(entries))
        with pytest.raises(ValueError, match=re.escape(
                f"group_id {first['group_id']!r} more than once")):
            load_dataset(root)


@pytest.mark.parametrize("first", ["duplicate", "missing"])
def test_oracle_reports_its_first_bad_entry(first):
    entries = [{"group_id": f"s/{i}/0", "assigned_label": "A", "true_label": "A"}
               for i in range(12)]
    dup, missing = (5, 9) if first == "duplicate" else (9, 5)
    entries[dup] = dict(entries[0])
    del entries[missing]["true_label"]
    message = ("group_id 's/0/0' more than once" if first == "duplicate"
               else f"oracle entry {missing} has no 'true_label' field")
    with pytest.raises(ValueError, match=re.escape(message)):
        MislabelOracle.from_json(json.dumps(entries))
    entries[missing]["true_label"] = "B"
    entries[dup]["group_id"] = "s/99/0"
    oracle = MislabelOracle.from_json(json.dumps(entries))
    assert list(oracle.entries) == [e["group_id"] for e in entries]
    fixed = entries[missing]
    assert oracle.entries[fixed["group_id"]] == OracleEntry(fixed["group_id"], "A", "B")
