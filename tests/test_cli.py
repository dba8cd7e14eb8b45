import argparse
import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ral import cli, experiment
from ral.cli import main, output_lock
from ral.config import ExperimentConfig, NetworkSection
from ral.dataset import load_dataset
from ral.experiment import run_experiment
from ral.imageio import load_image, save_image, save_ralt
from ral.loop import RalConfig
from ral.nn import (Adam, LayerSpec, Network, NetworkSpec, build_classifier, network,
                    save_checkpoint)
from ral.patches import TilingSpec
from ral.slices import SlideCells
from ral.synth import MislabelOracle, SynthSpec


def tiny_config(tmp_path, **ral_overrides):
    ral = {"iterations": 1, "max_epochs": 2, "finetune_epochs": 1,
           "learning_rate": 0.002, "batch_size": 32}
    ral.update(ral_overrides)
    cfg = {
        "seed": 9,
        "dataset_path": str(tmp_path / "data"),
        "output_dir": str(tmp_path / "run"),
        "tiling": {"window": 16, "stride": 16},
        "network": {"channel_plan": [2, 4, 2]},
        "ral": ral,
        "synthetic": {"slide_size": [32, 32], "window": 16, "stride": 16,
                      "slides_per_class": 5, "contamination_rho": 0.25},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@contextlib.contextmanager
def held_lock(out, pid=4242):
    """out/.lock as a live run holds it: flocked, and naming ``pid``."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as f:
        f.write(f"{pid}\n")
        f.flush()
        fcntl.flock(f, fcntl.LOCK_EX)
        yield


# report.json embeds this block: its key order, and lists for tuple fields
DEFAULT_CONFIG_JSON = """\
{
 "seed": 0,
 "dataset_path": null,
 "output_dir": "out",
 "val_fraction": 0.2,
 "tiling": {
  "window": 32,
  "stride": 32
 },
 "network": {
  "channel_plan": [
   8,
   16,
   8
  ]
 },
 "ral": {
  "tau": 0.5,
  "group_threshold": 4,
  "iterations": 3,
  "max_epochs": 6,
  "target_train_accuracy": 1.01,
  "finetune_epochs": 2,
  "batch_size": 64,
  "learning_rate": 0.001
 },
 "synthetic": {
  "classes": 4,
  "slide_size": [
   128,
   128
  ],
  "window": 32,
  "stride": 32,
  "slides_per_class": 10,
  "contamination_rho": 0.1,
  "noise_sigma": 0.05
 }
}"""

# every key of every section, each set to a value other than its default
NON_DEFAULT_CONFIG = {
    "seed": 7, "dataset_path": "data", "output_dir": "runs/x", "val_fraction": 0.3,
    "tiling": {"window": 64, "stride": 16},
    "network": {"channel_plan": [4, 8, 4]},
    "ral": {"tau": 0.3, "group_threshold": 5, "iterations": 2, "max_epochs": 7,
            "target_train_accuracy": 0.9, "finetune_epochs": 3, "batch_size": 32,
            "learning_rate": 0.01},
    "synthetic": {"classes": 3, "slide_size": [96, 64], "window": 16, "stride": 16,
                  "slides_per_class": 6, "contamination_rho": 0.2, "noise_sigma": 0.1},
}


# every count key, and each entry of the list-valued ones, set to true
BOOL_COUNTS = [
    *[("tiling", k, True, f"tiling config key {k!r} must be an integer, got true")
      for k in ("window", "stride")],
    *[("ral", k, True, f"ral config key {k!r} must be an integer, got true")
      for k in ("group_threshold", "iterations", "max_epochs", "finetune_epochs")],
    ("ral", "batch_size", True, "ral config key 'batch_size' must be an integer, got true"),
    *[("synthetic", k, True, f"synthetic config key {k!r} must be an integer, got true")
      for k in ("classes", "window", "slides_per_class")],
    *[("synthetic", "slide_size", size, f"synthetic config key 'slide_size' must be a list "
                                        f"of integers, got {json.dumps(size)}")
      for size in ([True, 32], [32, True])],
    *[("network", "channel_plan", plan, f"network config key 'channel_plan' must be a list "
                                        f"of integers, got {json.dumps(plan)}")
      for plan in ([True, 2, 2], [2, True, 2], [2, 2, True])],
]


def leaves(d, prefix=""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from leaves(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment config keys"):
            ExperimentConfig.from_dict({"sed": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ral config keys"):
            ExperimentConfig.from_dict({"ral": {"tau": 0.5, "taus": 0.4}})
        # settings that no longer exist: the split fraction is the top-level
        # one, the stem is as wide as the first block, Adam's constants are
        # fixed, confidence is the own label's probability, Adam is never reset
        # and the texture amplitude is synth.TEXTURE_AMPLITUDE
        for section, key, value in (("synthetic", "val_fraction", 0.2),
                                    ("synthetic", "texture_amplitude", 0.25),
                                    ("network", "stem_channels", None), ("ral", "beta1", 0.9),
                                    ("ral", "beta2", 0.999), ("ral", "epsilon", 1e-8),
                                    ("ral", "confidence_mode", "label"),
                                    ("ral", "fresh_optimizer", False)):
            with pytest.raises(ValueError,
                               match=rf"^unknown {section} config keys: \['{key}'\]$"):
                ExperimentConfig.from_dict({section: {key: value}})

    def test_round_trips_through_dict(self):
        for d in ({"seed": 3, "tiling": {"window": 64}}, {}, NON_DEFAULT_CONFIG):
            cfg = ExperimentConfig.from_dict(d)
            again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert again.to_dict() == cfg.to_dict()
            assert again == cfg  # JSON lists come back as tuples
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        assert again.network.channel_plan == (4, 8, 4)
        assert again.synthetic.slide_size == (96, 64)
        assert json.loads(json.dumps(again.to_dict())) == NON_DEFAULT_CONFIG
        default = dict(leaves(json.loads(DEFAULT_CONFIG_JSON)))
        custom = dict(leaves(NON_DEFAULT_CONFIG))
        assert list(custom) == list(default)
        assert all(custom[k] != default[k] for k in custom)

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", -0.01, "learning_rate must be non-negative, got -0.01"),
    ])
    def test_optimizer_settings_rejected(self, tmp_path, capsys, key, value, message):
        # no dataset exists: the ral section is checked when the config loads
        cfg_path, cfg = tiny_config(tmp_path, **{key: value})
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert f"ral: error: {message}\n" in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "report.json").exists()

    def test_optimizer_bounds_included(self):
        # a zero learning rate freezes training, and tests rely on it; the
        # other constants are Adam's published ones
        adam = Adam(RalConfig(learning_rate=0.0).learning_rate)
        assert (adam.lr, adam.beta1, adam.beta2, adam.epsilon) == (0.0, 0.9, 0.999, 1e-8)

    def test_default_config_block_is_pinned(self):
        assert json.dumps(ExperimentConfig().to_dict(), indent=1) == DEFAULT_CONFIG_JSON

    def test_window_must_fit_network_pools(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            ExperimentConfig.from_dict({"tiling": {"window": 20, "stride": 20}})
        # the default stride of 32 trips TilingSpec's own check first
        with pytest.raises(ValueError, match="stride 32 exceeds window 20"):
            ExperimentConfig.from_dict({"tiling": {"window": 20}})

    def test_sections_are_the_library_classes(self):
        config = ExperimentConfig.from_dict({"tiling": {"stride": 16}, "ral": {"tau": 0.2},
                                             "synthetic": {"slide_size": [64, 32]}})
        assert config.tiling == TilingSpec(32, 16)
        assert config.ral == RalConfig(tau=0.2)
        assert config.synthetic == SynthSpec(slide_size=(64, 32))
        assert isinstance(ExperimentConfig().synthetic, SynthSpec)

    def test_seed_is_no_ral_setting(self):
        with pytest.raises(ValueError, match=r"unknown ral config keys: \['seed'\]"):
            ExperimentConfig.from_dict({"ral": {"seed": 3}})
        assert "seed" not in ExperimentConfig().to_dict()["ral"]

    def test_ral_settings_checked_at_load(self):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 1\), got 1.5"):
            ExperimentConfig.from_dict({"ral": {"tau": 1.5}})

    @pytest.mark.parametrize("key, value", [("seed", 1), ("texture_params", [[1, 0]])])
    def test_seed_and_textures_are_no_synthetic_settings(self, key, value):
        with pytest.raises(ValueError, match=rf"unknown synthetic config keys: \['{key}'\]"):
            ExperimentConfig.from_dict({"synthetic": {key: value}})
        assert key not in ExperimentConfig().to_dict()["synthetic"]

    @pytest.mark.parametrize("section, values, message", [
        ("synthetic", {"contamination_rho": 1.5}, "contamination_rho must be in [0, 1), got 1.5"),
        ("synthetic", {"window": 0, "stride": 0},
         "generator window must be a positive integer, got 0"),
        ("synthetic", {"classes": 1}, "contamination_rho 0.25 needs a second class to "
                                      "paint mislabeled regions with, got classes 1"),
        ("synthetic", {"slides_per_class": 0},
         "generator slides_per_class must be a positive integer, got 0"),
        ("synthetic", {"slides_per_class": 2.5},
         "synthetic config key 'slides_per_class' must be an integer, got 2.5"),
        ("synthetic", {"noise_sigma": -0.1}, "noise_sigma must be non-negative, got -0.1"),
        ("synthetic", {"slide_size": [0, 0]},
         "generator slide_size must be two positive integers, got [0, 0]"),
        (None, {"val_fraction": 1.0}, "val_fraction must be in (0, 1), got 1.0"),
        (None, {"val_fraction": -0.1}, "val_fraction must be in (0, 1), got -0.1"),
        ("network", {"channel_plan": [0, 16, 8]},
         "channel widths must be positive integers, got channel_plan [0, 16, 8]"),
        ("network", {"channel_plan": [8.5, 16, 8]}, "network config key 'channel_plan' must be "
                                                    "a list of integers, got [8.5, 16, 8]"),
        ("network", {"channel_plan": [8, 16]}, "channel_plan must have three block widths"),
        ("tiling", {"window": 16.0, "stride": 16.0},
         "tiling config key 'window' must be an integer, got 16.0"),
        ("tiling", {"stride": 8.0}, "tiling config key 'stride' must be an integer, got 8.0"),
        ("tiling", {"stride": 0}, "tiling stride must be a positive integer, got 0"),
        ("ral", {"batch_size": 8.5}, "ral config key 'batch_size' must be an integer, got 8.5"),
        ("ral", {"batch_size": 0}, "batch_size must be a positive integer, got 0"),
        ("ral", {"iterations": 1.0}, "ral config key 'iterations' must be an integer, got 1.0"),
        ("ral", {"max_epochs": -1}, "max_epochs must be a non-negative integer, got -1"),
        ("ral", {"finetune_epochs": 0.5},
         "ral config key 'finetune_epochs' must be an integer, got 0.5"),
        ("ral", {"group_threshold": 4.0},
         "ral config key 'group_threshold' must be an integer, got 4.0"),
        ("ral", {"group_threshold": 9}, "group_threshold must be at most 8, got 9"),
        ("ral", {"batch_size": "64"}, "ral config key 'batch_size' must be an integer, "
                                      "got \"64\""),
        ("ral", {"learning_rate": True}, "ral config key 'learning_rate' must be a number, "
                                         "got true"),
        ("synthetic", {"noise_sigma": True}, "synthetic config key 'noise_sigma' must be a "
                                             "number, got true"),
        ("synthetic", {"contamination_rho": "x"}, "synthetic config key 'contamination_rho' "
                                                  "must be a number, got \"x\""),
        ("ral", {"target_train_accuracy": "x"}, "ral config key 'target_train_accuracy' must "
                                                "be a number, got \"x\""),
        ("ral", {"tau": "0.5"}, "ral config key 'tau' must be a number, got \"0.5\""),
        (None, {"val_fraction": "0.2"},
         "experiment config key 'val_fraction' must be a number, got \"0.2\""),
        (None, {"output_dir": 5}, "experiment config key 'output_dir' must be a string, got 5"),
        (None, {"dataset_path": 5},
         "experiment config key 'dataset_path' must be a string or null, got 5"),
        (None, {"dataset_path": ["a"]},
         "experiment config key 'dataset_path' must be a string or null, got [\"a\"]"),
        ("synthetic", {"slide_size": [64, 64, 64]},
         "generator slide_size must be two positive integers, got [64, 64, 64]"),
        ("synthetic", {"slide_size": [64]},
         "generator slide_size must be two positive integers, got [64]"),
    ], ids=["rho", "window", "one-class", "no-slides", "float-slides", "sigma", "empty-size",
            "val-1", "val-negative", "zero-width", "float-width", "two-widths",
            "float-tiling-window", "float-tiling-stride", "zero-tiling-stride", "float-batch",
            "zero-batch",
            "float-iterations", "negative-epochs", "float-finetune-epochs",
            "float-group-threshold", "group-threshold-9", "string-batch-size",
            "bool-learning-rate", "bool-sigma", "string-rho", "string-target-accuracy",
            "string-tau", "string-val-fraction", "number-output-dir", "number-dataset-path",
            "list-dataset-path", "three-entry-size", "one-entry-size"])
    def test_bad_values_rejected_at_load(self, tmp_path, capsys, monkeypatch, section, values,
                                         message):
        def no_load(*args, **kwargs):
            raise AssertionError("loaded the dataset of a run with a bad config")

        # the dataset exists, so nothing but the config stops ral ral
        cfg_path, cfg = tiny_config(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]]) == 0
        monkeypatch.setattr(ExperimentConfig, "load_dataset", no_load)
        (cfg[section] if section else cfg).update(values)
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        for command in ("generate", "ral"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
            assert f"ral: error: {message}" in capsys.readouterr().err
            assert [p.name for p in out.iterdir()] == ["error.log"]

    @pytest.mark.parametrize("section, key, value, message", BOOL_COUNTS,
                             ids=[f"{s}.{k}" for s, k, _, _ in BOOL_COUNTS])
    def test_a_bool_is_no_count(self, section, key, value, message):
        # true in JSON is a Python bool, and a bool is an int
        value = json.loads(json.dumps(value))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("build, message", [
        (lambda: RalConfig(tau="0.5"), "ral config key 'tau' must be a number, got \"0.5\""),
        (lambda: TilingSpec(16.0, 16), "tiling config key 'window' must be an integer, got 16.0"),
        (lambda: SynthSpec(slide_size=(64, 64.0)),
         "synthetic config key 'slide_size' must be a list of integers, got [64, 64.0]"),
        (lambda: NetworkSection(channel_plan=(8, 16.0, 8)),
         "network config key 'channel_plan' must be a list of integers, got [8, 16.0, 8]"),
        (lambda: NetworkSection(channel_plan=[8, 16, 8]),
         "network config key 'channel_plan' must be a tuple of integers, got a list [8, 16, 8]"),
        (lambda: ExperimentConfig(val_fraction="0.2"),
         "experiment config key 'val_fraction' must be a number, got \"0.2\""),
        (lambda: ExperimentConfig(ral={"tau": 0.5}),
         "experiment config key 'ral' must be a RalConfig, got {\"tau\": 0.5}"),
        (lambda: dataclasses.replace(ExperimentConfig(), output_dir=5),
         "experiment config key 'output_dir' must be a string, got 5"),
        # the top-level val_fraction is in (0, 1) by the config's own check
        (lambda: SynthSpec().build(0, 1.0), "generator val_fraction must be in [0, 1), got 1.0"),
    ], ids=["ral", "tiling", "synthetic", "network", "list", "experiment", "section",
            "replace", "generator-val-fraction"])
    def test_direct_construction_is_checked(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_an_int_stays_an_int_in_a_float_setting(self):
        config = ExperimentConfig.from_dict({"ral": {"learning_rate": 0}})
        assert json.dumps(config.to_dict()["ral"]["learning_rate"]) == "0"

    @pytest.mark.parametrize("seed, flag, message", [
        (-1, None, "seed must be a non-negative integer, got -1"),
        (1.5, None, "experiment config key 'seed' must be an integer, got 1.5"),
        (True, None, "experiment config key 'seed' must be an integer, got true"),
        ("x", None, "experiment config key 'seed' must be an integer, got \"x\""),
        (0, "-1", "seed must be a non-negative integer, got -1"),
    ], ids=["-1-None", "1.5-None", "True-None", "x-None", "0--1"])
    def test_bad_seed_fails_before_the_dataset_loads(self, tmp_path, capsys, monkeypatch,
                                                     seed, flag, message):
        def no_load(*args, **kwargs):
            raise AssertionError("loaded the dataset of a run with a bad seed")

        monkeypatch.setattr(ExperimentConfig, "load_dataset", no_load)
        cfg_path, cfg = tiny_config(tmp_path)
        cfg["seed"] = seed
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["ral", "--config", str(cfg_path), "--out", str(out)]
                    + (["--seed", flag] if flag else [])) == 1
        assert f"ral: error: {message}\n" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.log"]

    @pytest.mark.parametrize("text, message", [
        ('{"ral": null}', "ral config must be a JSON object, got null"),
        ('[]', "experiment config must be a JSON object, got []"),
        ('{"tiling": 32}', "tiling config must be a JSON object, got 32"),
        ('{"network": {"channel_plan": 8}}',
         "network config key 'channel_plan' must be a list of integers, got 8"),
        ('{"synthetic": {"slide_size": "64"}}',
         "synthetic config key 'slide_size' must be a list of integers, got \"64\""),
    ], ids=["null-section", "list-top-level", "number-section", "number-plan",
            "string-size"])
    def test_malformed_config_names_its_section(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "data")]) == 1
        assert f"ral: error: {message}\n" in capsys.readouterr().err
        # the config fails to load, so only the error log goes to --out
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["error.log"]


class TestCommands:
    def test_generate_then_ral_writes_all_artifacts(self, tmp_path):
        # tau 0.24 completes the round (0.5 empties the set, and exits 1)
        cfg_path, cfg = tiny_config(tmp_path, tau=0.24)
        assert main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]]) == 0
        assert main(["ral", "--config", str(cfg_path)]) == 0
        out = Path(cfg["output_dir"])
        for name in ("report.json", "table1.csv", "table3.csv", "audit.csv",
                     "checkpoint.ralw", "checkpoint.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9
        assert report["oracle_metrics"] is not None
        assert len(report["iterations"]) <= 2

    def test_ral_is_byte_deterministic(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path, tau=0.24)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        out = Path(cfg["output_dir"])
        assert main(["ral", "--config", str(cfg_path)]) == 0
        first = {n: (out / n).read_bytes() for n in ("report.json", "audit.csv")}
        assert main(["ral", "--config", str(cfg_path)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_k_zero_single_row_with_full_count(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path, iterations=0)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        assert main(["ral", "--config", str(cfg_path)]) == 0
        report = json.loads((Path(cfg["output_dir"]) / "report.json").read_text())
        assert len(report["iterations"]) == 1
        row = report["iterations"][0]
        # 16 train slides x 4 cells x 8 variants
        assert row["active_before"] == row["active_after"] == 16 * 4 * 8
        table1 = (Path(cfg["output_dir"]) / "table1.csv").read_text().splitlines()
        assert table1 == ["iteration,active_count", f"0,{row['active_after']}"]

    def test_generate_splits_at_the_top_level_val_fraction(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        cfg["val_fraction"] = 0.5
        cfg["synthetic"]["slides_per_class"] = 4
        cfg_path.write_text(json.dumps(cfg))
        data = Path(cfg["dataset_path"])
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 0
        for split, per_class in (("train", 2), ("val", 2)):
            dirs = sorted((data / split).iterdir())
            assert len(dirs) == 4
            assert [len(list(d.iterdir())) for d in dirs] == [per_class] * 4
        assert json.loads((data / "generator.json").read_text())["val_fraction"] == 0.5

    def test_generate_rejects_a_split_with_no_training_slide(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)  # 5 slides per class
        cfg["val_fraction"] = 0.9
        cfg_path.write_text(json.dumps(cfg))
        data = Path(cfg["dataset_path"])
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 1
        assert ("ral: error: generator val_fraction 0.9 leaves no training slide of 5 per "
                "class\n") in capsys.readouterr().err
        assert [p.name for p in data.iterdir()] == ["error.log"]

    def test_generate_rejects_a_split_with_no_validation_slide(self, tmp_path, capsys):
        # round(0.2 * 2) = 0 validation slides: no command could read the directory
        cfg_path, cfg = tiny_config(tmp_path)
        cfg["synthetic"]["slides_per_class"] = 2
        cfg_path.write_text(json.dumps(cfg))
        data = Path(cfg["dataset_path"])
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 1
        assert ("ral: error: the validation split is empty: raise val_fraction or add slides "
                "so that each split gets at least one\n") in capsys.readouterr().err
        assert [p.name for p in data.iterdir()] == ["error.log"]

    def test_dataset_directory_never_mutated(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        before = tree_digest(cfg["dataset_path"])
        main(["ral", "--config", str(cfg_path)])
        main(["tile", "--config", str(cfg_path), "--out", str(tmp_path / "tiles")])
        assert tree_digest(cfg["dataset_path"]) == before

    def test_tile_manifest_is_flat_record_array(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        assert main(["tile", "--config", str(cfg_path), "--out", str(tmp_path / "tiles")]) == 0
        manifest = json.loads((tmp_path / "tiles" / "manifest.json").read_text())
        assert isinstance(manifest, list)
        # 16 train slides x 4 grid cells x 8 variants
        assert len(manifest) == 16 * 4 * 8
        rec = manifest[0]
        assert set(rec) == {"patch_id", "slide_id", "grid_xy", "variant",
                            "group_id", "label", "active"}
        assert all(r["active"] for r in manifest)

    def test_train_writes_a_checkpoint_and_its_log(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        runs = []
        for name in ("train1", "train2"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == [
                "checkpoint.json", "checkpoint.ralw", "train_log.json"]
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        # target_train_accuracy 1.01 never stops early: one row per epoch
        log = json.loads(runs[0]["train_log.json"])
        assert [row["epoch"] for row in log] == list(range(cfg["ral"]["max_epochs"]))
        assert all(set(row) == {"epoch", "loss", "accuracy"} for row in log)
        assert runs[0] == runs[1]
        # 16 train slides x 4 cells x 8 variants
        assert (f"trained 2 epochs on {16 * 4 * 8} records (final loss {log[-1]['loss']:.4f}"
                in capsys.readouterr().out)

    def test_csv_rows_reconcile_with_report(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path, iterations=2)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        main(["ral", "--config", str(cfg_path)])
        out = Path(cfg["output_dir"])
        report = json.loads((out / "report.json").read_text())
        rows = (out / "table1.csv").read_text().splitlines()[1:]
        assert len(rows) == len(report["iterations"])
        for line, it in zip(rows, report["iterations"]):
            k, active = line.split(",")
            assert int(k) == it["k"] and int(active) == it["active_after"]
        audit_rows = (out / "audit.csv").read_text().splitlines()[1:]
        removed_in_report = sum(it["removed_by_confidence"] + it["removed_by_group"]
                                for it in report["iterations"])
        assert len(audit_rows) == removed_in_report

    def test_eval_chance_level_on_uniform_net(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        net = Network(build_classifier(16, (2, 4, 2)), seed=0)
        for p in net.parameters():
            p[:] = 0
        ckpt = tmp_path / "uniform.ralw"
        save_checkpoint(ckpt, net)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 0
        summary = json.loads((tmp_path / "ev" / "eval.json").read_text())
        # uniform probabilities -> argmax is always class 0 -> macro ACA = 25%
        assert summary["val"]["patch_acc"] == pytest.approx(25.0)
        assert summary["val"]["slice_acc"] == pytest.approx(25.0)

    def test_predict_slide_writes_class_map(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        net = Network(build_classifier(16, (2, 4, 2)), seed=0)
        ckpt = tmp_path / "m.ralw"
        save_checkpoint(ckpt, net)
        image = next((Path(cfg["dataset_path"]) / "val").rglob("*.ppm"))
        assert main(["predict-slide", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--image", str(image),
                     "--out", str(tmp_path / "pred")]) == 0
        maps = list((tmp_path / "pred").glob("classmap_*.ppm"))
        assert len(maps) == 1

    def test_missing_dataset_is_single_line_error(self, tmp_path, capsys):
        cfg_path, _ = tiny_config(tmp_path)
        code = main(["ral", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ral: error:")

    def test_error_log_goes_to_config_output_dir(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        assert main(["ral", "--config", str(cfg_path)]) == 1
        log = Path(cfg["output_dir"]) / "error.log"
        assert "Traceback" in log.read_text()
        assert f"detail in {log}" in capsys.readouterr().err

    def test_diverged_training_fails_without_report(self, tmp_path, capsys, monkeypatch):
        import ral.experiment

        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        real_build = ral.experiment.build_network_for

        def nan_network(*args):
            net = real_build(*args)
            net.layers[0].w[0, 0, 0, 0] = np.nan
            return net

        monkeypatch.setattr(ral.experiment, "build_network_for", nan_network)
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert "at epoch 0, batch 0" in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "report.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        main(["ral", "--config", str(cfg_path), "--seed", "77"])
        report = json.loads((Path(cfg["output_dir"]) / "report.json").read_text())
        assert report["config"]["seed"] == 77


class TestLock:
    def test_concurrent_lock_rejected(self, tmp_path):
        out = tmp_path / "out"
        with output_lock(out):
            with pytest.raises(RuntimeError, match="locked"):
                with output_lock(out):
                    pass
        # released: can lock again
        with output_lock(out):
            pass

    def test_locked_output_dir_fails_command(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        with held_lock(Path(cfg["output_dir"])):
            assert main(["ral", "--config", str(cfg_path)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_holds_its_pid(self, tmp_path):
        with output_lock(tmp_path / "out") as out:
            assert (out / ".lock").read_text() == f"{os.getpid()}\n"

    def test_stale_lock_names_its_holder(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        out = Path(cfg["output_dir"])
        with held_lock(out):
            assert main(["generate", "--config", str(cfg_path)]) == 1
        assert "locked by another run (pid 4242)" in capsys.readouterr().err
        # the directory is the holder's: the failed run leaves nothing in it
        assert sorted(p.name for p in out.iterdir()) == [".lock"]

    def test_lock_of_a_killed_run_is_taken_over(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        out = Path(cfg["output_dir"])
        code = ("import sys, time\n"
                "from pathlib import Path\n"
                "from ral.cli import output_lock\n"
                "with output_lock(Path(sys.argv[1])):\n"
                "    print('held', flush=True)\n"
                "    time.sleep(60)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen([sys.executable, "-c", code, str(out)], text=True,
                                 stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        try:
            assert child.stdout.readline() == "held\n"
            assert main(["generate", "--config", str(cfg_path)]) == 1  # alive: refused
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()
        assert (out / ".lock").read_text() == f"{child.pid}\n"
        assert main(["generate", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert f"locked by another run (pid {child.pid})" in err
        assert (f"ral: taking over {out / '.lock'} from a run that ended without releasing it"
                f" (pid {child.pid})\n") in err
        assert not (out / ".lock").exists()  # released as usual

    def test_lock_file_without_holder_is_taken_over(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("4242\n")
        with output_lock(out):
            assert (out / ".lock").read_text() == f"{os.getpid()}\n"
        assert capsys.readouterr().err == (
            f"ral: taking over {out / '.lock'} from a run that ended without releasing it"
            f" (pid 4242)\n")

    def test_lock_unlinked_by_its_releaser_is_not_shared(self, tmp_path, monkeypatch):
        # a run that opened .lock just before the holder unlinked it gets the
        # flock of a file no path names; it must open the path afresh
        out = tmp_path / "out"
        out.mkdir()
        lock = out / ".lock"
        lock.write_text("4242\n")
        stale = os.open(lock, os.O_RDWR)
        lock.unlink()
        opened = []
        real_open = os.open

        def open_stale_first(path, flags, *args):
            if not opened:
                opened.append(path)
                return stale
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", open_stale_first)
        with output_lock(out):
            assert lock.read_text() == f"{os.getpid()}\n"
            with pytest.raises(cli.OutputLocked):
                with output_lock(out):
                    pass
        assert opened == [lock]


    @pytest.mark.parametrize("command", ["generate", "tile", "train", "ral", "eval",
                                         "predict-slide"])
    def test_locked_output_dir_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} worked in a locked output dir")

        for target in ("ral.cli.load_checkpoint", "ral.cli.generate",
                       "ral.config.ExperimentConfig.load_dataset"):
            monkeypatch.setattr(target, no_work)
        cfg_path, cfg = tiny_config(tmp_path)
        out = Path(cfg["output_dir"])
        args = [command, "--config", str(cfg_path)]
        if command in ("eval", "predict-slide"):
            args += ["--checkpoint", str(tmp_path / "w.ralw")]
        if command == "predict-slide":
            args += ["--image", str(tmp_path / "slide.ppm")]
        with held_lock(out):
            assert main(args) == 1
        assert "locked by another run (pid 4242)" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [".lock"]


class TestAllocator:
    def test_main_caps_malloc_arenas(self, tmp_path, monkeypatch):
        # the thresholds come with ral.nn; a command adds the arena cap
        calls = []
        monkeypatch.setattr("ral.cli.mallopt", lambda *args: calls.append(args))
        cfg_path, cfg = tiny_config(tmp_path)
        with held_lock(Path(cfg["output_dir"])):
            assert main(["generate", "--config", str(cfg_path)]) == 1
        assert calls == [(network.M_ARENA_MAX, 1)]


class TestSetUp:
    """main's per-call set-up: one parser per process, no config copy unless a flag overrides."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_see_only_their_own_flags(self, tmp_path, monkeypatch):
        seen = []

        def record(args, config, out):
            seen.append((args, config.seed, config.output_dir, out))
            return 0

        for name in ("generate", "eval"):
            monkeypatch.setitem(cli.COMMANDS, name, record)
        cfg_path, cfg = tiny_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["eval", "--config", str(cfg_path), "--seed", "3", "--out", str(a),
                     "--checkpoint", "w.ralw"]) == 0
        assert main(["generate", "--config", str(cfg_path), "--seed", "4",
                     "--out", str(b)]) == 0
        assert main(["generate", "--config", str(cfg_path)]) == 0
        (args_a, *rest_a), (args_b, *rest_b), (args_c, *rest_c) = seen
        assert rest_a == [3, str(a), a] and args_a.checkpoint == "w.ralw"
        assert rest_b == [4, str(b), b] and not hasattr(args_b, "checkpoint")
        out = Path(cfg["output_dir"])
        assert rest_c == [cfg["seed"], cfg["output_dir"], out]
        assert (args_c.seed, args_c.out) == (None, None)

    def test_resolve_copies_the_config_only_to_override_it(self, monkeypatch):
        loaded = ExperimentConfig(seed=1, output_dir="run")
        monkeypatch.setattr(ExperimentConfig, "load", staticmethod(lambda path: loaded))

        def resolve(seed=None, out=None):
            return cli._resolve(argparse.Namespace(config="cfg.json", seed=seed, out=out))

        assert resolve() == (loaded, Path("run"))
        assert resolve()[0] is loaded
        seeded, out = resolve(seed=5)
        assert seeded is not loaded
        assert (seeded.seed, seeded.output_dir, out) == (5, "run", Path("run"))
        moved, out = resolve(out="elsewhere")
        assert (moved.seed, moved.output_dir, out) == (1, "elsewhere", Path("elsewhere"))
        assert (loaded.seed, loaded.output_dir) == (1, "run")


def write_flat_dataset(root, slides_per_class, size=32):
    # root/<class>/<slide>.ppm, split at load time
    rng = np.random.default_rng(0)
    for name in ("Benign", "InSitu", "Invasive", "Normal"):
        (root / name).mkdir(parents=True)
        for i in range(slides_per_class):
            save_image(root / name / f"{name}{i}.ppm",
                       rng.random((size, size, 3), dtype=np.float32))


class TestEmptySplit:
    # 2 slides per class at val_fraction 0.2: round(0.4) = 0 validation slides
    def test_ral_fails_before_training(self, tmp_path, capsys, monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path)
        write_flat_dataset(Path(cfg["dataset_path"]), 2)

        def no_training(*args, **kwargs):
            raise AssertionError("trained on a run without a validation split")

        monkeypatch.setattr("ral.experiment.run_ral", no_training)
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert "validation split is empty" in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "report.json").exists()

    def test_eval_fails_with_the_same_message(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        write_flat_dataset(Path(cfg["dataset_path"]), 2)
        ckpt = tmp_path / "w.ralw"
        save_checkpoint(ckpt, Network(build_classifier(16, (2, 4, 2)), seed=0))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        assert "validation split is empty" in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "eval.json").exists()

    def test_three_slides_per_class_pass_the_check(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        write_flat_dataset(Path(cfg["dataset_path"]), 3)
        ckpt = tmp_path / "w.ralw"
        save_checkpoint(ckpt, Network(build_classifier(16, (2, 4, 2)), seed=0))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        summary = json.loads((Path(cfg["output_dir"]) / "eval.json").read_text())
        assert sorted(summary) == ["train", "val"]


def fails_leaving_only_the_error_log(cfg_path, command, tmp_path, capsys, message):
    out = tmp_path / f"out_{command}"
    args = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "eval":
        ckpt = tmp_path / "w.ralw"
        save_checkpoint(ckpt, Network(build_classifier(16, (2, 4, 2)), seed=0))
        args += ["--checkpoint", str(ckpt)]
    assert main(args) == 1
    assert re.search(message, capsys.readouterr().err, re.M)
    assert sorted(p.name for p in out.iterdir()) == ["error.log"]


def add_slide(path, pixels):
    (save_ralt if path.suffix == ".ralt" else save_image)(path, pixels)


class TestSlideLayout:
    # a flat dataset of 3 RGB .ppm slides per class, plus one more slide
    @pytest.mark.parametrize("command", ["ral", "eval"])
    @pytest.mark.parametrize("extra, shape, message", [
        ("Normal/Normal9.pgm", (32, 32, 1),  # sorts after every .ppm
         r"Normal9\.pgm: slide has 1 channels, but the dataset's first slide has 3$"),
        ("Benign/A.pgm", (32, 32, 1),  # sorts first
         r"Benign0\.ppm: slide has 3 channels, but the dataset's first slide has 1$"),
        ("Benign/Benign9.ralt", (32, 32),
         r"Benign9\.ralt: slide shape \(32, 32\) is not HxWxC, C > 0$"),
        ("Benign/Benign9.ralt", (32, 32, 0),
         r"Benign9\.ralt: slide shape \(32, 32, 0\) is not HxWxC, C > 0$"),
    ])
    def test_flat_dataset(self, tmp_path, capsys, command, extra, shape, message):
        cfg_path, cfg = tiny_config(tmp_path)
        root = Path(cfg["dataset_path"])
        write_flat_dataset(root, 3)
        add_slide(root / extra, np.full(shape, 0.5, np.float32))
        fails_leaving_only_the_error_log(cfg_path, command, tmp_path, capsys, message)

    @pytest.mark.parametrize("command", ["ral", "eval"])
    def test_validation_split_keeps_the_training_channels(self, tmp_path, capsys, command):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        val = next(p for p in (Path(cfg["dataset_path"]) / "val").iterdir() if p.is_dir())
        add_slide(val / "zz.pgm", np.full((32, 32, 1), 0.5, np.float32))
        fails_leaving_only_the_error_log(
            cfg_path, command, tmp_path, capsys,
            r"zz\.pgm: slide has 1 channels, but the dataset's first slide has 3$")


class TestDatasetLayout:
    @pytest.mark.parametrize("layout, message", [
        ("no-class-dirs", "{root}: no class directories found"),
        ("class-without-slides", "{root}/Zeta: no slide images found"),
        ("train-without-val", "{root}: found only one of train/ and val/"),
        ("other-val-classes", "{root}: train and val class directories differ"),
        ("one-slide-per-class", "class Benign: validation fraction leaves no training slides"),
    ])
    def test_load_dataset_rejects(self, tmp_path, layout, message):
        root = tmp_path / "data"
        root.mkdir()
        if layout == "class-without-slides":  # sorts last; a file of another suffix is no slide
            write_flat_dataset(root, 3)
            (root / "Zeta").mkdir()
            (root / "Zeta" / "notes.txt").write_text("")
        elif layout == "train-without-val":
            write_flat_dataset(root / "train", 3)
        elif layout == "other-val-classes":
            write_flat_dataset(root / "train", 3)
            write_flat_dataset(root / "val", 1)
            (root / "val" / "Normal").rename(root / "val" / "Other")
        elif layout == "one-slide-per-class":  # round(0.6 * 1) = 1 of 1 slides goes to val
            write_flat_dataset(root, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(root=root))}$"):
            load_dataset(root, val_fraction=0.6, seed=0)

    def test_layout_is_checked_before_the_oracle_is_read(self, tmp_path):
        root = tmp_path / "data"
        write_flat_dataset(root / "train", 3)
        (root / "oracle.json").write_text("[7")  # no JSON, and no oracle entry
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{root}: found only one of train/ and val/") + "$"):
            load_dataset(root)


class TestWindow:
    def test_undivided_slides_fail_before_training(self, tmp_path, capsys, monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path)
        write_flat_dataset(Path(cfg["dataset_path"]), 3, size=40)

        def no_training(*args, **kwargs):
            raise AssertionError("trained on slides that the window does not divide")

        monkeypatch.setattr("ral.loop.initial_train", no_training)
        fails_leaving_only_the_error_log(cfg_path, "ral", tmp_path, capsys,
                                         r"slide \w+ is 40x40, not divisible by window 16$")


@pytest.mark.parametrize("command", ["tile", "train", "ral", "eval"])
def test_dataset_path_is_required(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tiling": {"window": 16, "stride": 16},
                                    "network": {"channel_plan": [2, 4, 2]}}))
    fails_leaving_only_the_error_log(
        cfg_path, command, tmp_path, capsys,
        r"^ral: error: config\.dataset_path is required for this command$")


class TestCheckpointClasses:
    # the tiny config's dataset has 4 classes of 3-channel slides
    def setup_case(self, tmp_path, monkeypatch, classes, in_channels=3):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        ckpt = tmp_path / "w.ralw"
        save_checkpoint(ckpt, Network(build_classifier(16, (2, 4, 2), in_channels, classes),
                                      seed=0))

        def no_forward(*args, **kwargs):
            raise AssertionError("ran a checkpoint whose classes or channels do not match")

        monkeypatch.setattr("ral.cli.evaluate_slides", no_forward)
        monkeypatch.setattr("ral.cli.predict_slide", no_forward)
        return cfg_path, cfg, ckpt

    @pytest.mark.parametrize("classes", [2, 5])
    def test_eval_rejects_other_class_count(self, tmp_path, capsys, monkeypatch, classes):
        cfg_path, cfg, ckpt = self.setup_case(tmp_path, monkeypatch, classes)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        assert (f"checkpoint {ckpt} outputs {classes} classes, but the dataset has 4"
                in capsys.readouterr().err)
        assert not (Path(cfg["output_dir"]) / "eval.json").exists()

    @pytest.mark.parametrize("classes", [2, 5])
    def test_predict_slide_rejects_other_class_count(self, tmp_path, capsys, monkeypatch,
                                                     classes):
        cfg_path, cfg, ckpt = self.setup_case(tmp_path, monkeypatch, classes)
        image = next((Path(cfg["dataset_path"]) / "val").rglob("*.ppm"))
        assert main(["predict-slide", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--image", str(image), "--out", str(tmp_path / "pred")]) == 1
        assert (f"checkpoint {ckpt} outputs {classes} classes, but the dataset has 4"
                in capsys.readouterr().err)
        assert not list((tmp_path / "pred").glob("classmap_*"))

    def test_eval_rejects_other_channel_count(self, tmp_path, capsys, monkeypatch):
        cfg_path, cfg, ckpt = self.setup_case(tmp_path, monkeypatch, 4, in_channels=1)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        assert (f"ral: error: checkpoint {ckpt} takes 1-channel input, but the dataset's "
                f"slides have 3 channels\n" in capsys.readouterr().err)
        assert not (Path(cfg["output_dir"]) / "eval.json").exists()


class TestCheckpointWindow:
    # the grid window is the checkpoint's input size, whatever the config's tiling
    @pytest.mark.parametrize("command", ["eval", "predict-slide"])
    def test_window_32_checkpoint_under_window_16_tiling(self, tmp_path, command):
        cfg_path, cfg = tiny_config(tmp_path)
        assert cfg["tiling"] == {"window": 16, "stride": 16}
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        cfg32_path = tmp_path / "cfg32.json"
        cfg32_path.write_text(json.dumps({**cfg, "tiling": {"window": 32, "stride": 32}}))
        ckpt = save_checkpoint(tmp_path / "w32.ralw",
                               Network(build_classifier(32, (2, 4, 2)), seed=0))
        image = next((Path(cfg["dataset_path"]) / "val").rglob("*.ppm"))
        extra = ["--image", str(image)] if command == "predict-slide" else []
        outs = [tmp_path / "out16", tmp_path / "out32"]
        for path, out in zip((cfg_path, cfg32_path), outs):
            assert main([command, "--config", str(path), "--checkpoint", str(ckpt),
                         "--out", str(out), *extra]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == (["eval.json"] if command == "eval"
                         else [f"classmap_{image.stem}.ppm"])
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        if command == "predict-slide":  # one 32-pixel cell per 32x32 slide
            assert load_image(outs[0] / names[0]).shape == (32, 32, 3)


class TestPredictSlideImage:
    # the image follows the dataset's HxWxC rule, with the checkpoint's C
    @pytest.mark.parametrize("name, shape, message", [
        ("flat.ralt", (32, 32), "slide shape (32, 32) is not HxWxC, C > 0"),
        ("gray.pgm", (32, 32, 1), "slide has 1 channels, but the input of checkpoint {} has 3"),
    ], ids=["rank-2-ralt", "one-channel-pgm"])
    def test_image_fails_naming_the_file(self, tmp_path, capsys, name, shape, message):
        cfg_path, cfg = tiny_config(tmp_path)
        cfg_path.write_text(json.dumps({**cfg, "dataset_path": None}))
        ckpt = tmp_path / "w.ralw"
        save_checkpoint(ckpt, Network(build_classifier(16, (2, 4, 2)), seed=0))
        image = tmp_path / name
        add_slide(image, np.full(shape, 0.5, np.float32))
        out = tmp_path / "pred"
        assert main(["predict-slide", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--image", str(image), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"ral: error: {image}: {message.format(ckpt)}\n" in err
        assert [p.name for p in out.iterdir()] == ["error.log"]


class TestPredictSlideClassNames:
    def run(self, tmp_path, dataset_path, out):
        cfg_path, cfg = tiny_config(tmp_path)
        cfg_path.write_text(json.dumps({**cfg, "dataset_path": dataset_path}))
        ckpt = save_checkpoint(tmp_path / "w.ralw",
                               Network(build_classifier(16, (2, 4, 2)), seed=0))
        image = tmp_path / "slide.ppm"
        save_image(image, np.random.default_rng(0).random((32, 32, 3), dtype=np.float32))
        return main(["predict-slide", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--image", str(image), "--out", str(out)])

    def test_no_dataset_path_gives_generic_names(self, tmp_path, capsys):
        assert self.run(tmp_path, None, tmp_path / "pred") == 0
        assert re.match(r"slide: class\d \(votes (class\d:\d(, )?)+\) -> ",
                        capsys.readouterr().out)
        assert [p.name for p in (tmp_path / "pred").iterdir()] == ["classmap_slide.ppm"]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_dataset_path_that_is_no_directory_fails(self, tmp_path, capsys, kind):
        path = tmp_path / "dta"
        if kind == "file":
            path.write_text("")
        out = tmp_path / "pred"
        assert self.run(tmp_path, str(path), out) == 1
        # load_dataset's message, as ral eval prints it
        message = f"dataset path {path} is not a directory"
        assert f"ral: error: {message}\n" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.log"]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("layout, message", [
        ("other-val-classes", "{root}: train and val class directories differ"),
        ("train-without-val", "{root}: found only one of train/ and val/"),
    ])
    def test_dataset_that_load_dataset_rejects_fails(self, tmp_path, capsys, layout, message):
        root = tmp_path / "data"
        write_flat_dataset(root / "train", 3)
        if layout == "other-val-classes":
            write_flat_dataset(root / "val", 1)
            (root / "val" / "Normal").rename(root / "val" / "Other")
        out = tmp_path / "pred"
        assert self.run(tmp_path, str(root), out) == 1
        message = message.format(root=root)
        assert f"ral: error: {message}\n" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.log"]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(root)


class TestEvaluationCells:
    """Each evaluation split is cut into its SlideCells once per run, and
    every round scores the cells cut before training."""

    def spy(self, monkeypatch, module):
        """Every SlideCells built, and every one that ``module``'s
        evaluate_slides scores, in order."""
        built, scored = [], []
        init, evaluate = SlideCells.__init__, module.evaluate_slides

        def spying_init(cells, *args):
            built.append(cells)
            init(cells, *args)

        def spying_evaluate(net, cells, class_names):
            scored.append(cells)
            return evaluate(net, cells, class_names)

        monkeypatch.setattr(SlideCells, "__init__", spying_init)
        monkeypatch.setattr(module, "evaluate_slides", spying_evaluate)
        return built, scored

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_ral_cuts_each_split_once(self, tmp_path, monkeypatch, iterations):
        cfg_path, cfg = tiny_config(tmp_path, tau=0.24, iterations=iterations)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        built, scored = self.spy(monkeypatch, experiment)
        assert main(["ral", "--config", str(cfg_path)]) == 0
        report = json.loads((Path(cfg["output_dir"]) / "report.json").read_text())
        assert len(report["iterations"]) == iterations + 1
        # train and val, each built once and scored in every round: none discarded
        assert [len(c.slides) for c in built] == [16, 4]
        assert len(scored) == 2 * len(report["iterations"])
        assert all(c is b for c, b in zip(scored, built * len(report["iterations"])))

    def test_eval_cuts_each_split_once(self, tmp_path, monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        ckpt = save_checkpoint(tmp_path / "w.ralw",
                               Network(build_classifier(16, (2, 4, 2)), seed=0))
        built, scored = self.spy(monkeypatch, cli)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        assert [len(c.slides) for c in built] == [16, 4]
        assert len(scored) == 2 and all(c is b for c, b in zip(scored, built))


# the cause each zero-size edit must name
ZERO_SIZE_CAUSES = {
    "zero-classes": "input and classes must be positive integers, got [16, 16, 3] and 0",
    "zero-input": "input and classes must be positive integers, got [0, 16, 3] and 4",
    "zero-width": "conv channels must be positive, got 0",
}


class TestMalformedCheckpointSpec:
    @pytest.mark.parametrize("edit", ["no-layers", "unknown-layer-key", "list", "sigmoid",
                                      "float-input", "float-classes", *ZERO_SIZE_CAUSES])
    def test_eval_fails_naming_the_spec_file(self, tmp_path, capsys, edit):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        ckpt = save_checkpoint(tmp_path / "w.ralw",
                               Network(build_classifier(16, (2, 4, 2)), seed=0))
        spec_path = tmp_path / "w.json"
        spec = json.loads(spec_path.read_text())
        if edit == "no-layers":
            del spec["layers"]
        elif edit == "unknown-layer-key":
            spec["layers"][0]["stride"] = 1
        elif edit == "sigmoid":  # any activation but relu would run as none
            spec["layers"][0]["activation"] = "sigmoid"
        elif edit == "float-input":  # 16.0 == 16, so it would pass every check
            spec["input"][0] = 16.0
        elif edit == "float-classes":
            spec["classes"] = 4.0
        elif edit == "zero-classes":  # a head of no unit per class composes
            spec["classes"] = spec["layers"][-1]["channels"] = 0
        elif edit == "zero-input":
            spec["input"][0] = 0
        elif edit == "zero-width":
            spec["layers"][0]["channels"] = 0
        else:
            spec = list(spec.values())
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"ral: error: {spec_path}: malformed network spec (" in err
        assert ZERO_SIZE_CAUSES.get(edit, "") in err
        assert [p.name for p in out.iterdir()] == ["error.log"]

    def test_predict_slide_without_dataset_fails_naming_the_spec_file(self, tmp_path, capsys):
        # no dataset_path: the class names come from the spec's class count
        cfg_path, cfg = tiny_config(tmp_path)
        cfg_path.write_text(json.dumps({**cfg, "dataset_path": None}))
        net = Network(NetworkSpec((8, 8, 3), (LayerSpec("dense", channels=2),), 2), seed=0)
        ckpt = save_checkpoint(tmp_path / "w.ralw", net)
        spec = net.spec.to_dict()
        spec["classes"] = spec["layers"][0]["channels"] = 0
        spec_path = tmp_path / "w.json"
        spec_path.write_text(json.dumps(spec))
        image = tmp_path / "slide.ppm"
        save_image(image, np.full((32, 32, 3), 0.5, np.float32))
        out = tmp_path / "pred"
        assert main(["predict-slide", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--image", str(image), "--out", str(out)]) == 1
        assert (f"ral: error: {spec_path}: malformed network spec (ValueError('input and "
                f"classes must be positive integers") in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.log"]

    # a dense head composes at any input rank, so only the spec reader can
    # tell that the input is no HxWxC grid
    @pytest.mark.parametrize("size", [(16, 16), (16, 16, 3, 1)],
                             ids=["rank-2-input", "rank-4-input"])
    def test_dense_only_spec_of_another_rank_fails(self, tmp_path, capsys, size):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        net = Network(NetworkSpec(size, (LayerSpec("dense", channels=4),), 4), seed=0)
        ckpt = save_checkpoint(tmp_path / "w.ralw", net)
        capsys.readouterr()
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        assert (f"ral: error: {tmp_path / 'w.json'}: malformed network spec (ValueError("
                f"'input must be [height, width, channels], got {list(size)}')"
                in capsys.readouterr().err)
        assert [p.name for p in out.iterdir()] == ["error.log"]


class TestNonSquareCheckpoint:
    # slides are cut into square cells, so both commands refuse a checkpoint
    # of non-square input before they read a dataset or a slide
    @pytest.mark.parametrize("command", ["eval", "predict-slide"])
    def test_rejected_before_any_read(self, tmp_path, capsys, monkeypatch, command):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        net = Network(NetworkSpec((16, 32, 3), (LayerSpec("dense", channels=4),), 4), seed=0)
        ckpt = save_checkpoint(tmp_path / "w.ralw", net)
        image = tmp_path / "slide.ppm"
        save_image(image, np.full((32, 32, 3), 0.5, np.float32))
        reads = []
        monkeypatch.setattr(ExperimentConfig, "load_dataset",
                            lambda self: reads.append("load_dataset"))
        monkeypatch.setattr(cli, "load_slide", lambda *args: reads.append("load_slide"))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", str(out)]
        assert main(argv + ["--image", str(image)] * (command == "predict-slide")) == 1
        assert reads == []
        assert (f"ral: error: checkpoint {ckpt} takes 16x32 (HxW) input, not square\n"
                in capsys.readouterr().err)
        assert [p.name for p in out.iterdir()] == ["error.log"]


class TestOracleMetrics:
    # tau 0.24 removes part of the records; tau 0.5 empties the set, so
    # ral ral exits 1 after writing its artifacts
    @pytest.mark.parametrize("tau", [0.24, 0.5])
    def test_match_a_patch_id_reference(self, tmp_path, tau):
        cfg_path, cfg = tiny_config(tmp_path, tau=tau)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        assert main(["ral", "--config", str(cfg_path)]) == (1 if tau == 0.5 else 0)
        data, out = Path(cfg["dataset_path"]), Path(cfg["output_dir"])
        # reference: score patch id strings, as audit.csv and oracle.json spell them
        oracle = {e["group_id"]: e["assigned_label"] != e["true_label"]
                  for e in json.loads((data / "oracle.json").read_text())}
        removed = {line.split(",")[1]
                   for line in (out / "audit.csv").read_text().splitlines()[1:]}
        # every record of the training slides: 32x32 slides, 2x2 cells, 8 variants
        population = [f"{p.stem}/{c}/{r}/{v}" for p in (data / "train").rglob("*.ppm")
                      for c in range(2) for r in range(2) for v in range(8)]
        assert removed <= set(population)
        mis = [pid for pid in population if oracle[pid.rsplit("/", 1)[0]]]
        clean = [pid for pid in population if not oracle[pid.rsplit("/", 1)[0]]]
        rem_mis = sum(pid in removed for pid in mis)
        rem_clean = sum(pid in removed for pid in clean)
        report = json.loads((out / "report.json").read_text())
        assert report["oracle_metrics"] == {
            "mislabel_recall": rem_mis / len(mis),
            "clean_false_removal_rate": rem_clean / len(clean),
            "removed_mislabeled": rem_mis, "total_mislabeled": len(mis),
            "removed_clean": rem_clean, "total_clean": len(clean)}
        assert rem_mis > 0

    def test_oracle_without_a_training_group_fails_before_training(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        oracle_path = Path(cfg["dataset_path"]) / "oracle.json"
        train_slide = next((Path(cfg["dataset_path"]) / "train").rglob("*.ppm")).stem
        entries = [e for e in json.loads(oracle_path.read_text())
                   if e["group_id"] != f"{train_slide}/1/0"]
        oracle_path.write_text(json.dumps(entries))

        def no_training(*args, **kwargs):
            raise AssertionError("trained against an oracle that lacks a group")

        monkeypatch.setattr("ral.experiment.run_ral", no_training)
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert f"unknown group_id '{train_slide}/1/0'" in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "report.json").exists()

    def test_relabelled_assigned_label_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        oracle_path = Path(cfg["dataset_path"]) / "oracle.json"
        entries = json.loads(oracle_path.read_text())
        train_slides = {p.stem for p in (Path(cfg["dataset_path"]) / "train").rglob("*.ppm")}
        entry = next(e for e in entries if e["group_id"].split("/")[0] in train_slides
                     and e["assigned_label"] == e["true_label"])
        label = entry["assigned_label"]
        other = next(e["assigned_label"] for e in entries if e["assigned_label"] != label)
        entry["assigned_label"] = other
        oracle_path.write_text(json.dumps(entries))

        steps = []
        monkeypatch.setattr("ral.nn.Network.loss_and_grads",
                            lambda *args, **kwargs: steps.append(1))
        assert main(["ral", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert (f"group {entry['group_id']!r} assigned_label {other!r}, "
                f"but the training set labels it {label!r}") in err
        assert steps == []
        assert not (Path(cfg["output_dir"]) / "report.json").exists()

    # 16-px regions under 32-px cells share their slide/col/row ids with other
    # pixels; 32-px regions under 16-px cells lack most cells' ids
    @pytest.mark.parametrize("regions, cells, without_grid", [
        (16, 32, "reached training"), (32, 16, "unknown group_id 'Benign_000/2/0'")],
        ids=["finer-regions", "coarser-regions"])
    def test_oracle_grid_other_than_the_tiling_fails_before_training(
            self, tmp_path, capsys, monkeypatch, regions, cells, without_grid):
        cfg_path, cfg = tiny_config(tmp_path)
        cfg["synthetic"].update(slide_size=[64, 64], window=regions, stride=regions)
        cfg["tiling"] = {"window": cells, "stride": cells}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("reached training")

        monkeypatch.setattr("ral.experiment.run_ral", no_training)
        capsys.readouterr()
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert (f"the oracle's regions are generator.json's window/stride {regions}/{regions} "
                f"cells, but tiling cuts {cells}/{cells} cells") in capsys.readouterr().err
        assert not (Path(cfg["output_dir"]) / "report.json").exists()
        # an oracle.json with no generator.json beside it has no grid to check
        (Path(cfg["dataset_path"]) / "generator.json").unlink()
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert without_grid in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [[], {"window": 16}, {"stride": 16}])
    def test_generator_json_without_the_grid_rejected(self, tmp_path, meta):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        path = Path(cfg["dataset_path"]) / "generator.json"
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no window and stride"):
            ExperimentConfig.from_dict(cfg).load_dataset()

    # "16" would read as a grid that no tiling matches, and true as 1
    @pytest.mark.parametrize("key, value", [("window", "16"), ("window", True),
                                            ("window", 16.0), ("window", 0),
                                            ("stride", "16"), ("stride", -16)],
                             ids=["window-str", "window-bool", "window-float", "window-zero",
                                  "stride-str", "stride-negative"])
    def test_generator_json_grid_of_no_positive_integers_rejected(self, tmp_path, capsys,
                                                                  key, value):
        cfg_path, cfg = tiny_config(tmp_path)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        path = Path(cfg["dataset_path"]) / "generator.json"
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))
        grid = {"window": 16, "stride": 16, key: value}
        capsys.readouterr()
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert (f"ral: error: {path}: window and stride must be positive integers, "
                f"got {grid['window']!r} and {grid['stride']!r}\n") in capsys.readouterr().err
        assert [p.name for p in Path(cfg["output_dir"]).iterdir()] == ["error.log"]

    def test_unmodified_oracle_passes_the_label_check(self, tmp_path, monkeypatch):
        cfg_path, cfg = tiny_config(tmp_path, tau=0.24)  # a run that completes
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        checked = []
        lookup = MislabelOracle.mislabeled

        def recorded(self, group_ids, labels=None):
            checked.append((len(group_ids), len(labels)))
            return lookup(self, group_ids, labels)

        monkeypatch.setattr(MislabelOracle, "mislabeled", recorded)
        assert main(["ral", "--config", str(cfg_path)]) == 0
        # one label per group: 16 training slides of 2x2 cells
        assert checked == [(64, 64)]


class TestRunExperiment:
    def test_empty_set_halt_reported(self, tmp_path, capsys):
        # zero learning rate keeps the net uniform: everything gets pruned
        cfg_path, cfg = tiny_config(tmp_path, learning_rate=0.0, max_epochs=1)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        config = ExperimentConfig.load(cfg_path)
        output = run_experiment(config, tmp_path / "halt")
        assert output.result.status == "empty_refined_set"
        report = json.loads((tmp_path / "halt" / "report.json").read_text())
        assert report["status"] == "empty_refined_set"
        assert report["iterations"][-1]["active_after"] == 0
        assert report["iterations"][-1]["train_patch_acc"] is None
        # the command writes every artifact, then fails naming the round
        n = report["iterations"][-1]["active_before"]
        capsys.readouterr()
        assert main(["ral", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == (f"ral: error: run ended empty_refined_set in round 1: "
                                           f"{n} of {n} records removed\n")
        written = {p.name for p in (tmp_path / "cli").iterdir()}
        assert {"report.json", "audit.csv", "checkpoint.ralw"} <= written
        assert "error.log" not in written

    def test_trains_with_the_top_level_seed(self, tmp_path, monkeypatch):
        import ral.experiment

        cfg_path, cfg = tiny_config(tmp_path, iterations=0, max_epochs=1)
        main(["generate", "--config", str(cfg_path), "--out", cfg["dataset_path"]])
        seen = []
        real_run_ral = ral.experiment.run_ral

        def recorded(net, ts, config, evaluator):
            seen.append(config)
            return real_run_ral(net, ts, config, evaluator)

        monkeypatch.setattr(ral.experiment, "run_ral", recorded)
        config = ExperimentConfig.load(cfg_path)
        run_experiment(config, write=False)
        assert [c.seed for c in seen] == [cfg["seed"]]
        assert dataclasses.asdict(seen[0]) == dataclasses.asdict(config.ral)
        assert config.ral.seed == 0  # the config itself is left as it was
