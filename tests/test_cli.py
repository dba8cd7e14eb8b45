import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ral.cli import main, output_lock
from ral.config import ExperimentConfig, RalSection, SyntheticSection
from ral.experiment import run_experiment
from ral.imageio import save_image
from ral.loop import RalConfig
from ral.nn import Network, build_classifier, save_checkpoint
from ral.synth import SynthSpec


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
  ],
  "stem_channels": null
 },
 "ral": {
  "tau": 0.5,
  "group_threshold": 4,
  "iterations": 3,
  "max_epochs": 6,
  "target_train_accuracy": 1.01,
  "finetune_epochs": 2,
  "batch_size": 64,
  "learning_rate": 0.001,
  "beta1": 0.9,
  "beta2": 0.999,
  "epsilon": 1e-08,
  "confidence_mode": "label",
  "fresh_optimizer": false
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
  "noise_sigma": 0.05,
  "texture_amplitude": 0.25,
  "val_fraction": 0.2
 }
}"""

# every key of every section, each set to a value other than its default
NON_DEFAULT_CONFIG = {
    "seed": 7, "dataset_path": "data", "output_dir": "runs/x", "val_fraction": 0.3,
    "tiling": {"window": 64, "stride": 16},
    "network": {"channel_plan": [4, 8, 4], "stem_channels": 6},
    "ral": {"tau": 0.3, "group_threshold": 5, "iterations": 2, "max_epochs": 7,
            "target_train_accuracy": 0.9, "finetune_epochs": 3, "batch_size": 32,
            "learning_rate": 0.01, "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-7,
            "confidence_mode": "max", "fresh_optimizer": True},
    "synthetic": {"classes": 3, "slide_size": [96, 64], "window": 16, "stride": 16,
                  "slides_per_class": 6, "contamination_rho": 0.2, "noise_sigma": 0.1,
                  "texture_amplitude": 0.3, "val_fraction": 0.25},
}


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

    def test_default_config_block_is_pinned(self):
        assert json.dumps(ExperimentConfig().to_dict(), indent=1) == DEFAULT_CONFIG_JSON

    def test_window_must_fit_network_pools(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            ExperimentConfig.from_dict({"tiling": {"window": 20}})

    def test_sections_mirror_the_configs_they_build(self):
        # the seed comes from the top level; texture_params has no config key
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(RalSection) == [n for n in names(RalConfig) if n != "seed"]
        assert names(SyntheticSection) == [
            n for n in names(SynthSpec) if n not in ("seed", "texture_params")]


class TestCommands:
    def test_generate_then_ral_writes_all_artifacts(self, tmp_path):
        cfg_path, cfg = tiny_config(tmp_path)
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
        cfg_path, cfg = tiny_config(tmp_path)
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
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / ".lock").touch()
        assert main(["ral", "--config", str(cfg_path)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_holds_its_pid(self, tmp_path):
        with output_lock(tmp_path / "out") as out:
            assert (out / ".lock").read_text() == f"{os.getpid()}\n"

    def test_stale_lock_names_its_holder(self, tmp_path, capsys):
        cfg_path, cfg = tiny_config(tmp_path)
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True)
        (out / ".lock").write_text("4242\n")
        assert main(["generate", "--config", str(cfg_path)]) == 1
        assert "locked by another run (pid 4242)" in capsys.readouterr().err
        # the directory is the holder's: the failed run leaves nothing in it
        assert sorted(p.name for p in out.iterdir()) == [".lock"]


class TestAllocator:
    def test_freed_block_is_reused_without_faults(self):
        import ctypes

        import ral

        try:
            ctypes.CDLL(None).mallopt
        except (OSError, AttributeError, TypeError):
            pytest.skip("libc has no mallopt")
        # a fresh interpreter: the allocator state of this one depends on
        # the tests before; 3 MiB stays below numpy's huge-page advice
        code = (
            "import resource, numpy as np\n"
            "from ral.cli import keep_freed_memory\n"
            "keep_freed_memory()\n"
            "a = np.ones(3 << 18, np.float32); del a\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "a = np.ones(3 << 18, np.float32)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = str(Path(ral.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        faults = int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
        # 768 pages when the block is mapped afresh
        assert faults < 64


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


class TestRunExperiment:
    def test_empty_set_halt_reported(self, tmp_path):
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
