"""Experiment configuration: a JSON file with a fixed, typo-safe schema.

Unknown keys are rejected at every level. The single top-level ``seed``
drives everything downstream (data generation, the train/val split, weight
initialization, batch shuffling), so one config + one seed pins a whole
run. The resolved configuration is embedded verbatim in every report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .loop import RalConfig
from .synth import SynthSpec


def _take(d, section, cls):
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")


@dataclass
class TilingSection:
    window: int = 32
    stride: int = 32

    @staticmethod
    def from_dict(d):
        _take(d, "tiling", TilingSection)
        return TilingSection(**d)

    def to_dict(self):
        return asdict(self)


@dataclass
class NetworkSection:
    channel_plan: tuple = (8, 16, 8)
    stem_channels: int | None = None

    @staticmethod
    def from_dict(d):
        _take(d, "network", NetworkSection)
        out = NetworkSection(**d)
        out.channel_plan = tuple(out.channel_plan)
        return out

    def to_dict(self):
        return {"channel_plan": list(self.channel_plan),
                "stem_channels": self.stem_channels}


@dataclass
class RalSection:
    tau: float = 0.5
    group_threshold: int = 4
    iterations: int = 3
    max_epochs: int = 6
    target_train_accuracy: float = 1.01  # disabled: fixed epoch budgets by default
    finetune_epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    confidence_mode: str = "label"
    fresh_optimizer: bool = False

    @staticmethod
    def from_dict(d):
        _take(d, "ral", RalSection)
        return RalSection(**d)

    def to_dict(self):
        return asdict(self)

    def build(self, seed):
        return RalConfig(seed=seed, **asdict(self))


@dataclass
class SyntheticSection:
    classes: int = 4
    slide_size: tuple = (128, 128)
    window: int = 32
    stride: int = 32
    slides_per_class: int = 10
    contamination_rho: float = 0.1
    noise_sigma: float = 0.05
    texture_amplitude: float = 0.25
    val_fraction: float = 0.2

    @staticmethod
    def from_dict(d):
        _take(d, "synthetic", SyntheticSection)
        out = SyntheticSection(**d)
        out.slide_size = tuple(out.slide_size)
        return out

    def to_dict(self):
        d = asdict(self)
        d["slide_size"] = list(self.slide_size)
        return d

    def build(self, seed):
        return SynthSpec(seed=seed, **asdict(self))


@dataclass
class ExperimentConfig:
    seed: int = 0
    dataset_path: str | None = None
    output_dir: str = "out"
    val_fraction: float = 0.2  # train/val split for flat dataset layouts
    tiling: TilingSection = field(default_factory=TilingSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    ral: RalSection = field(default_factory=RalSection)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)

    @staticmethod
    def from_dict(d):
        _take(d, "experiment", ExperimentConfig)
        cfg = ExperimentConfig(
            seed=d.get("seed", 0),
            dataset_path=d.get("dataset_path"),
            output_dir=d.get("output_dir", "out"),
            val_fraction=d.get("val_fraction", 0.2),
            tiling=TilingSection.from_dict(d.get("tiling", {})),
            network=NetworkSection.from_dict(d.get("network", {})),
            ral=RalSection.from_dict(d.get("ral", {})),
            synthetic=SyntheticSection.from_dict(d.get("synthetic", {})))
        if cfg.tiling.window % 8 != 0:
            raise ValueError("tiling window must be divisible by 8 (network pools)")
        if not 0.0 < cfg.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {cfg.val_fraction}")
        return cfg

    @staticmethod
    def load(path):
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self):
        return {"seed": self.seed, "dataset_path": self.dataset_path,
                "output_dir": self.output_dir, "val_fraction": self.val_fraction,
                "tiling": self.tiling.to_dict(), "network": self.network.to_dict(),
                "ral": self.ral.to_dict(), "synthetic": self.synthetic.to_dict()}

    @property
    def eval_window(self):
        # slide voting and evaluation tile without overlap at the same
        # window the network was built for
        return self.tiling.window
