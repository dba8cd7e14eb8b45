"""Experiment configuration: a JSON file with a fixed, typo-safe schema.

Unknown keys are rejected at every level. The single top-level ``seed``
drives everything downstream (data generation, the train/val split, weight
initialization, batch shuffling), so one config + one seed pins a whole
run. The resolved configuration is embedded verbatim in every report.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .loop import RalConfig
from .synth import SynthSpec


def _take(d, section, cls):
    """``cls(**d)``, rejecting keys that are not fields of ``cls``; a JSON
    list becomes a tuple where the field's default is a tuple."""
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(by_name)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(by_name[k].default, tuple) else v
                  for k, v in d.items()})


@dataclass
class TilingSection:
    window: int = 32
    stride: int = 32


@dataclass
class NetworkSection:
    channel_plan: tuple = (8, 16, 8)
    stem_channels: int | None = None


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
        # the sections are the fields built by a default_factory
        sections = {f.name: _take(d.get(f.name, {}), f.name, f.default_factory)
                    for f in fields(ExperimentConfig) if f.default_factory is not MISSING}
        cfg = _take({**d, **sections}, "experiment", ExperimentConfig)
        if cfg.tiling.window % 8 != 0:
            raise ValueError("tiling window must be divisible by 8 (network pools)")
        if not 0.0 < cfg.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {cfg.val_fraction}")
        return cfg

    @staticmethod
    def load(path):
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self):
        return asdict(self)

    @property
    def eval_window(self):
        # slide voting and evaluation tile without overlap at the same
        # window the network was built for
        return self.tiling.window
