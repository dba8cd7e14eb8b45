"""Experiment configuration: a JSON file with a fixed, typo-safe schema.

Unknown keys are rejected at every level, and so is a section that is not
a JSON object. A list becomes a tuple, and each setting must have its
field's annotated type (``patches.check_types``; a bool is no number, an
int is a float and stays an int). The single top-level ``seed`` drives
everything downstream (data generation, the train/val split, weight
initialization, batch shuffling), so one config + one seed pins a whole
run. The resolved configuration is embedded verbatim in every report.

The ``tiling``, ``ral`` and ``synthetic`` sections are the library's own
``patches.TilingSpec``, ``loop.RalConfig`` and ``synth.SynthSpec``: each
setting is declared once, with one default, and checked when the config
loads; ``RalConfig`` and ``SynthSpec`` take the top-level seed, and
``SynthSpec`` the top-level ``val_fraction``, the one split fraction of
generated and flat datasets. ``network`` is a section of its own:
``network_spec`` builds the classifier from it, the window, the channel and
class counts. Building a config, by ``load`` or ``replace``, checks the
types, the seed and that the network fits the window.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .dataset import load_dataset
from .loop import RalConfig
from .nn import build_classifier
from .patches import TilingSpec, check_types, require_count
from .synth import SynthSpec


def _take(d, section, cls):
    """``cls(**d)`` of the JSON object ``d``, rejecting unknown keys; a list
    becomes a tuple, a section's object (a default_factory field) its class."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} config must be a JSON object, got {json.dumps(d)}")
    factories = {f.name: f.default_factory for f in fields(cls)}
    unknown = set(d) - set(factories)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    return cls(**{k: _take(v, k, factories[k]) if factories[k] is not MISSING
                  else tuple(v) if isinstance(v, list) else v for k, v in d.items()})


@dataclass
class NetworkSection:
    channel_plan: tuple[int, ...] = (8, 16, 8)

    def __post_init__(self):
        check_types(self, "network")


@dataclass
class ExperimentConfig:
    seed: int = 0
    dataset_path: str | None = None
    output_dir: str = "out"
    val_fraction: float = 0.2  # train/val split of generated and flat datasets
    tiling: TilingSpec = field(default_factory=TilingSpec)
    network: NetworkSection = field(default_factory=NetworkSection)
    ral: RalConfig = field(default_factory=RalConfig)
    synthetic: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        check_types(self, "experiment")
        require_count(self.seed, "seed", 0)
        self.network_spec()
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")

    @staticmethod
    def from_dict(d):
        return _take(d, "experiment", ExperimentConfig)

    @staticmethod
    def load(path):
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self):
        return asdict(self)

    def network_spec(self, in_channels=3, classes=4):
        """The classifier for this config's window and ``network`` section."""
        return build_classifier(self.tiling.window, self.network.channel_plan,
                                in_channels=in_channels, classes=classes)

    def load_dataset(self):
        """The module's ``load_dataset`` of ``dataset_path``, ``val_fraction`` and ``seed``."""
        if self.dataset_path is None:
            raise ValueError("config.dataset_path is required for this command")
        return load_dataset(self.dataset_path, self.val_fraction, self.seed)
