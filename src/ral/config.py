"""Experiment configuration: a JSON file with a fixed, typo-safe schema.

Unknown keys are rejected at every level, and so is a section that is not
a JSON object or a list-valued key that is not a list. The single
top-level ``seed`` drives everything downstream (data generation, the
train/val split, weight initialization, batch shuffling), so one config +
one seed pins a whole run. The resolved configuration is embedded
verbatim in every report.

The ``tiling``, ``ral`` and ``synthetic`` sections are the library's own
``patches.TilingSpec``, ``loop.RalConfig`` and ``synth.SynthSpec``: each
setting is declared once, with one default, and checked when the config
loads; ``RalConfig`` and ``SynthSpec`` take the top-level seed. ``network``
is a section of its own: ``network_spec`` builds the classifier from it,
the window, the channel and class counts. Building a config, by ``load``
or ``replace``, checks the seed and that the network section fits the window.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .dataset import load_dataset
from .loop import RalConfig
from .nn import build_classifier
from .patches import TilingSpec, require_count
from .synth import SynthSpec


def _object(d, section):
    if not isinstance(d, dict):
        raise ValueError(f"{section} config must be a JSON object, got {json.dumps(d)}")
    return d


def _take(d, section, cls):
    """``cls(**d)``, rejecting keys that are not fields of ``cls``; a JSON
    list becomes a tuple where the field's default is a tuple, and any
    other value there is rejected."""
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(_object(d, section)) - set(by_name)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    kwargs = {}
    for k, v in d.items():
        if isinstance(by_name[k].default, tuple):
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{section} config key {k!r} must be a list, "
                                 f"got {json.dumps(v)}")
            v = tuple(v)
        kwargs[k] = v
    return cls(**kwargs)


@dataclass
class NetworkSection:
    channel_plan: tuple = (8, 16, 8)
    stem_channels: int | None = None


@dataclass
class ExperimentConfig:
    seed: int = 0
    dataset_path: str | None = None
    output_dir: str = "out"
    val_fraction: float = 0.2  # train/val split for flat dataset layouts
    tiling: TilingSpec = field(default_factory=TilingSpec)
    network: NetworkSection = field(default_factory=NetworkSection)
    ral: RalConfig = field(default_factory=RalConfig)
    synthetic: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        require_count(self.seed, "seed", 0)
        self.network_spec()
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")

    @staticmethod
    def from_dict(d):
        # the sections are the fields built by a default_factory
        d = _object(d, "experiment")
        sections = {f.name: _take(d.get(f.name, {}), f.name, f.default_factory)
                    for f in fields(ExperimentConfig) if f.default_factory is not MISSING}
        return _take({**d, **sections}, "experiment", ExperimentConfig)

    @staticmethod
    def load(path):
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self):
        return asdict(self)

    def network_spec(self, in_channels=3, classes=4):
        """The classifier for this config's window and ``network`` section."""
        return build_classifier(self.tiling.window, self.network.channel_plan,
                                in_channels=in_channels, classes=classes,
                                stem_channels=self.network.stem_channels)

    def load_dataset(self):
        """The module's ``load_dataset`` of ``dataset_path``, ``val_fraction`` and ``seed``."""
        if self.dataset_path is None:
            raise ValueError("config.dataset_path is required for this command")
        return load_dataset(self.dataset_path, self.val_fraction, self.seed)
