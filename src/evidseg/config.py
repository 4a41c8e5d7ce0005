"""Run configuration: one JSON document driving training.

Parsing is strict: unknown keys anywhere are fatal, so a typo in a
hyperparameter name cannot silently fall back to a default. A key that is
absent keeps the default of the `TrainConfig` or `BackboneConfig` field it
maps onto; this module holds no defaults of its own.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .backbone_unet import BackboneConfig
from .trainer import HEADS, TrainConfig

# the accepted keys per section; "head" selects the model head, every other
# key sets a TrainConfig or BackboneConfig field
SECTIONS = {
    "backbone": ("channels",),
    "es": ("head", "prototypes", "alpha_init", "gamma_init"),
    "loss": ("lambda",),
    "train": ("lr", "epochs", "batch_size", "patch_dims", "seed"),
}
# keys whose field names differ; every other key is its field's name
_FIELDS = {"lambda": "lam"}
# keys that only the evidential head reads, so the softmax head refuses them
EVIDENTIAL_KEYS = {"es": ("prototypes", "alpha_init", "gamma_init"),
                   "loss": ("lambda",)}


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


class RunConfig:
    """A parsed configuration document: the model head plus the fields it
    sets on TrainConfig and BackboneConfig."""

    def __init__(self, doc):
        self._values = {}
        for section, given in doc.items():
            if section not in SECTIONS:
                raise ConfigError(f"unknown section {section!r}")
            if not isinstance(given, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key, value in given.items():
                if key not in SECTIONS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section {section!r}")
                self._values[_FIELDS.get(key, key)] = value
        self.head = self._values.pop("head", HEADS[0])
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        ignored = [f"{section}.{key}" for section, keys
                   in EVIDENTIAL_KEYS.items() for key in keys
                   if key in doc.get(section, {})]
        if self.head == "softmax" and ignored:
            raise ConfigError("the softmax head ignores " + ", ".join(ignored))

    @classmethod
    def from_file(cls, path):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls(doc)

    def _build(self, cls):
        own = {f.name for f in fields(cls)}
        try:
            return cls(**{k: v for k, v in self._values.items() if k in own})
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e

    def backbone_config(self) -> BackboneConfig:
        return self._build(BackboneConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)
