"""Layered run configuration: task preset < config file < CLI overrides.

The two task presets carry the model hyper-parameters (MI: averaging window
25 shift 5, head width 64, feed-forward 40; ERP: window 5 shift 2, head
width 10, feed-forward 20; both: embedding 20, frame 25, depth 6, 8 heads)
plus desk-scale training defaults, including the run seed ``train.seed``:
17 values. The channel template and class names come from the aligned data.
The commands echo what they used with ``data_model.echo_config``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .model import FPEConfig, TransformerConfig
from .training import TrainConfig

PRESETS: dict[str, dict] = {
    "mi": {
        "fpe": {"embed_dim": 20, "frame_window": 25, "frame_stride": 25,
                "avg_window": 25, "avg_shift": 5, "token_dim": 40, "mlp_hidden": 40},
        "transformer": {"depth": 6, "heads": 8, "dim_head": 64, "dim_mlp": 40},
        "train": {"epochs": 30, "batch_size": 64, "lr_init": 2.5e-4, "lr_max": 5e-4,
                  "weight_decay": 0.01, "seed": 0},
    },
    "erp": {
        "fpe": {"embed_dim": 20, "frame_window": 25, "frame_stride": 25,
                "avg_window": 5, "avg_shift": 2, "token_dim": 40, "mlp_hidden": 40},
        "transformer": {"depth": 6, "heads": 8, "dim_head": 10, "dim_mlp": 20},
        "train": {"epochs": 30, "batch_size": 64, "lr_init": 2.5e-4, "lr_max": 5e-4,
                  "weight_decay": 0.01, "seed": 0},
    },
}

_SECTIONS = ("fpe", "transformer", "train")
_TOP_KEYS = set(_SECTIONS)


@dataclass(frozen=True)
class RunConfig:
    task: str
    fpe: FPEConfig
    transformer: TransformerConfig
    train: TrainConfig

    def to_dict(self) -> dict:
        return asdict(self)


def _merge_section(section: str, preset: dict, file_part: dict, overrides: dict) -> dict:
    merged = dict(preset)
    for source_name, source in (("config file", file_part), ("override", overrides)):
        if not isinstance(source, dict):
            raise ConfigError(f"section {section!r} in {source_name} must be an object, "
                              f"not {type(source).__name__}")
        for key, value in source.items():
            if key not in merged:
                raise ConfigError(f"unknown key {section}.{key!r} in {source_name}")
            merged[key] = value
    return merged


def load_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"malformed config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config file top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config file keys {sorted(unknown)}")
    return doc


def resolve_config(task: str, config_file: str | dict | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Merge preset, config file, and override dict; precedence rightmost wins.

    ``overrides`` maps section names to partial dicts, e.g.
    ``{"transformer": {"depth": 2}}``. Unknown keys fail with their path.
    """
    file_doc = (load_config_file(config_file) if isinstance(config_file, str)
                else dict(config_file or {}))
    overrides = dict(overrides or {})
    for source, doc in (("config", file_doc), ("override", overrides)):
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown {source} keys {sorted(unknown)}")

    task = str(task).lower()
    if task not in PRESETS:
        raise ConfigError(f"unknown task {task!r}, expected one of {sorted(PRESETS)}")
    preset = PRESETS[task]

    sections = {
        s: _merge_section(s, preset[s], file_doc.get(s, {}), overrides.get(s, {}))
        for s in _SECTIONS
    }

    return RunConfig(
        task=task,
        fpe=FPEConfig(**sections["fpe"]),
        transformer=TransformerConfig(**sections["transformer"]),
        train=TrainConfig(**sections["train"]),
    )
