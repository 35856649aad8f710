"""Run configuration: one declarative JSON file, strictly validated.

Unknown keys are rejected; CLI flags override individual dotted keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .amg import AmgConfig, AmgTrainConfig
from .deto import DetoConfig, DetoTrainConfig
from .errors import ConfigError
from .motion import SynthConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mode: str = "multihead"  # decoding mode trained by single-mode runs
    retrieval: bool = True
    synth: SynthConfig = field(default_factory=SynthConfig)
    deto: DetoConfig = field(default_factory=DetoConfig)
    deto_train: DetoTrainConfig = field(default_factory=DetoTrainConfig)
    amg: AmgConfig = field(default_factory=AmgConfig)
    amg_train: AmgTrainConfig = field(default_factory=AmgTrainConfig)
    dict_instances_per_word: int = 1
    dict_instance_noise: float = 0.0
    eval_sentences: int = 16
    eval_seed_offset: int = 1000  # test-split sentence seed = seed + offset


def _coerce(value: Any, target_type: Any, path: str) -> Any:
    """Check a JSON value against a field type: a nested config, a fixed-length
    tuple, or a scalar. Integers widen to float; bool is not a number here."""
    if is_dataclass(target_type):
        return _from_dict(target_type, value, path)
    if get_origin(target_type) is tuple:
        item_types = get_args(target_type)
        if not isinstance(value, (list, tuple)) or len(value) != len(item_types):
            raise ConfigError(f"{path}: expected a list of {len(item_types)} items, got {value!r}")
        return tuple(
            _coerce(item, item_type, f"{path}[{i}]")
            for i, (item, item_type) in enumerate(zip(value, item_types))
        )
    if target_type is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if (isinstance(value, bool) and target_type is not bool) or not isinstance(value, target_type):
        raise ConfigError(f"{path}: expected {target_type.__name__}, got {value!r}")
    return value


def _from_dict(cls, data: dict, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    types = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {
        name: _coerce(value, types[name], f"{path}.{name}" if path else name)
        for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


def load_run_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    with open(path) as fh:
        data = json.load(fh)
    for override in overrides or []:
        if "=" not in override:
            raise ConfigError(f"override {override!r} must look like key.path=value")
        key, raw = override.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(data, key.strip(), value)
    return run_config_from_dict(data)


def _set_dotted(data: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {part!r}")
    node[parts[-1]] = value


def run_config_to_dict(config: RunConfig) -> dict:
    def unwrap(value):
        if is_dataclass(value) and not isinstance(value, type):
            return {f.name: unwrap(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, tuple):
            return list(value)
        return value

    return unwrap(config)


def save_run_config(path: str | Path, config: RunConfig) -> None:
    with open(path, "w") as fh:
        json.dump(run_config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
