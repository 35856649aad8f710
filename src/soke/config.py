"""Run configuration: one declarative JSON file, strictly validated.

Unknown keys are rejected; CLI flags override individual dotted keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .amg import MODES, AmgConfig, AmgTrainConfig
from .artifacts import from_dict, read_json, write_json
from .deto import DetoConfig, DetoTrainConfig
from .errors import ConfigError, ModeError
from .motion import SynthConfig, build_sign_chain


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

    def __post_init__(self):
        # the data stage seeds numpy with both, and numpy takes no negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.seed + self.eval_seed_offset < 0:
            raise ConfigError(f"seed + eval_seed_offset must not be negative, got "
                              f"{self.seed} + {self.eval_seed_offset}")
        if self.eval_sentences < 1:
            raise ConfigError(f"eval_sentences must be at least 1, got {self.eval_sentences}")
        if self.dict_instances_per_word < 1:
            raise ConfigError(f"dict_instances_per_word must be at least 1, got "
                              f"{self.dict_instances_per_word}")
        if not (math.isfinite(self.dict_instance_noise) and self.dict_instance_noise >= 0.0):
            raise ConfigError(f"dict_instance_noise must be finite and non-negative, got "
                              f"{self.dict_instance_noise}")
        # fail before any stage on a mode or layout the later stages cannot build
        if self.mode not in MODES:
            raise ModeError(f"unknown decoding mode {self.mode!r}; expected one of {MODES}")
        build_sign_chain(self.synth.layout)


def run_config_from_dict(data: dict) -> RunConfig:
    return from_dict(RunConfig, data)


def load_run_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    data = read_json(path)
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
    return asdict(config)


def save_run_config(path: str | Path, config: RunConfig) -> None:
    write_json(path, asdict(config))
