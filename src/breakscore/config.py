"""Run configuration: sectioned YAML with strict key checking.

Sections map onto the module configs (synth, corruption, encoder, bilstm,
train, eval) plus the global seed, the only seed. Unknown sections or keys, a
section `seed` among them, are rejected at load time, and so is a value that
`jsonl.check_fields` rejects; command-line flags override file values; every
command echoes the resolved configuration next to its outputs.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .corruption import CorruptionConfig
from .exceptions import DataError
from .jsonl import check_fields
from .metrics import EvalConfig
from .nn.bilstm import BiLstmConfig
from .nn.encoder import EncoderConfig
from .synth import SynthConfig
from .tasks import TrainConfig

_SECTION_TYPES = {
    "synth": SynthConfig,
    "corruption": CorruptionConfig,
    "encoder": EncoderConfig,
    "bilstm": BiLstmConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}
# Fields no section sets: the global seed and the vocabulary's size, which the
# data decides.
_RUNTIME = ("seed", "vocab_size")


@dataclass
class RunConfig:
    seed: int = 0
    synth: dict = field(default_factory=dict)
    corruption: dict = field(default_factory=dict)
    encoder: dict = field(default_factory=dict)
    bilstm: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)

    def build(self, section: str, **runtime):
        """Instantiate the section's config dataclass, seeded from the global seed."""
        cls = _SECTION_TYPES[section]
        # YAML has no tuples, and only a tuple field takes a list.
        kwargs = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in getattr(self, section).items()}
        if "seed" in {f.name for f in dataclasses.fields(cls)}:
            kwargs["seed"] = self.seed
        return cls(**kwargs, **runtime)


def _check_section(section: str, given: dict) -> None:
    cls = _SECTION_TYPES[section]
    allowed = sorted(f.name for f in dataclasses.fields(cls) if f.name not in _RUNTIME)
    unknown = set(given) - set(allowed)
    if unknown:
        raise DataError(f"unknown key(s) in [{section}]: {sorted(unknown)}; allowed: {allowed}")
    check_fields(cls, given, f"[{section}] ")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as f:
        try:
            raw = yaml.safe_load(f) or {}
        except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as e:
            raise DataError(f"{path}: malformed YAML: {e}") from e
    try:
        return _from_mapping(raw)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def _from_mapping(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise DataError("config must be a mapping of sections")
    cfg = RunConfig()
    for section, value in raw.items():
        if section not in _SECTION_TYPES and section != "seed":
            raise DataError(f"unknown config section [{section}]")
        check_fields(RunConfig, {section: value})   # an integer seed, a mapping per section
        if section != "seed":
            _check_section(section, value)
            value = dict(value)
        setattr(cfg, section, value)
    return cfg


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True, default_flow_style=False)
