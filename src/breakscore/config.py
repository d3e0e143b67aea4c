"""Run configuration: sectioned YAML with strict key checking.

Sections map onto the module configs (synth, corruption, encoder, bilstm,
train, eval) plus a global seed. Unknown sections or keys are rejected;
command-line flags override file values; every command echoes the resolved
configuration next to its outputs.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .corruption import CorruptionConfig
from .exceptions import DataError
from .metrics import EvalConfig
from .nn.bilstm import BiLstmConfig
from .nn.encoder import EncoderConfig
from .synth import SynthConfig
from .tasks import TrainConfig

# vocab_size is resolved from data at run time, never configured.
_SECTION_TYPES = {
    "synth": (SynthConfig, ()),
    "corruption": (CorruptionConfig, ()),
    "encoder": (EncoderConfig, ("vocab_size",)),
    "bilstm": (BiLstmConfig, ("vocab_size",)),
    "train": (TrainConfig, ()),
    "eval": (EvalConfig, ()),
}


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
        cls, _ = _SECTION_TYPES[section]
        kwargs = dict(getattr(self, section))
        kwargs.update(runtime)
        fields = {f.name for f in dataclasses.fields(cls)}
        if "seed" in fields and "seed" not in kwargs:
            kwargs["seed"] = self.seed
        # YAML has no tuples; coerce list-valued fields.
        for f in dataclasses.fields(cls):
            if f.name in kwargs and isinstance(kwargs[f.name], list) and f.type.startswith("tuple"):
                kwargs[f.name] = tuple(kwargs[f.name])
        return cls(**kwargs)


# The YAML values each annotated field type takes; an int is a valid float,
# a bool is no number.
_ACCEPTED = {"int": (int,), "float": (int, float), "bool": (bool,), "tuple": (list, tuple)}


def _check_section(section: str, given: dict, cls, excluded: tuple) -> None:
    fields = [f for f in dataclasses.fields(cls) if f.name not in excluded]
    unknown = set(given) - {f.name for f in fields}
    if unknown:
        raise DataError(
            f"unknown key(s) in [{section}]: {sorted(unknown)}; "
            f"allowed: {sorted(f.name for f in fields)}"
        )
    for f in fields:
        if f.name not in given:
            continue
        value, accepted = given[f.name], _ACCEPTED[f.type.split("[")[0]]
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
            raise DataError(f"[{section}] {f.name} must be {f.type}, got {value!r}")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as f:
        try:
            raw = yaml.safe_load(f) or {}
        except (yaml.YAMLError, UnicodeDecodeError) as e:
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
        if section == "seed":
            try:
                cfg.seed = int(value)
            except (TypeError, ValueError, OverflowError):
                raise DataError(f"seed must be an integer, got {value!r}") from None
            continue
        if section not in _SECTION_TYPES:
            raise DataError(f"unknown config section [{section}]")
        if not isinstance(value, dict):
            raise DataError(f"section [{section}] must be a mapping")
        cls, excluded = _SECTION_TYPES[section]
        _check_section(section, value, cls, excluded)
        setattr(cfg, section, dict(value))
    return cfg


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True, default_flow_style=False)
