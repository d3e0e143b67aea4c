"""Versioned on-disk model format.

Layout: magic line `PBRK1`, one JSON metadata line (model kind, configs,
vocabulary, seed, parameter name/shape table), then all parameters as
little-endian float32 in the metadata's name order. Save/load round-trips
byte-identically.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonl
from .exceptions import BreakscoreError, DataError
from .nn import BiLstmConfig, EncoderConfig
from .vocab import Vocabulary

MAGIC = b"PBRK1\n"

KINDS = ("rbtd", "overall", "fine")
MODELS = ("encoder", "bilstm")
# Metadata field -> accepted JSON types.
_META_TYPES = {
    "kind": str, "model": str, "model_cfg": dict, "vocab": list, "seed": int,
    "n_classes": int, "init_from": (str, type(None)), "extra": dict, "params": list,
}


@dataclass
class Checkpoint:
    kind: str                      # which task head the params carry
    model: str                     # "encoder" or "bilstm"
    model_cfg: EncoderConfig | BiLstmConfig
    vocab: Vocabulary
    seed: int
    params: dict[str, np.ndarray]
    n_classes: int
    init_from: str | None = None   # provenance of the encoder weights
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown checkpoint kind {self.kind!r}")
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r}")


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    names = sorted(ckpt.params)
    meta = {
        "format": 1,
        "kind": ckpt.kind,
        "model": ckpt.model,
        "model_cfg": asdict(ckpt.model_cfg),
        "vocab": ckpt.vocab.to_lines(),
        "seed": ckpt.seed,
        "n_classes": ckpt.n_classes,
        "init_from": ckpt.init_from,
        "extra": ckpt.extra,
        "params": [[n, list(ckpt.params[n].shape)] for n in names],
    }
    blob = b"".join(
        np.ascontiguousarray(ckpt.params[n], dtype="<f4").tobytes() for n in names
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(jsonl.dumps(meta).encode("utf-8"))
        f.write(b"\n")
        f.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str, expect_kind: str | None = None) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a PBRK1 checkpoint (bad magic {magic!r})")
        meta_line = f.readline()
        try:
            meta = json.loads(meta_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: corrupt metadata: {e}") from e
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != 1:
            raise DataError(f"{path}: unsupported checkpoint format {fmt!r}")
        for key, types in _META_TYPES.items():
            if not isinstance(meta.get(key, ...), types):
                raise DataError(f"{path}: metadata field {key!r} is missing or mistyped")
        if expect_kind is not None and meta["kind"] != expect_kind:
            raise DataError(
                f"{path}: checkpoint kind {meta['kind']!r}, expected {expect_kind!r}"
            )
        params: dict[str, np.ndarray] = {}
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        for entry in meta["params"]:
            if not (
                isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(isinstance(d, int) and d >= 0 for d in entry[1])
            ):
                raise DataError(f"{path}: bad parameter table entry {entry!r}")
            name, shape = entry
            n_bytes = 4 * math.prod(shape)
            if n_bytes > remaining:   # checked before reading, so a huge shape allocates nothing
                raise DataError(f"{path}: truncated parameter blob at {name!r}")
            remaining -= n_bytes
            raw = f.read(n_bytes)
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after parameter blob")

    try:
        cfg_cls = EncoderConfig if meta["model"] == "encoder" else BiLstmConfig
        return Checkpoint(
            kind=meta["kind"],
            model=meta["model"],
            model_cfg=cfg_cls(**meta["model_cfg"]),
            vocab=Vocabulary.from_lines(meta["vocab"]),
            seed=meta["seed"],
            params=params,
            n_classes=meta["n_classes"],
            init_from=meta["init_from"],
            extra=meta["extra"],
        )
    except (AttributeError, TypeError, ValueError, BreakscoreError) as e:
        raise DataError(f"{path}: bad metadata: {e}") from e
