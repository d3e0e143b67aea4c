"""Versioned on-disk model format.

Layout: magic line `PBRK1`, one JSON metadata line (model kind, configs,
vocabulary, seed, parameter name/shape table), then all parameters as
little-endian float32 in the metadata's name order. Save/load round-trips
byte-identically.

The kind and the model config decide the network. `model` (the config's
type), `n_classes` (the kind's) and the `params` table (network plus head)
are written for the format and checked on load against `kind` + `model_cfg`,
as is the vocabulary's size; a mismatch is a `DataError` naming the file.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonl
from .exceptions import BreakscoreError, DataError
from .nn.bilstm import BiLstmConfig
from .nn.encoder import EncoderConfig
from .vocab import Vocabulary

MAGIC = b"PBRK1\n"

N_CLASSES = {"rbtd": 2, "overall": 3, "fine": 3}
_MODEL_CONFIGS = {"encoder": EncoderConfig, "bilstm": BiLstmConfig}
# Metadata field -> the name of its type under `jsonl`'s rule.
_META_TYPES = {
    "kind": "str", "model": "str", "model_cfg": "dict", "vocab": "list", "seed": "int",
    "n_classes": "int", "init_from": "str | None", "extra": "dict", "params": "list",
}


def param_shapes(kind: str, model_cfg) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter a `kind` checkpoint of this model
    holds: the network's own, then its head's."""
    n = N_CLASSES[kind]
    return {**model_cfg.param_shapes(), "head_w": (model_cfg.hidden_dim, n), "head_b": (n,)}


def named_views(flat: np.ndarray, shapes: dict) -> dict:
    """Name -> view into `flat` of each entry of a name -> shape table, laid
    out in table order."""
    ends = list(itertools.accumulate(map(math.prod, shapes.values()), initial=0))
    return {name: flat[lo:hi].reshape(shape)
            for (name, shape), lo, hi in zip(shapes.items(), ends, ends[1:])}


def param_count(kind: str, model_cfg) -> int:
    """Number of parameters `param_shapes` holds, without building it."""
    return model_cfg.n_params + (model_cfg.hidden_dim + 1) * N_CLASSES[kind]


@dataclass
class Checkpoint:
    kind: str                      # which task head the params carry
    model_cfg: EncoderConfig | BiLstmConfig
    vocab: Vocabulary
    seed: int
    params: dict[str, np.ndarray]
    init_from: str | None = None   # provenance of the encoder weights
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        jsonl.check_fields(Checkpoint, {"seed": self.seed})
        if self.kind not in N_CLASSES:
            raise DataError(f"unknown checkpoint kind {self.kind!r}")
        if self.init_from not in (None, *N_CLASSES):
            raise DataError(f"init_from must be None or a checkpoint kind, got {self.init_from!r}")

    @property
    def model(self) -> str:
        return "encoder" if isinstance(self.model_cfg, EncoderConfig) else "bilstm"

    @property
    def n_classes(self) -> int:
        return N_CLASSES[self.kind]


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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise DataError(f"{path}: corrupt metadata: {e}") from e
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != 1:
            raise DataError(f"{path}: unsupported checkpoint format {fmt!r}")
        for key, kind in _META_TYPES.items():
            if key not in meta or not jsonl.takes(kind, (meta[key],)):
                raise DataError(f"{path}: metadata field {key!r} is missing or mistyped")
        if expect_kind is not None and meta["kind"] != expect_kind:
            raise DataError(
                f"{path}: checkpoint kind {meta['kind']!r}, expected {expect_kind!r}"
            )
        cfg_type = _MODEL_CONFIGS.get(meta["model"])
        if cfg_type is None:
            raise DataError(f"{path}: unknown model {meta['model']!r}")
        try:
            ckpt = Checkpoint(
                kind=meta["kind"],
                model_cfg=cfg_type(**meta["model_cfg"]),
                vocab=Vocabulary.from_lines(jsonl.array(meta, "vocab", "str")),
                seed=meta["seed"],
                params={},
                init_from=meta["init_from"],
                extra=meta["extra"],
            )
        except (AttributeError, TypeError, ValueError, BreakscoreError) as e:
            raise DataError(f"{path}: bad metadata: {e}") from e
        if ckpt.vocab.size != ckpt.model_cfg.vocab_size:
            raise DataError(f"{path}: vocabulary of {ckpt.vocab.size} ids, but model_cfg "
                            f"has vocab_size {ckpt.model_cfg.vocab_size}")
        # The blob's size is checked against the parameter count before the
        # table is built or anything read, so a huge model_cfg allocates nothing.
        count = param_count(ckpt.kind, ckpt.model_cfg)
        blob = os.fstat(f.fileno()).st_size - f.tell()
        if 4 * count != blob:
            what = "truncated" if 4 * count > blob else "trailing bytes after"
            raise DataError(f"{path}: {what} parameter blob: its model_cfg and kind {ckpt.kind!r} "
                            f"give {count} parameters, {4 * count} bytes, but {blob} bytes "
                            "follow the metadata")
        shapes = param_shapes(ckpt.kind, ckpt.model_cfg)
        shapes = {name: shapes[name] for name in sorted(shapes)}
        table = [[name, list(shape)] for name, shape in shapes.items()]
        if meta["n_classes"] != ckpt.n_classes or meta["params"] != table:
            raise DataError(f"{path}: n_classes or parameter table does not match a "
                            f"{ckpt.kind} {ckpt.model} checkpoint of its model_cfg")
        # One read into one writable array; each parameter is a view of it.
        flat = np.empty(count, dtype="<f4")
        if f.readinto(flat) != 4 * count:
            raise DataError(f"{path}: truncated parameter blob: the file shrank while it was read")
        ckpt.params = named_views(flat, shapes)
    return ckpt
