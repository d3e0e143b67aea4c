"""Replaced-break-token corruption for discriminator pretraining.

Each break id in an encoded sequence is independently replaced, with
probability `replace_prob`, by one of the three other break classes. A sample's
label follows from its edit list: one whose list is empty is original, even if
it came from a corruption attempt. Each edit names what its break id now holds.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .alignment import BreakClass
from .exceptions import DataError
from .rngs import make_rng
from .vocab import BR_BASE_ID, break_flags, check_break_flags, check_encoded, is_break_id

LABEL_ORIGINAL = 0
LABEL_CORRUPTED = 1


@dataclass(frozen=True)
class CorruptionConfig:
    replace_prob: float = 0.15
    copies_per_original: int = 3
    seed: int = 0

    def __post_init__(self):
        jsonl.check_fields(type(self), vars(self))
        if not 0.0 <= self.replace_prob <= 1.0:
            raise DataError(f"replace_prob out of [0,1]: {self.replace_prob}")
        if self.copies_per_original < 0:
            raise DataError(f"copies_per_original must be >= 0: {self.copies_per_original}")


@dataclass(frozen=True)
class LabeledSequence:
    id: str
    ids: tuple[int, ...]
    edits: tuple[tuple[int, BreakClass, BreakClass], ...] = ()

    def __post_init__(self):
        check_encoded(self.id, self.ids)
        for pos, old, new in self.edits:
            if not 0 <= pos < len(self.ids) or self.ids[pos] != BR_BASE_ID + new or old == new:
                raise DataError(f"sample {self.id!r}: edit {[pos, int(old), int(new)]} must "
                                "sit on a break id that holds its new class, not its old one")

    @property
    def label(self) -> int:
        return LABEL_CORRUPTED if self.edits else LABEL_ORIGINAL

    def cut(self, n: int) -> LabeledSequence:
        """The first n tokens and the edits among them: a sample counts as
        corrupted only if the model can see an edit (Clark et al. 2020, ELECTRA)."""
        return dataclasses.replace(self, ids=self.ids[:n],
                                   edits=tuple(e for e in self.edits if e[0] < n))


def corrupt_once(
    sample_id: str,
    ids: list[int],
    cfg: CorruptionConfig,
    rng: np.random.Generator,
) -> LabeledSequence:
    """One corruption attempt over the break ids. Word positions are never touched."""
    out = list(ids)
    edits = []
    for pos, token_id in enumerate(ids):
        if is_break_id(token_id) and rng.random() < cfg.replace_prob:
            old = BreakClass(token_id - BR_BASE_ID)
            alternatives = [c for c in BreakClass if c != old]
            new = alternatives[rng.integers(len(alternatives))]
            out[pos] = BR_BASE_ID + int(new)
            edits.append((pos, old, new))
    return LabeledSequence(id=sample_id, ids=tuple(out), edits=tuple(edits))


def build_pretrain_dataset(
    corpus: list[tuple[str, list[int]]],
    cfg: CorruptionConfig,
) -> list[LabeledSequence]:
    """Originals plus `copies_per_original` corruption attempts each, seed-shuffled.

    `corpus` holds (id, encoded ids) pairs.
    """
    if not corpus:
        raise DataError("empty corpus")
    rng = make_rng(cfg.seed, "corruption")
    out: list[LabeledSequence] = []
    for sample_id, ids in corpus:
        out.append(LabeledSequence(id=sample_id, ids=tuple(ids)))
        for k in range(cfg.copies_per_original):
            out.append(corrupt_once(f"{sample_id}#c{k}", ids, cfg, rng))
    shuffle_rng = make_rng(cfg.seed, "corruption-shuffle")
    order = shuffle_rng.permutation(len(out))
    return [out[i] for i in order]


def labeled_to_json(s: LabeledSequence) -> str:
    return jsonl.dumps(
        {
            "id": s.id,
            "ids": list(s.ids),
            "break_mask": break_flags(s.ids),
            "label": s.label,
            "edits": [[pos, int(old), int(new)] for pos, old, new in s.edits],
        }
    )


def labeled_from_json(line: str) -> LabeledSequence:
    obj = json.loads(line)
    edits = jsonl.array(obj, "edits", "list")
    if not all(len(e) == 3 and jsonl.takes("int", e) for e in edits):
        raise DataError(f"edits must be [position, old, new] integer triples, got {obj['edits']!r}")
    label = jsonl.value(obj, "label", "int")
    s = LabeledSequence(
        id=jsonl.value(obj, "id", "str"),
        ids=tuple(obj["ids"]),
        edits=tuple((pos, BreakClass(old), BreakClass(new)) for pos, old, new in edits),
    )
    check_break_flags(s.id, s.ids, jsonl.array(obj, "break_mask", "bool"))
    if label != s.label:
        raise DataError(f"sample {s.id!r}: label inconsistent with edit list")
    return s


def read_labeled(stream) -> list[LabeledSequence]:
    return jsonl.read(stream, labeled_from_json, "pretraining")
