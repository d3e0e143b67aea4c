"""The three-point assessment scale shared by every scoring path."""
from __future__ import annotations

import enum


class Rank(enum.IntEnum):
    POOR = 1
    FAIR = 2
    GREAT = 3

    def __init__(self, value):
        self.label = self._name_.capitalize()


def rank_to_class(r: Rank) -> int:
    """0-based class index (Poor=0) for confusion matrices and model heads."""
    return int(r) - 1


_RANK_OF_CLASS = dict(enumerate(Rank))


def class_to_rank(c: int) -> Rank:
    rank = _RANK_OF_CLASS.get(c)
    if rank is None:
        raise ValueError(f"{c!r} is not a rank class (0..{len(Rank) - 1})")
    return rank
