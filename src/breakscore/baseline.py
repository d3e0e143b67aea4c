"""Against-reference baseline: rank a break pattern by similarity to a template.

The learner's record and each reference are encodings of the same words with
one vocabulary, as `RatedSample`s without ranks do: an `.id` and token `.ids`.
Similarity is the positionwise exact-match rate over break positions; the
score is mapped to ranks with thresholds [0, 0.3) Poor, [0.3, 0.7) Fair,
[0.7, 1.0] Great.
"""
from __future__ import annotations

from .exceptions import DataError
from .ranks import Rank
from .tasks import RatedSample
from .vocab import break_flags


def _break_pairs(test: RatedSample, ref: RatedSample) -> list[tuple[int, int]]:
    """(learner, reference) break-id pairs of two encodings of the same words,
    whose ids differ only in the class each break id holds."""
    flags = break_flags(test.ids)
    if flags != break_flags(ref.ids) or any(
            a != b for a, b, br in zip(test.ids, ref.ids, flags) if not br):
        raise DataError(f"word sequences differ between test {test.id!r} and reference {ref.id!r}")
    return [(a, b) for a, b, br in zip(test.ids, ref.ids, flags) if br]


def break_similarity(test: RatedSample, ref: RatedSample) -> float:
    """Fraction of break positions with identical break class; 1.0 when there are none."""
    pairs = _break_pairs(test, ref)
    return sum(a == b for a, b in pairs) / len(pairs) if pairs else 1.0


def rank_from_similarity(score: float) -> Rank:
    if not 0.0 <= score <= 1.0:
        raise DataError(f"similarity score out of [0,1]: {score}")
    if score < 0.3:
        return Rank.POOR
    if score < 0.7:
        return Rank.FAIR
    return Rank.GREAT


def fine_rank_against_reference(test: RatedSample, ref: RatedSample) -> list[Rank]:
    """Per-position ranks: exact class Great, adjacent class Fair, else Poor."""
    return [Rank.GREAT if a == b else Rank.FAIR if abs(a - b) == 1 else Rank.POOR
            for a, b in _break_pairs(test, ref)]


def best_of_references(test: RatedSample, refs: list[RatedSample]) -> float:
    """Maximum similarity over the available reference renditions."""
    if not refs:
        raise DataError(f"no references supplied for {test.id!r}")
    return max(break_similarity(test, ref) for ref in refs)
