"""Against-reference similarity baseline."""
import pytest
from hypothesis import given, strategies as st

from breakscore.alignment import BreakClass, TokenSequence
from breakscore.baseline import (
    best_of_references,
    break_similarity,
    fine_rank_against_reference,
    rank_from_similarity,
)
from breakscore.exceptions import DataError
from breakscore.ranks import Rank
from breakscore.tasks import RatedSample
from breakscore.vocab import FIRST_WORD_ID, Vocabulary, encode

WORDS = ("x", "y", *(f"w{i}" for i in range(13)))
VOCAB = Vocabulary(word_to_id={w: FIRST_WORD_ID + i for i, w in enumerate(WORDS)})


def seq(breaks, words=None, id="s"):
    """The encoded record of `words` (w0, w1, ... by default) with `breaks` between them."""
    n = len(breaks) + 1
    words = words or tuple(f"w{i}" for i in range(n))
    s = TokenSequence(id=id, words=tuple(words), breaks=tuple(BreakClass(b) for b in breaks))
    return RatedSample(id=id, ids=tuple(encode(s, VOCAB)))


class TestSimilarity:
    def test_exact_match_fraction(self):
        assert break_similarity(seq([0, 1, 2, 3]), seq([0, 1, 2, 3])) == 1.0
        assert break_similarity(seq([0, 1, 2, 3]), seq([0, 1, 0, 0])) == 0.5
        assert break_similarity(seq([0]), seq([3])) == 0.0

    def test_single_word_scores_one(self):
        assert break_similarity(seq([]), seq([])) == 1.0

    def test_word_mismatch_rejected(self):
        with pytest.raises(DataError):
            break_similarity(seq([0]), seq([0], words=("x", "y")))

    @pytest.mark.parametrize("score", [break_similarity, fine_rank_against_reference])
    def test_one_word_more_rejected_naming_both_ids(self, score):
        # A learner record one word and break longer than its reference.
        with pytest.raises(DataError, match="between test 'learner' and reference 'ref'"):
            score(seq([0, 1], id="learner"), seq([0], id="ref"))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_self_similarity_is_one(self, breaks):
        s = seq(breaks)
        assert break_similarity(s, s) == 1.0


class TestThresholds:
    @pytest.mark.parametrize(
        "score,rank",
        [
            (0.0, Rank.POOR),
            (0.29, Rank.POOR),
            (0.3, Rank.FAIR),
            (0.69, Rank.FAIR),
            (0.7, Rank.GREAT),
            (1.0, Rank.GREAT),
        ],
    )
    def test_bands(self, score, rank):
        assert rank_from_similarity(score) is rank

    def test_out_of_range(self):
        with pytest.raises(DataError):
            rank_from_similarity(1.01)
        with pytest.raises(DataError):
            rank_from_similarity(-0.01)


class TestFineRanks:
    def test_distance_bands(self):
        test = seq([0, 1, 2, 3])
        ref = seq([0, 2, 0, 2])
        # distances 0, 1, 2, 1 -> Great, Fair, Poor, Fair
        assert fine_rank_against_reference(test, ref) == [
            Rank.GREAT,
            Rank.FAIR,
            Rank.POOR,
            Rank.FAIR,
        ]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10))
    def test_symmetric_in_arguments(self, pairs):
        a = seq([p for p, _ in pairs])
        b = seq([q for _, q in pairs])
        assert fine_rank_against_reference(a, b) == fine_rank_against_reference(b, a)


class TestBestOfReferences:
    def test_maximum_over_refs(self):
        test = seq([0, 1, 2])
        refs = [seq([3, 3, 3]), seq([0, 1, 0]), seq([0, 0, 0])]
        assert best_of_references(test, refs) == pytest.approx(2 / 3)

    def test_no_refs_rejected(self):
        with pytest.raises(DataError):
            best_of_references(seq([0]), [])
