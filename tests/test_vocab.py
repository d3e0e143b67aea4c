"""Vocabulary construction and sequence encoding."""
import numpy as np
import pytest

from breakscore.alignment import BreakClass, TokenSequence
from breakscore.exceptions import DataError, ParseError
from breakscore.vocab import (
    BR_BASE_ID,
    CLS_ID,
    FIRST_WORD_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    break_flags,
    build_vocab,
    check_break_flags,
    encode,
    is_break_id,
)


def seq(words, breaks):
    return TokenSequence(id="t", words=tuple(words), breaks=tuple(BreakClass(b) for b in breaks))


class TestReservedIds:
    def test_fixed_layout(self):
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, BR_BASE_ID, FIRST_WORD_ID) == (0, 1, 2, 3, 4, 8)
        assert RESERVED_TOKENS == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "br0", "br1", "br2", "br3")

    def test_break_ids(self):
        ids = encode(seq(["a"] * 5, [0, 1, 2, 3]), Vocabulary(word_to_id={}))
        assert ids[2::2] == [4, 5, 6, 7]
        assert [i for i in range(10) if is_break_id(i)] == [4, 5, 6, 7]
        assert break_flags(range(10)) == [i in (4, 5, 6, 7) for i in range(10)]
        # Elementwise over an id matrix; PAD_ID, the padding, is never a break.
        matrix = np.array([[0, 3, 4], [7, 8, 0]])
        assert is_break_id(matrix).tolist() == [[False, False, True], [True, False, False]]

    @pytest.mark.parametrize("flags", [
        [False, True, True, False], [False, False, False, False], [False, False, True],
    ], ids=["flag-on-word", "unflagged-break", "short"])
    def test_break_flags_checked_against_the_ids(self, flags):
        check_break_flags("t", [CLS_ID, 8, 6, 9], [False, False, True, False])
        with pytest.raises(DataError, match="'t': break_mask must be true exactly at the break "
                                            "ids 4..7, one flag per id"):
            check_break_flags("t", [CLS_ID, 8, 6, 9], flags)


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        corpus = [
            seq(["b", "a", "b"], [0, 0]),
            seq(["a", "c"], [0]),
        ]
        v = build_vocab(corpus)
        # a and b tie at 2, a wins lexicographically; c has 1.
        assert v.word_to_id == {"a": 8, "b": 9, "c": 10}
        assert v.counts == {"a": 2, "b": 2, "c": 1}
        assert v.size == 11

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([])

    def test_serialization_round_trip(self):
        v = build_vocab([seq(["fox", "runs", "fox"], [1, 2])])
        v2 = Vocabulary.from_lines(v.to_lines())
        assert v2 == v

    def test_from_lines_rejects_wrong_reserved(self):
        with pytest.raises(ParseError):
            Vocabulary.from_lines(["0\tnotpad\t0"])

    @pytest.mark.parametrize("lines, line, message", [
        (["8\tfox\t2", "9\tthe\t1", "10\tfox\t1"], 3, "token 'fox' repeated (first on line 1)"),
        (["8\tfox\t2", "8\tthe\t1"], 2, "word id 8 repeated (first on line 1)"),
        (["8\tfox\t2", "10\tthe\t1"], 2, "word id 10 outside 8..9"),
        (["0\t[PAD]\t0", "-9\tx\t0"], 2, "negative id -9"),
    ], ids=["repeated-token", "repeated-id", "id-gap", "negative-id"])
    def test_from_lines_rejection_names_the_line(self, lines, line, message):
        with pytest.raises(ParseError, match=f"line {line}: ") as e:
            Vocabulary.from_lines(lines)
        assert message in str(e.value)

    def test_word_ids_below_eight_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(word_to_id={"x": 5})


class TestEncode:
    def test_basic_layout(self):
        v = Vocabulary(word_to_id={"a": 8, "b": 9})
        ids = encode(seq(["a", "b"], [2]), v)
        assert ids == [CLS_ID, 8, BR_BASE_ID + 2, 9]
        assert break_flags(ids) == [False, False, True, False]

    def test_unknown_word_maps_to_unk(self):
        v = Vocabulary(word_to_id={"a": 8})
        ids = encode(seq(["a", "zzz"], [0]), v)
        assert ids == [CLS_ID, 8, BR_BASE_ID, UNK_ID]

    def test_word_spelled_like_break_token_stays_a_word(self):
        # A literal word "br2" must encode as a word id, not a break id.
        v = Vocabulary(word_to_id={"br2": 8, "a": 9})
        ids = encode(seq(["a", "br2"], [0]), v)
        assert ids == [CLS_ID, 9, BR_BASE_ID, 8]
        assert break_flags(ids) == [False, False, True, False]

    def test_truncation(self):
        # Encoding keeps the whole sequence; a model cuts it at its own max_len.
        v = Vocabulary(word_to_id={"w": 8})
        ids = encode(seq(["w"] * 100, [0] * 99), v)
        assert len(ids) == 1 + 100 + 99

    def test_mask_marks_exactly_breaks(self):
        v = Vocabulary(word_to_id={"a": 8, "b": 9, "c": 10})
        ids = encode(seq(["a", "b", "c"], [1, 3]), v)
        mask = break_flags(ids)
        assert mask == [False, False, True, False, True, False]
        assert [i for i, m in zip(ids, mask) if m] == [BR_BASE_ID + 1, BR_BASE_ID + 3]
        assert all(not is_break_id(i) for i, m in zip(ids, mask) if not m)
