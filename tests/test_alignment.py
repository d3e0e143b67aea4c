"""Ingestion and break quantization."""
import io
import math

import pytest
from hypothesis import given, strategies as st

from breakscore.alignment import (
    AlignedUtterance,
    AlignedWord,
    BreakClass,
    TokenSequence,
    build_sequence,
    inter_word_gaps,
    normalize_word,
    parse_ctm,
    parse_tsv,
    quantize,
    read_sequences,
    sequence_from_json,
    sequence_to_json,
)
from breakscore.exceptions import DataError, ParseError


class TestQuantize:
    # Boundary table: upper-inclusive bounds at 10ms / 50ms / 200ms.
    @pytest.mark.parametrize(
        "gap,expected",
        [
            (0.0, BreakClass.BR0),
            (0.005, BreakClass.BR0),
            (0.010, BreakClass.BR0),
            (0.0100001, BreakClass.BR1),
            (0.030, BreakClass.BR1),
            (0.050, BreakClass.BR1),
            (0.0500001, BreakClass.BR2),
            (0.120, BreakClass.BR2),
            (0.200, BreakClass.BR2),
            (0.2000001, BreakClass.BR3),
            (1.5, BreakClass.BR3),
            (math.inf, BreakClass.BR3),
        ],
    )
    def test_boundaries(self, gap, expected):
        assert quantize(gap) is expected

    def test_negative_gap_rejected(self):
        with pytest.raises(DataError):
            quantize(-0.001)

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_monotone_nondecreasing(self, gap):
        assert quantize(gap) <= quantize(gap + 0.01)


def _utt(times, id="u1"):
    words = tuple(
        AlignedWord(surface=f"w{i}", start=s, end=e) for i, (s, e) in enumerate(times)
    )
    return AlignedUtterance(id=id, words=words)


class TestGapsAndSequences:
    def test_gaps_and_overlap_clamp(self):
        utt = _utt([(0.0, 0.5), (0.45, 0.9), (1.0, 1.4)])
        assert inter_word_gaps(utt.words) == [0.0, pytest.approx(0.1)]

    def test_build_sequence_quantizes_gaps(self):
        utt = _utt([(0.0, 0.5), (0.53, 0.9), (1.2, 1.4)])
        seq = build_sequence(utt)
        assert seq.words == ("w0", "w1", "w2")
        assert seq.breaks == (BreakClass.BR1, BreakClass.BR3)

    def test_punctuation_words_dropped_and_gap_bridged(self):
        words = (
            AlignedWord(surface="Hello,", start=0.0, end=0.4),
            AlignedWord(surface="--", start=0.4, end=0.43),
            AlignedWord(surface="World!", start=0.48, end=0.9),
        )
        seq = build_sequence(AlignedUtterance(id="u", words=words))
        assert seq.words == ("hello", "world")
        # Gap spans 0.4 -> 0.48 around the dropped token.
        assert seq.breaks == (BreakClass.BR2,)

    def test_all_punctuation_rejected(self):
        words = (AlignedWord(surface="...", start=0.0, end=0.1),)
        with pytest.raises(DataError):
            build_sequence(AlignedUtterance(id="u", words=words))

    def test_alternation_invariant(self):
        with pytest.raises(DataError):
            TokenSequence(id="x", words=("a", "b"), breaks=())
        with pytest.raises(DataError):
            TokenSequence(id="x", words=("a",), breaks=(BreakClass.BR0,))


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,norm",
        [("Hello,", "hello"), ("DON'T", "don't"), ("...", ""), ("A1!", "a1")],
    )
    def test_examples(self, raw, norm):
        assert normalize_word(raw) == norm


CTM = """\
# comment
utt1 1 0.00 0.50 Hello
utt1 1 0.55 0.40 world

;; another comment
utt2 1 0.00 0.30 good
utt2 1 0.35 0.30 morning
"""


class TestParseCtm:
    def test_basic(self):
        utts = parse_ctm(io.StringIO(CTM))
        assert [u.id for u in utts] == ["utt1", "utt2"]
        assert utts[0].words[1].surface == "world"
        assert utts[0].words[1].start == pytest.approx(0.55)
        assert utts[0].words[1].end == pytest.approx(0.95)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("utt1 1 0.0 0.5", "5 fields"),
            ("utt1 1 zero 0.5 hi", "start time"),
            ("utt1 1 0.0 -0.5 hi", "negative duration"),
        ],
    )
    def test_errors_carry_line_numbers(self, line, fragment):
        with pytest.raises(ParseError, match="line 1"):
            parse_ctm(io.StringIO(line + "\n"))

    def test_non_contiguous_utterance(self):
        text = "a 1 0 1 x\nb 1 0 1 y\na 1 2 1 z\n"
        with pytest.raises(ParseError, match="non-contiguously"):
            parse_ctm(io.StringIO(text))

    def test_non_monotone_starts(self):
        text = "a 1 1.0 0.5 x\na 1 0.2 0.5 y\n"
        with pytest.raises(ParseError, match="non-monotone"):
            parse_ctm(io.StringIO(text))


class TestParseTsv:
    def test_basic(self):
        text = "u1\tHello\t0.0\t0.5\nu1\tworld\t0.55\t0.95\n"
        utts = parse_tsv(io.StringIO(text))
        assert len(utts) == 1 and len(utts[0].words) == 2

    def test_end_before_start(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_tsv(io.StringIO("u1\thi\t1.0\t0.5\n"))

    def test_field_count(self):
        with pytest.raises(ParseError, match="4 tab-separated"):
            parse_tsv(io.StringIO("u1\thi\t1.0\n"))


@st.composite
def utterances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    t = 0.0
    words = []
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
        dur = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        words.append(AlignedWord(surface=f"w{i}", start=round(t, 6), end=round(t + dur, 6)))
        t += dur
    return AlignedUtterance(id=draw(st.sampled_from(["a", "b", "utt_9"])), words=tuple(words))


def serialize_ctm(utts: list[AlignedUtterance]) -> str:
    """Inverse of parse_ctm on valid utterances (channel fixed to 1)."""
    lines = []
    for utt in utts:
        for w in utt.words:
            lines.append(f"{utt.id} 1 {w.start:.6f} {w.end - w.start:.6f} {w.surface}")
    return "\n".join(lines) + ("\n" if lines else "")


class TestRoundTrips:
    @given(utterances())
    def test_ctm_serialize_parse_round_trip(self, utt):
        parsed = parse_ctm(io.StringIO(serialize_ctm([utt])))
        assert len(parsed) == 1
        got = parsed[0]
        assert got.id == utt.id
        for a, b in zip(got.words, utt.words):
            assert a.surface == b.surface
            assert a.start == pytest.approx(b.start, abs=1e-6)
            assert a.end == pytest.approx(b.end, abs=1e-6)

    def test_sequence_json_round_trip(self):
        seq = TokenSequence(
            id="u-1", words=("a", "b", "c"), breaks=(BreakClass.BR1, BreakClass.BR3)
        )
        assert sequence_from_json(sequence_to_json(seq)) == seq

    def test_read_sequences_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            read_sequences(io.StringIO('{"id":"a","words":["x"],"breaks":[]}\n{"bad":1}\n'))
