"""Ingestion and break quantization."""
import io
import math
import re
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

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
from breakscore.exceptions import BreakscoreError, DataError, ParseError


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


class TestNonFiniteTimes:
    # The CTM and TSV readers reject a non-finite time at its line; the types
    # reject one from any other caller.
    @pytest.mark.parametrize("start,end", [(math.nan, math.nan), (0.0, math.nan),
                                           (math.nan, 1.0), (0.0, math.inf),
                                           (math.inf, math.inf)])
    def test_word_rejects_non_finite_times(self, start, end):
        with pytest.raises(DataError, match="bad word times"):
            AlignedWord("a", start, end)

    def test_replace_is_checked_too(self):
        word = AlignedWord("a", 0.0, 1.0)
        assert word._replace(end=2.0) == AlignedWord("a", 0.0, 2.0)
        with pytest.raises(DataError, match="bad word times"):
            word._replace(start=math.nan)

    def test_nan_gap_rejected(self):
        with pytest.raises(DataError, match="non-finite gap: nan"):
            quantize(math.nan)

    def test_infinite_gap_is_a_long_break(self):
        assert quantize(math.inf) is BreakClass.BR3


def test_break_tokens():
    assert [b.token for b in BreakClass] == ["br0", "br1", "br2", "br3"]


# -- the parsers against the code they replaced --------------------------------
# The functions below are `quantize`, `AlignedWord`, `AlignedUtterance`,
# `normalize_word`, `build_sequence`, `parse_ctm` and `parse_tsv` as they stood
# before quantization, word checks and line parsing were rewritten for speed.
# The rewrite must agree with them on every input: the same utterances and
# `ingest` JSONL for accepted text, and the same error, message and line for
# rejected text.

def old_quantize(gap):
    if gap < 0:
        raise DataError(f"negative gap: {gap}")
    for cls, bound in zip(BreakClass, (0.010, 0.050, 0.200)):
        if gap <= bound:
            return cls
    return BreakClass.BR3


@dataclass(frozen=True)
class OldWord:
    surface: str
    start: float
    end: float

    def __post_init__(self):
        if not self.surface or any(c.isspace() for c in self.surface):
            raise DataError(f"bad word surface: {self.surface!r}")
        if self.start < 0 or self.end < self.start:
            raise DataError(
                f"bad word times for {self.surface!r}: start={self.start} end={self.end}"
            )


@dataclass(frozen=True)
class OldUtterance:
    id: str
    words: tuple

    def __post_init__(self):
        if not self.words:
            raise DataError(f"utterance {self.id!r} has no words")
        starts = [w.start for w in self.words]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise DataError(f"utterance {self.id!r} has non-monotone word starts")


def old_build_sequence(utt):
    kept = [(surf, w) for w in utt.words
            if (surf := re.sub(r"[^a-z0-9']+", "", w.surface.lower()))]
    if not kept:
        raise DataError(f"utterance {utt.id!r} has no words after normalization")
    words = tuple(surf for surf, _ in kept)
    gaps = [max(0.0, b.start - a.end) for (_, a), (_, b) in zip(kept, kept[1:])]
    return TokenSequence(id=utt.id, words=words, breaks=tuple(old_quantize(g) for g in gaps))


def _old_parse_rows(rows, source):
    utts, seen, cur_id, cur_words = [], set(), None, []

    def flush():
        if cur_id is not None:
            utts.append(OldUtterance(id=cur_id, words=tuple(cur_words)))
            seen.add(cur_id)

    for line_no, utt_id, surface, start, end in rows:
        if utt_id != cur_id:
            flush()
            if utt_id in seen:
                raise ParseError(
                    f"utterance {utt_id!r} reappears non-contiguously in {source}",
                    line=line_no,
                )
            cur_id, cur_words = utt_id, []
        if cur_words and start < cur_words[-1].start:
            raise ParseError(f"non-monotone start times in utterance {utt_id!r}", line=line_no)
        try:
            cur_words.append(OldWord(surface=surface, start=start, end=end))
        except DataError as e:
            raise ParseError(str(e), line=line_no) from e
    flush()
    return utts


def _old_num(text, what, line_no):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", line=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line=line_no)
    return value


def old_parse_ctm(stream):
    rows = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";;"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ParseError(f"expected 5 fields, got {len(fields)}: {line!r}", line=line_no)
        utt_id, _channel, start_s, dur_s, word = fields
        start = _old_num(start_s, "start time", line_no)
        dur = _old_num(dur_s, "duration", line_no)
        if dur < 0:
            raise ParseError(f"negative duration {dur}", line=line_no)
        if not math.isfinite(start + dur):
            raise ParseError(f"end time {start} + {dur} overflows", line=line_no)
        rows.append((line_no, utt_id, word, start, start + dur))
    return _old_parse_rows(rows, "CTM input")


def old_parse_tsv(stream):
    rows = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", line=line_no)
        utt_id, word, start_s, end_s = fields
        start = _old_num(start_s, "start time", line_no)
        end = _old_num(end_s, "end time", line_no)
        if end < start:
            raise ParseError(f"end {end} before start {start}", line=line_no)
        rows.append((line_no, utt_id, word, start, end))
    return _old_parse_rows(rows, "TSV input")


def ingest(parse, build, text):
    """The parsed words and `ingest` JSONL of `text`, or the error it raises."""
    try:
        utts = parse(io.StringIO(text))
        words = [(u.id, [(w.surface, repr(w.start), repr(w.end)) for w in u.words]) for u in utts]
        return words, [sequence_to_json(build(u)) for u in utts]
    except BreakscoreError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)


BOUNDS = (0.010, 0.050, 0.200)
# Gaps and times at each bound and one float either side of it.
EDGES = (0.0, *BOUNDS, *(math.nextafter(b, 0) for b in BOUNDS),
         *(math.nextafter(b, 1) for b in BOUNDS))
times = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 0.5))
# Unicode letters that lowercase to ASCII (the dotted capital I, the Kelvin
# sign) or to letters outside [a-z].
surfaces = st.sampled_from(["Hello,", "world", "--", "...", "don't", "A1!", "\u00c9T\u00c9",
                            "caf\u00e9", "\u0130", "\u212a", "x#y", "#", ";;", "'", "_"])
# Words a TSV line can carry between its tabs that a word may not be: empty,
# or holding a character that str.isspace() is true of.
tsv_surfaces = st.one_of(surfaces, st.sampled_from(
    ["", " ", "a b", "a\u00a0b", "\u2003", "a\u3000", "a\u2028b", "x\x0by", "\x1c", "a\x85", "a\r"]))
junk_ctm = st.sampled_from(["u1 1 0.5", "u1 1 x 0.1 w", "u1 1 0.1 nan w", "u1 1 inf 0.1 w",
                            "u1 1 0.1 -0.2 w", "u1 1 -0.5 0.1 w", "u1 1 1e308 1e308 w",
                            "u1 1 0.1 0.1 a\u00a0b", "u1 1 -0 0 w", "u1 1 1_0 0 w"])
junk_tsv = st.sampled_from(["u1\tw\t0.5", "u1\tw\tx\t1", "u1\tw\t0\tnan", "u1\tw\t-inf\t0",
                            "u1\tw\t0.5\t0.1", "u1\tw\t-0.5\t0.1", "u1\t w\t0\t1", "\t\t\t"])
comments = st.sampled_from(["# note", ";; note", "  # indented", "\t;;x", "#", ";"])
blanks = st.sampled_from(["", " ", "\t", " \u3000 ", "\x0c"])


@st.composite
def alignment_text(draw, fmt):
    """Lines of a few utterances, each word after the last one's start (or at
    it), with comments, blank lines and faulty lines mixed in."""
    lines, utt, t = [], "a", 0.0
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["word"] * 8 + ["comment", "blank", "junk"]))
        if kind == "comment":
            lines.append(draw(comments))
        elif kind == "blank":
            lines.append(draw(blanks))
        elif kind == "junk":
            lines.append(draw(junk_ctm if fmt == "ctm" else junk_tsv))
        else:
            utt = draw(st.sampled_from([utt, utt, utt, utt + "x", "a"]))
            t += draw(times)
            dur = draw(times)
            word = draw(surfaces if fmt == "ctm" else tsv_surfaces)
            lines.append(f"{utt} 1 {t!r} {dur!r} {word}" if fmt == "ctm"
                         else f"{utt}\t{word}\t{t!r}\t{t + dur!r}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestAgainstTheOldParsers:
    @settings(max_examples=300, deadline=None)
    @given(alignment_text("ctm"))
    @example("a 1 0.0 0.0 w\na 1 0.01 0.0 v\na 1 0.06 0.0 u\na 1 0.26 0 t\n")
    @example("a 1 -1 0.5 w\na 1 0 1 w extra\n")
    def test_ctm(self, text):
        assert ingest(parse_ctm, build_sequence, text) == \
            ingest(old_parse_ctm, old_build_sequence, text)

    @settings(max_examples=300, deadline=None)
    @given(alignment_text("tsv"))
    @example("a\tw\t0\t0\na\tv\t0.01\t0.01\na\tu\t0.06\t0.06\na\tt\t0.26\t0.26\n")
    @example("a\ta b\t0\t1\na\tw\t0\tx\n")
    def test_tsv(self, text):
        assert ingest(parse_tsv, build_sequence, text) == \
            ingest(old_parse_tsv, old_build_sequence, text)

    @given(st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False),
                     st.sampled_from([-0.0, -1e-300, math.inf, -math.inf])))
    def test_quantize(self, gap):
        try:
            expected = old_quantize(gap)
        except DataError as e:
            with pytest.raises(DataError, match=re.escape(str(e))):
                quantize(gap)
        else:
            assert quantize(gap) is expected
