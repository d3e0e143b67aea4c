"""Forced-alignment ingestion: CTM/TSV parsing, inter-word gaps, break quantization.

A break class is assigned to every inter-word gap by duration:

    br0  (0, 10ms]    no break (0 s maps here too)
    br1  (10, 50ms]   slight / optional break
    br2  (50, 200ms]  break
    br3  (200ms, inf) long break
"""
from __future__ import annotations

import enum
import json
import math
import operator
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import jsonl
from .exceptions import DataError, ParseError


class BreakClass(enum.IntEnum):
    BR0 = 0
    BR1 = 1
    BR2 = 2
    BR3 = 3

    def __init__(self, value):
        self.token = f"br{value}"


# Upper-inclusive duration bounds, in seconds; class i holds the gaps up to
# bound i, and BR3 the rest.
_QUANT_BOUNDS = (0.010, 0.050, 0.200)
_BREAK_CLASSES = tuple(BreakClass)
_INF = math.inf


def quantize(gap: float) -> BreakClass:
    """Map a non-negative inter-word gap in seconds to its break class."""
    if not gap >= 0:
        raise DataError(f"{'negative' if gap < 0 else 'non-finite'} gap: {gap}")
    return _BREAK_CLASSES[bisect_left(_QUANT_BOUNDS, gap)]


class _Word(NamedTuple):
    surface: str
    start: float
    end: float


class AlignedWord(_Word):
    """One aligned word: a non-empty surface without whitespace, and finite
    times with 0 <= start <= end."""

    __slots__ = ()

    def __new__(cls, surface: str, start: float, end: float):
        if surface.split() != [surface]:
            raise DataError(f"bad word surface: {surface!r}")
        if not 0 <= start <= end < _INF:
            raise DataError(f"bad word times for {surface!r}: start={start} end={end}")
        return tuple.__new__(cls, (surface, start, end))

    @classmethod
    def _make(cls, iterable):
        """What `_replace` builds through, so it is checked too."""
        return cls(*iterable)


@dataclass(frozen=True)
class AlignedUtterance:
    id: str
    words: tuple[AlignedWord, ...]

    def __post_init__(self):
        if not self.words:
            raise DataError(f"utterance {self.id!r} has no words")
        starts = [w.start for w in self.words]
        if any(map(operator.gt, starts, starts[1:])):
            raise DataError(f"utterance {self.id!r} has non-monotone word starts")


@dataclass(frozen=True)
class TokenSequence:
    """Words alternating with break classes: w0 b0 w1 ... b_{n-2} w_{n-1}."""

    id: str
    words: tuple[str, ...]
    breaks: tuple[BreakClass, ...]

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise DataError(f"token sequence id must be a string, got {self.id!r}")
        if not self.words:
            raise DataError(f"token sequence {self.id!r} is empty")
        if len(self.breaks) != len(self.words) - 1:
            raise DataError(
                f"token sequence {self.id!r}: {len(self.words)} words need "
                f"{len(self.words) - 1} breaks, got {len(self.breaks)}"
            )


def inter_word_gaps(words: Sequence[AlignedWord]) -> list[float]:
    """Silence between consecutive words; overlaps clamp to 0."""
    gaps = [b.start - a.end for a, b in zip(words, words[1:])]
    return [g if g > 0 else 0.0 for g in gaps]


_WORD_KEEP = re.compile(r"[^a-z0-9']+")


def normalize_word(surface: str) -> str:
    """Lowercase and strip punctuation; may return '' for pure punctuation."""
    lowered = surface.lower()
    if lowered.isascii() and lowered.isalnum():   # already only [a-z0-9]
        return lowered
    return _WORD_KEEP.sub("", lowered)


def build_sequence(utt: AlignedUtterance) -> TokenSequence:
    """Tokenize an aligned utterance into a word/break sequence.

    Pure-punctuation words are dropped; the gap then spans from the previous
    kept word's end to the next kept word's start.
    """
    words, kept = [], []
    for w in utt.words:
        if surf := normalize_word(w.surface):
            words.append(surf)
            kept.append(w)
    if not kept:
        raise DataError(f"utterance {utt.id!r} has no words after normalization")
    breaks = tuple(map(quantize, inter_word_gaps(kept)))
    return TokenSequence(id=utt.id, words=tuple(words), breaks=breaks)


def _parse_rows(rows, source: str) -> list[AlignedUtterance]:
    """Group (line_no, utt_id, word, start, end) rows into utterances."""
    utts: list[AlignedUtterance] = []
    seen: set[str] = set()
    cur_id = None
    cur_words: list[AlignedWord] = []

    def flush():
        if cur_id is not None:
            utts.append(AlignedUtterance(id=cur_id, words=tuple(cur_words)))
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
        elif start < cur_words[-1].start:
            raise ParseError(
                f"non-monotone start times in utterance {utt_id!r}", line=line_no
            )
        try:
            cur_words.append(AlignedWord(surface, start, end))
        except DataError as e:
            raise ParseError(str(e), line=line_no) from e
    flush()
    return utts


def _num(text: str, what: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", line=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line=line_no)
    return value


def parse_ctm(stream) -> list[AlignedUtterance]:
    """Parse Kaldi-style CTM lines: `<utt-id> <channel> <start-sec> <dur-sec> <word>`.

    Blank lines and lines starting with `#` or `;;` are skipped. Lines of one
    utterance must be contiguous; utterances come out in first-appearance order.
    """
    rows = []
    for line_no, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith(("#", ";;")):
            continue
        if len(fields) != 5:
            raise ParseError(
                f"expected 5 fields, got {len(fields)}: {raw.strip()!r}", line=line_no
            )
        utt_id, _channel, start_s, dur_s, word = fields
        try:
            start, dur = float(start_s), float(dur_s)
        except ValueError:
            start = dur = math.nan
        end = start + dur
        # A finite end needs a finite start and duration; NaN fails both tests.
        # A line that fails is checked field by field to name its first fault.
        if not (dur >= 0 and -_INF < end < _INF):
            start = _num(start_s, "start time", line_no)
            dur = _num(dur_s, "duration", line_no)
            if dur < 0:
                raise ParseError(f"negative duration {dur}", line=line_no)
            raise ParseError(f"end time {start} + {dur} overflows", line=line_no)
        rows.append((line_no, utt_id, word, start, end))
    return _parse_rows(rows, "CTM input")


def parse_tsv(stream) -> list[AlignedUtterance]:
    """Parse the 4-column TSV fallback: `<utt-id>\\t<word>\\t<start-sec>\\t<end-sec>`."""
    rows = []
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 tab-separated fields, got {len(fields)}", line=line_no
            )
        utt_id, word, start_s, end_s = fields
        try:
            start, end = float(start_s), float(end_s)
        except ValueError:
            start = end = math.nan
        if not -_INF < start <= end < _INF:   # as in parse_ctm
            start = _num(start_s, "start time", line_no)
            end = _num(end_s, "end time", line_no)
            raise ParseError(f"end {end} before start {start}", line=line_no)
        rows.append((line_no, utt_id, word, start, end))
    return _parse_rows(rows, "TSV input")


def sequence_to_json(seq: TokenSequence, **extra) -> str:
    """One JSONL line; `extra` keys ride along (a reader of sequences ignores them)."""
    return jsonl.dumps(
        {"id": seq.id, "words": list(seq.words), "breaks": [int(b) for b in seq.breaks], **extra}
    )


def sequence_from_json(line: str) -> TokenSequence:
    obj = json.loads(line)
    return TokenSequence(
        id=obj["id"],
        words=jsonl.array(obj, "words", "str"),
        breaks=tuple(map(BreakClass, jsonl.array(obj, "breaks", "int"))),
    )


def read_sequences(stream) -> list[TokenSequence]:
    return jsonl.read(stream, sequence_from_json, "token-sequence")
