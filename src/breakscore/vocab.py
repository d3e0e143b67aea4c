"""Whole-word vocabulary and sequence encoding.

Reserved ids are fixed: PAD=0, UNK=1, CLS=2, SEP=3, BR0..BR3=4..7.
Word ids start at 8, assigned by descending frequency (ties lexicographic).
An encoded sequence is its ids alone: the break ids are where its breaks are.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .alignment import BreakClass, TokenSequence
from .exceptions import DataError, ParseError
from .jsonl import takes

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
BR_BASE_ID = 4
BREAK_IDS = range(BR_BASE_ID, BR_BASE_ID + len(BreakClass))   # br0..br3: BR_BASE_ID + class
FIRST_WORD_ID = 8

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "br0", "br1", "br2", "br3")


def is_break_id(ids):
    """Whether a token id is a break id; elementwise for an id array."""
    return (ids >= BREAK_IDS.start) & (ids < BREAK_IDS.stop)


_IS_BREAK_ID = frozenset(BREAK_IDS).__contains__   # a C call per id: readers check every token


def break_flags(ids) -> list[bool]:
    """Whether each token id of a sequence is a break id: its break mask."""
    return list(map(_IS_BREAK_ID, ids))


def check_break_flags(sample_id, ids, flags) -> None:
    """A file's break flags for `ids`, its `break_mask`, must be their break_flags."""
    if list(flags) != break_flags(ids):
        raise DataError(f"sample {sample_id!r}: break_mask must be true exactly at the break "
                        f"ids {BREAK_IDS[0]}..{BREAK_IDS[-1]}, one flag per id")


@dataclass(frozen=True)
class Vocabulary:
    word_to_id: dict[str, int]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        ids = list(self.word_to_id.values())
        if len(set(ids)) != len(ids):
            raise DataError("vocabulary mapping is not injective")
        if any(i < FIRST_WORD_ID for i in ids):
            raise DataError("word ids must start at 8 (reserved range collision)")

    @property
    def size(self) -> int:
        return FIRST_WORD_ID + len(self.word_to_id)

    def to_lines(self) -> list[str]:
        """Serialize as `<id>\\t<token>\\t<count>` lines, reserved tokens first."""
        lines = [f"{i}\t{tok}\t0" for i, tok in enumerate(RESERVED_TOKENS)]
        for word, idx in sorted(self.word_to_id.items(), key=lambda kv: kv[1]):
            lines.append(f"{idx}\t{word}\t{self.counts.get(word, 0)}")
        return lines

    @classmethod
    def from_lines(cls, lines) -> "Vocabulary":
        """Parse `to_lines` output. Each word appears once, and the word ids
        are exactly 8..size-1, so each one indexes a row of an embedding
        table of `size` rows."""
        word_to_id: dict[str, int] = {}
        counts: dict[str, int] = {}
        id_line: dict[int, int] = {}
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError("expected `id<TAB>token<TAB>count`", line=line_no)
            try:
                idx, count = int(fields[0]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer id/count in {line!r}", line=line_no) from None
            tok = fields[1]
            if idx < 0:
                raise ParseError(f"negative id {idx}", line=line_no)
            if idx < FIRST_WORD_ID:
                if RESERVED_TOKENS[idx] != tok:
                    raise ParseError(f"reserved id {idx} must be {RESERVED_TOKENS[idx]!r}", line=line_no)
                continue
            if tok in word_to_id:
                first = id_line[word_to_id[tok]]
                raise ParseError(f"token {tok!r} repeated (first on line {first})", line=line_no)
            if idx in id_line:
                raise ParseError(f"word id {idx} repeated (first on line {id_line[idx]})",
                                 line=line_no)
            id_line[idx] = line_no
            word_to_id[tok] = idx
            counts[tok] = count
        size = FIRST_WORD_ID + len(word_to_id)
        for idx, line_no in id_line.items():
            if idx >= size:
                raise ParseError(f"word id {idx} outside {FIRST_WORD_ID}..{size - 1}: "
                                 f"{len(word_to_id)} words need ids without gaps", line=line_no)
        return cls(word_to_id=word_to_id, counts=counts)


def build_vocab(corpus: list[TokenSequence]) -> Vocabulary:
    """Every word of the corpus, counted."""
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    freq = Counter()
    for seq in corpus:
        freq.update(seq.words)
    kept = sorted(freq, key=lambda w: (-freq[w], w))
    word_to_id = {w: FIRST_WORD_ID + i for i, w in enumerate(kept)}
    return Vocabulary(word_to_id=word_to_id, counts={w: freq[w] for w in kept})


def check_encoded(sample_id, ids) -> None:
    """A dataset record's tokens: at least one, each a non-negative integer id."""
    if not ids:
        raise DataError(f"sample {sample_id!r}: ids holds no token")
    if not takes("int", ids) or min(ids) < 0:
        raise DataError(f"sample {sample_id!r}: token ids must be non-negative integers")


def encode(seq: TokenSequence, vocab: Vocabulary) -> list[int]:
    """Encode the whole sequence to `[CLS] w0 b0 w1 ...` ids; the break ids
    alone say where its breaks are."""
    n = len(seq.words)
    ids = [CLS_ID] * (2 * n)
    get = vocab.word_to_id.get
    ids[1::2] = [get(w, UNK_ID) for w in seq.words]
    ids[2::2] = [BR_BASE_ID + b for b in seq.breaks]
    return ids
