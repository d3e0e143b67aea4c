"""Desk-scale synthetic corpora.

Native sequences come from a closed template grammar whose break pattern is
decidable from the neighbouring words alone:

    after a clause-tail adverb      -> br2 (clause boundary)
    after a sentence-tail adverb    -> br3 (sentence boundary, mid-utterance)
    before "and" or before the verb -> br0 or br1, both valid (alternate patterns)
    everywhere else                 -> br0

The learner corpus is built from native sequences by injecting labeled errors:
spurious breaks and missed required breaks rate a position Poor, weakened
breaks rate it Fair, untouched positions are Great. The overall rank
aggregates per-position ranks: Poor when >= 20% of positions are Poor, Great
when >= 90% are Great with none Poor, Fair otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .alignment import BreakClass, TokenSequence
from .exceptions import DataError
from .jsonl import check_fields, takes
from .ranks import Rank
from .rngs import make_rng
from .tasks import RatedSample
from .vocab import Vocabulary, encode

DETS = ("the", "a")
ADJS = (
    "quick", "small", "bright", "quiet", "gentle", "old", "brave", "young",
    "tall", "warm", "plain", "tired", "eager", "proud", "calm", "sly",
    "blue", "cold", "damp", "fine", "glad", "grey", "neat", "pale",
)
NOUNS = (
    "fox", "bird", "river", "teacher", "student", "garden", "song", "cat",
    "dog", "story", "window", "painter", "farmer", "valley", "letter",
    "meadow", "sailor", "novel", "poem", "ship", "forest", "baker",
    "violin", "bridge", "lantern", "orchard", "harbor", "piano", "parrot", "well",
    "candle", "carpet", "castle", "cellar", "chapel", "circus", "corner",
    "cottage", "desert", "engine", "falcon", "feather", "fiddle", "flower",
    "hammer", "island", "jacket", "kitten",
)
VERBS = (
    "runs", "sings", "flows", "reads", "sleeps", "jumps", "waits", "smiles",
    "listens", "wanders", "rests", "dances", "whistles", "drifts", "hums", "turns",
    "waves", "drums", "glows", "leans", "naps", "paints", "sails", "snores",
)
CLAUSE_TAILS = (
    "slowly", "gently", "softly", "calmly", "quietly", "warmly", "neatly",
    "barely", "sweetly", "bravely", "plainly", "vaguely", "keenly", "dimly",
    "crisply", "fondly", "boldly", "briskly", "coolly", "darkly", "dearly",
    "deftly", "dryly", "eagerly", "easily", "evenly", "faintly", "fairly",
    "fiercely", "firmly", "freely", "gladly", "gravely", "grimly", "harshly",
    "hotly", "idly", "justly", "kindly", "lamely", "lazily", "lightly",
    "loosely", "loudly", "madly", "meekly", "mildly", "mutely",
)
SENT_TAILS = (
    "today", "tonight", "yesterday", "often", "sometimes", "everywhere",
    "upstream", "downtown", "nearby", "overseas", "indoors", "outdoors",
    "meanwhile", "afterwards", "nightly", "daily", "tomorrow", "weekly",
    "monthly", "yearly", "hourly", "soon", "later", "early", "late",
    "nowadays", "here", "there", "away", "abroad", "ashore", "aloft",
    "downhill", "uphill", "inland", "offshore", "onward", "homeward",
    "northward", "southward", "eastward", "westward", "midway", "beyond",
    "overhead", "underfoot", "somewhere", "anywhere",
)
CONJ = "and"

# Site kinds for each inter-word gap.
SITE_PLAIN = "plain"          # br0 required
SITE_OPTIONAL = "optional"    # br0 or br1 both valid
SITE_CLAUSE = "clause"        # br2 required
SITE_SENTENCE = "sentence"    # br3 required

_REQUIRED = {SITE_PLAIN: BreakClass.BR0, SITE_CLAUSE: BreakClass.BR2, SITE_SENTENCE: BreakClass.BR3}

FAIR_INTENSITY = 0.35   # share of break positions weakened in a Fair item
POOR_INTENSITY = 0.40   # share of break positions broken in a Poor item


@dataclass(frozen=True)
class SynthConfig:
    n_sentences: int = 100            # number of generated utterances
    max_conjuncts: int = 2            # most `and <noun phrase>`s per clause (1 or 2)
    comma_rate: float = 0.5           # chance of a second clause in a sentence
    two_sentence_rate: float = 0.5    # chance an utterance holds two sentences
    alt_pattern_rate: float = 0.3     # chance an optional site carries br1
    adj_rate: float = 0.6             # chance a noun phrase carries an adjective
    seed: int = 0
    class_shape: tuple = (0.1, 0.2, 0.7)  # Poor/Fair/Great overall fractions

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.max_conjuncts not in (1, 2):
            raise DataError(f"max_conjuncts must be 1 or 2, got {self.max_conjuncts}")
        shape = self.class_shape
        if (len(shape) != 3 or not takes("float", shape)
                or not all(0.0 <= f <= 1.0 for f in shape) or abs(sum(shape) - 1.0) > 1e-6):
            raise DataError(f"class_shape must be three Poor/Fair/Great fractions in [0, 1] "
                            f"that sum to 1, got {shape}")
        for name, rate in (
            ("comma_rate", self.comma_rate),
            ("two_sentence_rate", self.two_sentence_rate),
            ("alt_pattern_rate", self.alt_pattern_rate),
            ("adj_rate", self.adj_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise DataError(f"{name} out of [0,1]: {rate}")
        if self.n_sentences < 1:
            raise DataError("n_sentences must be >= 1")


def infer_sites(words: tuple[str, ...]) -> list[str]:
    """Site kind for every inter-word gap, from word context alone."""
    sites = []
    for i in range(len(words) - 1):
        left, right = words[i], words[i + 1]
        if left in CLAUSE_TAILS:
            sites.append(SITE_CLAUSE)
        elif left in SENT_TAILS:
            sites.append(SITE_SENTENCE)
        elif right == CONJ or right in VERBS:
            sites.append(SITE_OPTIONAL)
        else:
            sites.append(SITE_PLAIN)
    return sites


def _gen_noun_phrase(rng, adj_rate: float) -> list[str]:
    np_words = [DETS[rng.integers(len(DETS))]]
    if rng.random() < adj_rate:
        np_words.append(ADJS[rng.integers(len(ADJS))])
    np_words.append(NOUNS[rng.integers(len(NOUNS))])
    return np_words


def _gen_clause(rng, cfg: SynthConfig, final_in_sentence: bool) -> list[str]:
    words = _gen_noun_phrase(rng, cfg.adj_rate)
    n_conjuncts = int(rng.integers(1, cfg.max_conjuncts + 1))
    for _ in range(n_conjuncts):
        words.append(CONJ)
        words.extend(_gen_noun_phrase(rng, cfg.adj_rate))
    words.append(VERBS[rng.integers(len(VERBS))])
    tails = SENT_TAILS if final_in_sentence else CLAUSE_TAILS
    words.append(tails[rng.integers(len(tails))])
    return words


def _native_breaks(sites: list[str], rng, alt_rate: float) -> list[BreakClass]:
    out = []
    for site in sites:
        if site == SITE_OPTIONAL:
            out.append(BreakClass.BR1 if rng.random() < alt_rate else BreakClass.BR0)
        else:
            out.append(_REQUIRED[site])
    return out


def generate_native(cfg: SynthConfig) -> list[TokenSequence]:
    """Well-phrased template utterances with seed-stable alternate patterns."""
    rng = make_rng(cfg.seed, "synth-native")
    out = []
    for idx in range(cfg.n_sentences):
        words: list[str] = []
        n_sents = 2 if rng.random() < cfg.two_sentence_rate else 1
        for s in range(n_sents):
            n_clauses = 2 if rng.random() < cfg.comma_rate else 1
            for c in range(n_clauses):
                words.extend(_gen_clause(rng, cfg, final_in_sentence=(c == n_clauses - 1)))
        words_t = tuple(words)
        breaks = _native_breaks(infer_sites(words_t), rng, cfg.alt_pattern_rate)
        out.append(TokenSequence(id=f"native-{idx:05d}", words=words_t, breaks=tuple(breaks)))
    return out


@dataclass(frozen=True)
class EslSample:
    """A learner utterance with its generation-time ground truth."""

    seq: TokenSequence
    overall: Rank
    fine: tuple[Rank, ...]
    trace: tuple[str, ...]   # which rule produced each position's label

    def __post_init__(self):
        if len(self.fine) != len(self.seq.breaks) or len(self.trace) != len(self.fine):
            raise DataError(f"sample {self.seq.id!r}: ground truth misaligned")
        if aggregate_overall(self.fine) != self.overall:
            raise DataError(f"sample {self.seq.id!r}: overall {self.overall.label} is not "
                            "the aggregate of its fine ranks")


def aggregate_overall(fine: list[Rank]) -> Rank:
    """Per-position ranks -> utterance rank (the >=20% / >=90% rule)."""
    if not fine:
        return Rank.GREAT
    n = len(fine)
    n_poor = sum(r == Rank.POOR for r in fine)
    n_great = sum(r == Rank.GREAT for r in fine)
    if n_poor / n >= 0.2:
        return Rank.POOR
    if n_poor == 0 and n_great / n >= 0.9:
        return Rank.GREAT
    return Rank.FAIR


def _inject_poor(site: str, rng):
    """A position-level error rated Poor; returns (new break, trace tag)."""
    rng.random()   # one draw per Poor position belongs to the seeded corpus stream
    if site in (SITE_CLAUSE, SITE_SENTENCE):
        return BreakClass.BR0, "missed"
    new = BreakClass.BR3 if rng.random() < 0.5 else BreakClass.BR2
    return new, "spurious"


def _inject_fair(site: str):
    """A weakened/hesitant break rated Fair, where the site allows one."""
    if site == SITE_CLAUSE:
        return BreakClass.BR1, "weak"
    if site == SITE_SENTENCE:
        return BreakClass.BR2, "weak"
    if site == SITE_PLAIN:
        return BreakClass.BR1, "weak-spurious"
    return None


def _corrupt_to_class(seq: TokenSequence, target: Rank, rng):
    """(breaks, fine ranks, trace tags) of `seq` with errors injected so that
    its ranks aggregate to `target`. The intensities fix how many positions
    are injected, so the outcome does not depend on the draws: a Fair target
    needs enough sites that take a Fair break, and a Poor one some break."""
    sites = infer_sites(seq.words)
    n = len(sites)
    breaks = list(seq.breaks)
    fine = [Rank.GREAT] * n
    trace = ["ok"] * n
    if target == Rank.GREAT:
        return breaks, fine, trace
    k = max(1, math.ceil((FAIR_INTENSITY if target == Rank.FAIR else POOR_INTENSITY) * n))
    candidates = [i for i in range(n) if target == Rank.POOR or _inject_fair(sites[i]) is not None]
    if len(candidates) < k:
        raise DataError(f"cannot corrupt {seq.id!r} to {target.label}: {k} of its "
                        f"{n} break positions must change, and {len(candidates)} can")
    if target == Rank.FAIR:
        for i in rng.choice(len(candidates), size=k, replace=False):
            pos = candidates[i]
            breaks[pos], trace[pos] = _inject_fair(sites[pos])
            fine[pos] = Rank.FAIR
    else:
        for i in rng.choice(n, size=k, replace=False):
            breaks[i], trace[i] = _inject_poor(sites[i], rng)
            fine[i] = Rank.POOR
    return breaks, fine, trace


def generate_esl(cfg: SynthConfig, native: list[TokenSequence]) -> list[EslSample]:
    """Error-injected learner corpus hitting the configured class shape.

    Each native sequence is assigned a target overall rank so the emitted
    class counts match `class_shape` to rounding; a sequence that cannot reach
    its target is a `DataError`.
    """
    if not native:
        raise DataError("generate_esl needs a native corpus")
    rng = make_rng(cfg.seed, "synth-esl")
    n = len(native)
    n_poor = round(cfg.class_shape[0] * n)
    n_fair = round(cfg.class_shape[1] * n)
    targets = (
        [Rank.POOR] * n_poor
        + [Rank.FAIR] * n_fair
        + [Rank.GREAT] * (n - n_poor - n_fair)
    )
    # Shuffle the target assignment so emitted order is class-mixed.
    targets = [targets[j] for j in rng.permutation(n)]
    out = []
    for idx, seq in enumerate(native):
        target = targets[idx]
        breaks, fine, trace = _corrupt_to_class(seq, target, rng)
        out.append(
            EslSample(
                seq=TokenSequence(
                    id=f"esl-{seq.id}", words=seq.words, breaks=tuple(breaks)
                ),
                overall=target,
                fine=tuple(fine),
                trace=tuple(trace),
            )
        )
    return out


def encode_rated(sample: EslSample, vocab: Vocabulary) -> RatedSample:
    """Encode an ESL sample into the model's id space with aligned fine labels."""
    return RatedSample(
        id=sample.seq.id,
        ids=tuple(encode(sample.seq, vocab)),
        overall=sample.overall,
        fine=sample.fine,
    )


def corpus_stats(seqs: list[TokenSequence]) -> dict:
    """Clip/word/break-class counts for a token-sequence corpus."""
    stats = {
        "clips": len(seqs),
        "words": sum(len(s.words) for s in seqs),
        "breaks": {f"br{i}": 0 for i in range(4)},
    }
    for s in seqs:
        for b in s.breaks:
            stats["breaks"][b.token] += 1
    return stats


def esl_stats(samples: list[EslSample]) -> dict:
    """Overall and fine-grained class counts for a learner corpus."""
    stats = corpus_stats([s.seq for s in samples])
    stats["overall"] = {r.label: sum(s.overall == r for s in samples) for r in Rank}
    stats["fine"] = {
        r.label: sum(sum(f == r for f in s.fine) for s in samples) for r in Rank
    }
    return stats
