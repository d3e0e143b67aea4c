"""Synthetic native and learner corpora."""
import pytest

from breakscore import synth
from breakscore.alignment import BreakClass, TokenSequence
from breakscore.exceptions import DataError
from breakscore.ranks import Rank
from breakscore.synth import (
    CLAUSE_TAILS,
    CONJ,
    SENT_TAILS,
    SITE_CLAUSE,
    SITE_OPTIONAL,
    SITE_PLAIN,
    SITE_SENTENCE,
    VERBS,
    EslSample,
    SynthConfig,
    aggregate_overall,
    corpus_stats,
    esl_stats,
    generate_esl,
    generate_native,
    infer_sites,
)
from breakscore.vocab import build_vocab, is_break_id
from breakscore.synth import encode_rated


class TestInferSites:
    def test_rule_table(self):
        words = ("the", "fox", "and", "the", "dog", "runs", "slowly", "today", "now")
        sites = infer_sites(words)
        assert sites == [
            SITE_PLAIN,      # the-fox
            SITE_OPTIONAL,   # fox-and
            SITE_PLAIN,      # and-the
            SITE_PLAIN,      # the-dog
            SITE_OPTIONAL,   # dog-runs (verb follows)
            SITE_PLAIN,      # runs-slowly
            SITE_CLAUSE,     # slowly- (clause tail on the left)
            SITE_SENTENCE,   # today- (sentence tail on the left)
        ]


class TestGenerateNative:
    def test_deterministic_and_sized(self):
        cfg = SynthConfig(n_sentences=40, seed=3)
        a = generate_native(cfg)
        b = generate_native(cfg)
        assert a == b and len(a) == 40
        assert generate_native(SynthConfig(n_sentences=40, seed=4)) != a

    def test_breaks_follow_the_grammar(self):
        for seq in generate_native(SynthConfig(n_sentences=60, seed=5)):
            sites = infer_sites(seq.words)
            for site, br in zip(sites, seq.breaks):
                if site == SITE_CLAUSE:
                    assert br is BreakClass.BR2
                elif site == SITE_SENTENCE:
                    assert br is BreakClass.BR3
                elif site == SITE_OPTIONAL:
                    assert br in (BreakClass.BR0, BreakClass.BR1)
                else:
                    assert br is BreakClass.BR0

    def test_alt_pattern_rate_controls_optional_sites(self):
        def br1_rate(alt):
            seqs = generate_native(SynthConfig(n_sentences=200, seed=6, alt_pattern_rate=alt))
            n1 = n = 0
            for s in seqs:
                for site, br in zip(infer_sites(s.words), s.breaks):
                    if site == SITE_OPTIONAL:
                        n += 1
                        n1 += br is BreakClass.BR1
            return n1 / n

        assert br1_rate(0.0) == 0.0
        assert abs(br1_rate(0.5) - 0.5) < 0.05

    def test_max_conjuncts_bounds_the_ands_per_clause(self):
        def conjuncts_per_clause(max_conjuncts):
            counts = []
            for s in generate_native(SynthConfig(n_sentences=100, seed=8,
                                                 max_conjuncts=max_conjuncts)):
                n = 0
                for word in s.words:
                    n += word == CONJ
                    if word in CLAUSE_TAILS or word in SENT_TAILS:
                        counts.append(n)
                        n = 0
            return set(counts)

        assert conjuncts_per_clause(1) == {1}
        assert conjuncts_per_clause(2) == {1, 2}
        with pytest.raises(DataError, match="max_conjuncts"):
            SynthConfig(max_conjuncts=3)

    def test_words_are_alt_rate_invariant(self):
        # Same seed, different alternate-pattern rate: identical word streams,
        # so a zero-rate regeneration yields canonical reference renditions.
        a = generate_native(SynthConfig(n_sentences=50, seed=7, alt_pattern_rate=0.0))
        b = generate_native(SynthConfig(n_sentences=50, seed=7, alt_pattern_rate=0.9))
        assert [s.words for s in a] == [s.words for s in b]


class TestAggregateOverall:
    def test_thresholds(self):
        P, F, G = Rank.POOR, Rank.FAIR, Rank.GREAT
        assert aggregate_overall([P, G, G, G, G]) is Rank.POOR          # 20% poor
        assert aggregate_overall([P] + [G] * 9) is Rank.FAIR           # 10% poor
        assert aggregate_overall([G] * 10) is Rank.GREAT
        assert aggregate_overall([F] + [G] * 9) is Rank.GREAT          # 90% great
        assert aggregate_overall([F, F] + [G] * 8) is Rank.FAIR
        assert aggregate_overall([]) is Rank.GREAT


class TestGenerateEsl:
    def setup_method(self):
        self.cfg = SynthConfig(n_sentences=100, seed=9)
        self.native = generate_native(self.cfg)
        self.esl = generate_esl(self.cfg, self.native)

    def test_class_shape_hit_exactly(self):
        counts = {r: sum(s.overall == r for s in self.esl) for r in Rank}
        assert counts == {Rank.POOR: 10, Rank.FAIR: 20, Rank.GREAT: 70}

    def test_overall_consistent_with_fine(self):
        for s in self.esl:
            assert aggregate_overall(list(s.fine)) is s.overall

    def test_class_order_is_mixed(self):
        # Target classes must not come out grouped.
        ranks = [s.overall for s in self.esl]
        assert ranks != sorted(ranks) and ranks != sorted(ranks, reverse=True)

    def test_fine_labels_match_injected_edits(self):
        for s in self.esl:
            native = next(n for n in self.native if s.seq.id == f"esl-{n.id}")
            for pos, (got, orig) in enumerate(zip(s.seq.breaks, native.breaks)):
                if s.fine[pos] is Rank.GREAT:
                    assert s.trace[pos] == "ok"
                    # Untouched positions keep a valid break for their site.
                else:
                    assert s.trace[pos] != "ok"
                    assert got != orig or s.trace[pos] in ("weak-spurious",)

    def test_deterministic(self):
        again = generate_esl(self.cfg, self.native)
        assert again == self.esl

    def test_empty_native_rejected(self):
        with pytest.raises(DataError):
            generate_esl(self.cfg, [])

    def test_unreachable_target_rejected_on_the_first_call(self, monkeypatch):
        # "fox runs" has one gap, an optional site, which takes no Fair break;
        # the injection counts are fixed, so no draw could make it Fair.
        calls = []
        real = synth._corrupt_to_class

        def counting(*args):
            calls.append(args[0].id)
            return real(*args)

        monkeypatch.setattr(synth, "_corrupt_to_class", counting)
        native = [TokenSequence(id="n7", words=("fox", "runs"), breaks=(BreakClass.BR0,))]
        with pytest.raises(DataError, match="'n7' to Fair"):
            generate_esl(SynthConfig(class_shape=(0.0, 1.0, 0.0)), native)
        assert calls == ["n7"]


class TestStatsAndEncoding:
    def test_corpus_stats_counts(self):
        native = generate_native(SynthConfig(n_sentences=30, seed=1))
        stats = corpus_stats(native)
        assert stats["clips"] == 30
        assert stats["words"] == sum(len(s.words) for s in native)
        assert sum(stats["breaks"].values()) == sum(len(s.breaks) for s in native)

    def test_esl_stats_totals(self):
        cfg = SynthConfig(n_sentences=50, seed=2)
        esl = generate_esl(cfg, generate_native(cfg))
        stats = esl_stats(esl)
        assert sum(stats["overall"].values()) == 50
        assert sum(stats["fine"].values()) == sum(len(s.fine) for s in esl)

    def test_encode_rated_aligns_fine_labels(self):
        cfg = SynthConfig(n_sentences=20, seed=3)
        native = generate_native(cfg)
        esl = generate_esl(cfg, native)
        vocab = build_vocab(native)
        for s in esl:
            rated = encode_rated(s, vocab)
            assert len(rated.fine) == sum(map(is_break_id, rated.ids))
            assert rated.overall is s.overall


class TestConfigValidation:
    def test_class_shape_must_sum_to_one(self):
        with pytest.raises(DataError):
            SynthConfig(class_shape=(0.5, 0.5, 0.5))
