"""Replaced-break corruption: edit statistics, labeling, determinism."""
import io
import json
import math

import pytest

from breakscore.alignment import BreakClass
from breakscore.corruption import (
    LABEL_CORRUPTED,
    LABEL_ORIGINAL,
    CorruptionConfig,
    LabeledSequence,
    build_pretrain_dataset,
    corrupt_once,
    labeled_from_json,
    labeled_to_json,
    read_labeled,
)
from breakscore.exceptions import DataError
from breakscore.rngs import make_rng
from breakscore.vocab import BR_BASE_ID, CLS_ID


def sample(n_breaks=10, cls=BreakClass.BR0, word_id=8):
    ids = [CLS_ID, word_id]
    mask = [False, False]
    for _ in range(n_breaks):
        ids += [BR_BASE_ID + int(cls), word_id]
        mask += [True, False]
    return ids, mask


class TestCorruptOnce:
    def test_words_never_touched(self):
        ids, mask = sample(20)
        rng = make_rng(0, "t")
        for _ in range(50):
            out = corrupt_once("s", ids, mask, CorruptionConfig(replace_prob=1.0), rng)
            for pos, (a, b) in enumerate(zip(ids, out.ids)):
                if not mask[pos]:
                    assert a == b

    def test_replacement_never_identity(self):
        ids, mask = sample(30, cls=BreakClass.BR2)
        rng = make_rng(1, "t")
        out = corrupt_once("s", ids, mask, CorruptionConfig(replace_prob=1.0), rng)
        assert out.label == LABEL_CORRUPTED
        for pos, old, new in out.edits:
            assert old is BreakClass.BR2 and new is not BreakClass.BR2
            assert out.ids[pos] == BR_BASE_ID + int(new)

    def test_zero_edit_attempt_labeled_original(self):
        ids, mask = sample(3)
        rng = make_rng(2, "t")
        out = corrupt_once("s", ids, mask, CorruptionConfig(replace_prob=0.0), rng)
        assert out.label == LABEL_ORIGINAL and out.edits == ()

    def test_replacement_rate(self):
        # Over >= 1e5 break positions the realized edit rate is 0.15 +/- 0.01.
        ids, mask = sample(100)
        rng = make_rng(3, "t")
        total, edited = 0, 0
        for _ in range(1200):
            out = corrupt_once("s", ids, mask, CorruptionConfig(replace_prob=0.15), rng)
            total += 100
            edited += len(out.edits)
        assert total >= 100_000
        assert abs(edited / total - 0.15) < 0.01

    def test_replacement_class_uniform(self):
        # Conditional on replacement, each of the 3 other classes has p=1/3.
        ids, mask = sample(30, cls=BreakClass.BR1)
        rng = make_rng(4, "t")
        counts = {c: 0 for c in BreakClass if c != BreakClass.BR1}
        n = 0
        while n < 30_000:
            out = corrupt_once("s", ids, mask, CorruptionConfig(replace_prob=1.0), rng)
            for _, _, new in out.edits:
                counts[new] += 1
                n += 1
        for c, k in counts.items():
            assert abs(k / n - 1 / 3) < 0.01, (c, k / n)

    def test_zero_edit_fraction_matches_binomial(self):
        # P(no edit in 10 breaks at p=0.15) = 0.85^10 ~ 0.1969.
        ids, mask = sample(10)
        rng = make_rng(5, "t")
        n = 30_000
        zero = sum(
            corrupt_once("s", ids, mask, CorruptionConfig(), rng).label == LABEL_ORIGINAL
            for _ in range(n)
        )
        assert abs(zero / n - 0.85**10) < 0.01

    def test_mask_on_non_break_id_rejected(self):
        with pytest.raises(DataError):
            corrupt_once("s", [CLS_ID, 8], [False, True], CorruptionConfig(), make_rng(0, "t"))


class TestDataset:
    def _corpus(self, n=50):
        return [(f"u{i}", *sample(8)) for i in range(n)]

    def test_three_to_one_ratio_and_shuffle(self):
        data = build_pretrain_dataset(self._corpus(), CorruptionConfig(seed=7))
        assert len(data) == 200
        originals = [s for s in data if "#c" not in s.id]
        copies = [s for s in data if "#c" in s.id]
        assert len(originals) == 50 and len(copies) == 150
        # Shuffled: not grouped by source sequence.
        assert [s.id for s in data] != sorted((s.id for s in data))

    def test_deterministic_for_seed(self):
        a = build_pretrain_dataset(self._corpus(), CorruptionConfig(seed=9))
        b = build_pretrain_dataset(self._corpus(), CorruptionConfig(seed=9))
        assert a == b
        c = build_pretrain_dataset(self._corpus(), CorruptionConfig(seed=10))
        assert a != c

    def test_labels_match_edits(self):
        data = build_pretrain_dataset(self._corpus(), CorruptionConfig(seed=1))
        for s in data:
            assert (s.label == LABEL_CORRUPTED) == bool(s.edits)
            if "#c" not in s.id:
                assert s.label == LABEL_ORIGINAL


class TestSerialization:
    def test_round_trip(self):
        ids, mask = sample(5)
        s = corrupt_once("x", ids, mask, CorruptionConfig(replace_prob=1.0), make_rng(0, "t"))
        assert labeled_from_json(labeled_to_json(s)) == s

    def test_read_stream(self):
        ids, mask = sample(2)
        s = LabeledSequence(id="a", ids=tuple(ids), break_mask=tuple(mask))
        text = labeled_to_json(s) + "\n\n" + labeled_to_json(s) + "\n"
        assert read_labeled(io.StringIO(text)) == [s, s]

    @pytest.mark.parametrize("label, edits", [
        ("1", [[2, 0, 1]]), (1.9, [[2, 0, 1]]), (True, [[2, 0, 1]]), (1, [[2, True, 2]]),
        (1, [[2.0, 0, 1]]), (1, [[2, 0]]), (1, [2, 0, 1]),
    ], ids=["label-string", "label-fraction", "label-bool", "edit-class-bool",
            "edit-position-float", "edit-pair", "edit-not-array"])
    def test_non_integer_label_or_edit_rejected(self, label, edits):
        # JSON integers only, as the token ids; nothing is coerced.
        line = json.dumps({"id": "a", "ids": [2, 8, 4, 9], "break_mask": [False, False, True, False],
                           "label": label, "edits": edits})
        with pytest.raises(DataError, match="must be"):
            labeled_from_json(line)

    def test_inconsistent_label_rejected(self):
        # The label follows from the edits; a file that says otherwise is bad data.
        for label, edits in ((1, []), (0, [[2, 0, 1]]), (2, [])):
            line = json.dumps({"id": "a", "ids": [2, 8, 4, 9], "break_mask": [False, False, True, False],
                               "label": label, "edits": edits})
            with pytest.raises(DataError, match="label inconsistent with edit list"):
                labeled_from_json(line)
