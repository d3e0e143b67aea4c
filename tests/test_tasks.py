"""Training pipelines: pretraining, fine-tuning, prediction contracts."""
import dataclasses
import io
import math
import multiprocessing
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from conftest import blas_threads
from gradcheck import grad_check
from hypothesis import given, settings, strategies as st

from breakscore.alignment import BreakClass
from breakscore.checkpoint import N_CLASSES, Checkpoint, param_shapes
from breakscore.corruption import (
    LABEL_CORRUPTED,
    CorruptionConfig,
    LabeledSequence,
    build_pretrain_dataset,
)
from breakscore.exceptions import DataError
from breakscore.nn.bilstm import BiLstmConfig
from breakscore.nn.encoder import EncoderConfig, encoder_forward
from breakscore.nn.functional import batched_cross_entropy, init_params
from breakscore.ranks import Rank, rank_to_class
from breakscore.rngs import make_rng
from breakscore import metrics, shards, tasks
from breakscore.cli import main
from breakscore.tasks import (
    RatedSample,
    TrainConfig,
    _checked_logits,
    _pad_batch,
    _token_batches,
    finetune,
    predict_finegrained,
    predict_overall,
    pretrain_rbtd,
    rated_from_json,
    rated_to_json,
    read_rated,
)
from breakscore.vocab import BR_BASE_ID, CLS_ID, Vocabulary, break_flags


def small_cfg(vocab_size):
    return EncoderConfig(
        vocab_size=vocab_size, d_model=16, n_heads=2, n_layers=1, ffn_dim=32,
        max_len=32, dropout_prob=0.0,
    )


def toy_vocab(n_words=4):
    return Vocabulary(word_to_id={f"w{i}": 8 + i for i in range(n_words)})


def logits_of(params, kind, cfg, seqs):
    """`_checked_logits` of each id sequence under `params` as a `kind`
    checkpoint of model `cfg`."""
    ckpt = Checkpoint(kind=kind, model_cfg=cfg, vocab=toy_vocab(), seed=0, params=params)
    return _checked_logits(ckpt, kind, seqs)


def one_row_batches(params, kind, cfg, seqs):
    """`logits_of` with a budget of one token, so each sample is a batch of its own."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tasks, "PREDICT_TOKENS", 1)
        return logits_of(params, kind, cfg, seqs)


def encoded(word_ids, breaks):
    """[CLS] w b w b w ... as a tuple of ids."""
    ids = [CLS_ID, word_ids[0]]
    for b, w in zip(breaks, word_ids[1:]):
        ids += [BR_BASE_ID + b, w]
    return tuple(ids)


class TestRatedSample:
    def test_fine_length_invariant(self):
        ids = encoded([8, 9], [0])
        RatedSample(id="a", ids=ids, fine=(Rank.GREAT,))
        with pytest.raises(DataError):
            RatedSample(id="a", ids=ids, fine=(Rank.GREAT, Rank.POOR))

    @pytest.mark.parametrize("bad_ids", [(2, "x"), (2, -1), (2, 1.5), (2, None), (2, True)])
    @pytest.mark.parametrize("cls", [RatedSample, LabeledSequence])
    def test_token_ids_are_non_negative_ints(self, cls, bad_ids):
        # Checked when a record is read, not as a traceback from batch padding.
        with pytest.raises(DataError, match="token ids"):
            cls(id="a", ids=bad_ids)

    def test_json_round_trip(self):
        ids = encoded([8, 9, 10], [1, 3])
        s = RatedSample(
            id="a", ids=ids, overall=Rank.FAIR,
            fine=(Rank.GREAT, Rank.POOR),
        )
        assert rated_from_json(rated_to_json(s)) == s

    def test_optional_labels_survive(self):
        ids = encoded([8, 9], [0])
        s = RatedSample(id="a", ids=ids)
        got = rated_from_json(rated_to_json(s))
        assert got.overall is None and got.fine is None

    def test_read_rated_reports_line(self):
        with pytest.raises(Exception, match="line 2"):
            read_rated(io.StringIO('{"id":"a","ids":[2,8],"break_mask":[false,false]}\n{"x":1}\n'))


class TestCut:
    """A record cut to n tokens keeps their labels: the fine ranks of the
    breaks among them, and the edits among them, which decide its label."""

    @settings(max_examples=200, deadline=None)
    @given(breaks=st.lists(st.integers(0, 3), max_size=14), n=st.integers(2, 32), data=st.data())
    def test_cut_keeps_the_prefix_and_its_labels(self, breaks, n, data):
        ids = encoded([8 + i % 4 for i in range(len(breaks) + 1)], breaks)
        positions = [i for i, b in enumerate(break_flags(ids)) if b]
        fine = tuple(data.draw(st.lists(st.sampled_from(list(Rank)), min_size=len(positions),
                                        max_size=len(positions))))
        rated = RatedSample(id="a", ids=ids, fine=fine).cut(n)
        assert rated.ids == ids[:n]
        assert len(rated.fine) == sum(break_flags(ids[:n]))
        assert rated.fine == fine[: len(rated.fine)]

        edited = data.draw(st.lists(st.sampled_from(positions), unique=True) if positions
                           else st.just([]))
        # Each edit names the class its break id holds, and another one it replaced.
        held = {pos: BreakClass(ids[pos] - BR_BASE_ID) for pos in edited}
        edits = tuple((pos, BreakClass((held[pos] + 1) % 4), held[pos]) for pos in sorted(edited))
        labeled = LabeledSequence(id="a", ids=ids, edits=edits).cut(n)
        assert labeled.ids == ids[:n]
        assert labeled.edits == tuple(e for e in edits if e[0] < n)
        assert (labeled.label == LABEL_CORRUPTED) == bool(labeled.edits)


class TestPadBatch:
    def test_padding_and_masks(self):
        a = encoded([8, 9], [0])
        b = encoded([8, 9, 10], [1, 2])
        ids, pad_mask, break_mask = _pad_batch([a, b])
        assert ids.shape == (2, 6)
        assert pad_mask[0].tolist() == [True] * 4 + [False] * 2
        assert ids[0, 4:].tolist() == [0, 0]
        assert break_mask[0].tolist() == [False, False, True, False, False, False]   # pads are not
        assert break_mask[1].tolist() == [False, False, True, False, True, False]

    def test_max_len_truncates(self):
        # The task cuts a record to max_len; the batch pads what is left.
        ids = encoded([8] * 10, [0] * 9)
        [s] = tasks.cut_to_max_len([RatedSample(id="a", ids=ids)], "overall",
                                   dataclasses.replace(small_cfg(12), max_len=7))
        ids, pad_mask, _ = _pad_batch([s.ids])
        assert ids.shape == (1, 7) and pad_mask.all()


class TestTrainBatches:
    """`_train` batches: length-bucketed, every sample once per epoch, seeded."""

    def _mixed(self, n=96):
        # 2 to 30 words; the first two word ids make every sample unique.
        rng = make_rng(5, "mixed-train")
        out = []
        for i in range(n):
            n_words = 2 + (i * 7) % 29
            word_ids = [8 + i % 50, 8 + i // 50]
            word_ids += [8 + int(rng.integers(50)) for _ in range(n_words - 2)]
            ids = encoded(word_ids, [int(rng.integers(4)) for _ in range(n_words - 1)])
            out.append(RatedSample(id=f"m{i}", ids=ids, overall=list(Rank)[i % 3]))
        return out

    def _recorded_batches(self, monkeypatch, dataset, seed):
        batches, pad = [], []

        def recording(seqs):
            out = _pad_batch(seqs)
            batches.append(list(seqs))
            pad.append(out[1])
            return out

        monkeypatch.setattr(tasks, "_pad_batch", recording)
        # Whole batches: a split batch pads each of its shards on its own.
        monkeypatch.setattr(shards, "SHARD_TOKENS", 10**9)
        cfg = EncoderConfig(vocab_size=64, d_model=16, n_heads=2, n_layers=1, ffn_dim=32,
                            max_len=64, dropout_prob=0.0)
        tcfg = TrainConfig(batch_size=8, epochs=2, lr=1e-3, seed=seed)
        finetune(dataset, None, tcfg, "overall", model_cfg=cfg, vocab=toy_vocab(56))
        return batches, pad

    def test_every_sample_once_per_epoch_and_seeded(self, monkeypatch):
        dataset = self._mixed()
        batches, _ = self._recorded_batches(monkeypatch, dataset, seed=4)
        per_epoch = len(dataset) // 8
        assert len(batches) == 2 * per_epoch
        epochs = [batches[:per_epoch], batches[per_epoch:]]
        for epoch in epochs:
            assert sorted(ids for batch in epoch for ids in batch) == sorted(s.ids for s in dataset)
        assert epochs[0] != epochs[1]   # batch order is still drawn at random
        again, _ = self._recorded_batches(monkeypatch, dataset, seed=4)
        assert again == batches
        other, _ = self._recorded_batches(monkeypatch, dataset, seed=5)
        assert other != batches

    def test_batches_hold_similar_lengths(self, monkeypatch):
        _, pad = self._recorded_batches(monkeypatch, self._mixed(), seed=4)
        real = sum(int(m.sum()) for m in pad)
        padded = sum(m.size for m in pad)
        assert real / padded >= 0.9

    def test_bilstm_trains_and_predicts_on_every_token_past_128(self, monkeypatch):
        # A Bi-LSTM reads any length: no token of a 150-token record is cut.
        padded = []

        def recording(seqs):
            out = _pad_batch(seqs)
            padded.append(out[1].sum(axis=1).tolist())
            return out

        monkeypatch.setattr(tasks, "_pad_batch", recording)
        monkeypatch.setattr(shards, "SHARD_TOKENS", 10**9)
        ids = encoded([8 + i % 4 for i in range(75)], [i % 4 for i in range(74)])
        sample = RatedSample(id="long", ids=ids,
                             fine=tuple(list(Rank)[i % 3] for i in range(74)))
        ckpt = finetune([sample], None, TrainConfig(batch_size=1, epochs=1, lr=1e-3), "fine",
                        model_cfg=BiLstmConfig(vocab_size=12, embed_dim=8, hidden_size=8),
                        vocab=toy_vocab())
        assert len(predict_finegrained(ckpt, [ids])[0]) == 74
        assert padded == [[150], [150]]   # one train step, one prediction

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_fine_batches_without_breaks_are_skipped(self, model):
        # Bucketing puts the one-word items (no break, so no fine row) in one
        # batch of their own; it has nothing to learn from and is skipped.
        dataset = [RatedSample(id=f"one{i}", ids=(CLS_ID, 8 + i),
                               fine=()) for i in range(3)]
        dataset += TestFinetuneFinegrained()._dataset(6)
        cfg = small_cfg(12) if model == "encoder" else BiLstmConfig(vocab_size=12, embed_dim=8,
                                                                    hidden_size=8)
        tcfg = TrainConfig(batch_size=3, epochs=3, lr=1e-3, seed=0)
        ckpt = finetune(dataset, None, tcfg, "fine", model_cfg=cfg, vocab=toy_vocab())
        losses = ckpt.extra["epoch_losses"]
        assert len(losses) == 3 and np.isfinite(losses).all()

    def test_no_fine_target_at_all_rejected(self):
        dataset = [RatedSample(id=f"one{i}", ids=(CLS_ID, 8 + i),
                               fine=()) for i in range(3)]
        with pytest.raises(DataError, match="no sample"):
            finetune(dataset, None, TrainConfig(batch_size=2, epochs=1), "fine",
                     model_cfg=small_cfg(12), vocab=toy_vocab())


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"epochs": 0}, {"lr": 0.0}, {"lr": -1e-4},
        {"lr": float("nan")}, {"lr": float("inf")},
    ])
    def test_rejected_up_front(self, kwargs):
        with pytest.raises(DataError):
            TrainConfig(**kwargs)

    def test_bilstm_reads_any_length(self):
        cfg = BiLstmConfig(vocab_size=12)
        assert cfg.max_len > 10**9 and "max_len" not in dataclasses.asdict(cfg)


def separable_corpus(n=64):
    """Class fully determined by the break token at the single break site."""
    out = []
    for i in range(n):
        cls = i % 2
        out.append((f"s{i}", encoded([8, 9], [3 if cls else 0]), cls))
    return out


class TestPretrainRbtd:
    def _dataset(self):
        rng = make_rng(0, "data")
        corpus = []
        for i in range(40):
            word_ids = [8 + int(rng.integers(4)) for _ in range(5)]
            corpus.append((f"u{i}", list(encoded(word_ids, [0, 0, 2, 3]))))
        return build_pretrain_dataset(corpus, CorruptionConfig(seed=0))

    def test_report_and_checkpoint_shape(self):
        data = self._dataset()
        tcfg = TrainConfig(batch_size=16, epochs=1, lr=1e-3, seed=0)
        ckpt, report = pretrain_rbtd(data, tcfg, small_cfg(12), toy_vocab())
        assert ckpt.kind == "rbtd" and ckpt.n_classes == 2
        assert "head_w" in ckpt.params
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["epoch_losses"]) == 1

    @pytest.mark.parametrize("one_class", [True, False])
    def test_warns_when_every_held_out_prediction_is_one_class(self, monkeypatch, caplog,
                                                              one_class):
        def logits(ckpt, kind, seqs):
            return [np.array([i % 2 and not one_class, 0.5]) for i in range(len(seqs))]

        monkeypatch.setattr(tasks, "_checked_logits", logits)
        pretrain_rbtd(self._dataset(), TrainConfig(batch_size=16, epochs=1), small_cfg(12),
                      toy_vocab())
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == one_class * ["every held-out discriminator prediction is corrupted: "
                                        "the model scores as a constant predictor"]

    def test_deterministic(self):
        data = self._dataset()
        tcfg = TrainConfig(batch_size=16, epochs=1, seed=7)
        a, _ = pretrain_rbtd(data, tcfg, small_cfg(12), toy_vocab())
        b, _ = pretrain_rbtd(data, tcfg, small_cfg(12), toy_vocab())
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_batched_prediction_matches_one_at_a_time(self, model):
        # Samples are predicted in padded batches, reordered by length; the
        # logits must come back in input order and equal one-at-a-time ones,
        # per sequence for the sequence heads and per break for the fine head.
        rng = make_rng(2, "mixed")
        seqs = []
        for n_words in (2, 7, 3, 12, 5, 9, 2, 4, 6, 10, 3, 8):
            word_ids = [8 + int(rng.integers(4)) for _ in range(n_words)]
            seqs.append(encoded(word_ids, [int(rng.integers(4)) for _ in range(n_words - 1)]))
        if model == "encoder":
            cfg = small_cfg(12)
        else:
            cfg = BiLstmConfig(vocab_size=12, embed_dim=8, hidden_size=8)
        params = init_params(cfg.param_shapes(), make_rng(0, "init"))
        # Scale the 0.02-std init up so samples' representations, and so
        # their classes, differ; layer-norm gains stay at one.
        params = {k: v if k.endswith("_g") else v * 25 for k, v in params.items()}
        hdim = 16
        for kind, rows_per_seq in (
            ("rbtd", [1] * len(seqs)), ("overall", [1] * len(seqs)),
            ("fine", [sum(break_flags(ids)) for ids in seqs]),
        ):
            n_classes = N_CLASSES[kind]
            params["head_w"] = rng.normal(size=(hdim, n_classes)).astype(np.float32)
            params["head_b"] = np.zeros(n_classes, dtype=np.float32)
            # Centre the logits so that the argmax varies across samples.
            first = one_row_batches(params, kind, cfg, seqs)
            params["head_b"] = -np.concatenate([np.atleast_2d(l) for l in first]).mean(axis=0)
            single = one_row_batches(params, kind, cfg, seqs)
            batched = logits_of(params, kind, cfg, seqs)
            assert [len(np.atleast_2d(l)) for l in single] == rows_per_seq
            for a, b in zip(single, batched, strict=True):
                np.testing.assert_allclose(b, a, rtol=1e-5, atol=1e-5)
                np.testing.assert_array_equal(np.argmax(b, axis=-1), np.argmax(a, axis=-1))
            classes = np.concatenate([np.atleast_2d(l) for l in single]).argmax(axis=1)
            assert len(set(classes.tolist())) >= 2   # classes differ, so the check has teeth

    def test_single_label_rejected(self):
        data = [s for s in self._dataset() if s.label == 0]
        with pytest.raises(DataError):
            pretrain_rbtd(data, TrainConfig(), small_cfg(12), toy_vocab())

    def test_labels_count_only_edits_within_max_len(self, monkeypatch, caplog):
        # At max_len 16 the model reads a 23-token sample's first 16 tokens, so
        # a sample whose every edit lies past them trains, and is scored on
        # the held-out split, as an original. The warning counts those samples
        # over the whole set, held-out ones included.
        rng = make_rng(1, "long")
        corpus = []
        for i in range(40):
            word_ids = [8 + int(rng.integers(4)) for _ in range(12)]
            breaks = [int(rng.integers(4)) for _ in range(11)]
            corpus.append((f"u{i}", list(encoded(word_ids, breaks))))
        data = build_pretrain_dataset(corpus, CorruptionConfig(seed=0))
        # The first 16 tokens differ from the original's where an edit lies among them.
        read = {s.ids[:16]: int(any(pos < 16 for pos, _, _ in s.edits)) for s in data}
        relabeled = sum(s.label == LABEL_CORRUPTED and not read[s.ids[:16]] for s in data)
        assert relabeled >= 10

        trained, held = [], []
        real_train, real_predict = tasks._train, tasks._checked_logits
        real_confusion = metrics.confusion

        def train(samples, *args, **kwargs):
            trained.extend((ids, target) for ids, (target,) in samples)
            return real_train(samples, *args, **kwargs)

        def predict(ckpt, kind, seqs):
            held.append([read[ids] for ids in seqs])
            return real_predict(ckpt, kind, seqs)

        def confusion(pairs, n_classes):
            pairs = list(pairs)
            held.append([t for t, _ in pairs])
            return real_confusion(pairs, n_classes)

        monkeypatch.setattr(tasks, "_train", train)
        monkeypatch.setattr(tasks, "_checked_logits", predict)
        monkeypatch.setattr(metrics, "confusion", confusion)
        tcfg = TrainConfig(batch_size=16, epochs=1, lr=1e-3, seed=0)
        cfg = dataclasses.replace(small_cfg(12), max_len=16)
        pretrain_rbtd(data, tcfg, cfg, toy_vocab())
        assert all(len(ids) == 16 for ids, _ in trained)
        assert [target for _, target in trained] == [read[ids] for ids, _ in trained]
        assert held[0] == held[1] and len(held[0]) == 8
        assert "160 of 160 rbtd samples are longer than max_len 16" in caplog.text
        assert f"; {relabeled} of them lose every edit and are labeled original" in caplog.text

        # Within two tokens no break is read: nothing is left to discriminate.
        with pytest.raises(DataError, match="max_len 2"):
            pretrain_rbtd(data, tcfg, dataclasses.replace(cfg, max_len=2), toy_vocab())


class TestFinetuneOverall:
    def test_overfits_separable_data(self):
        dataset = [
            RatedSample(id=i, ids=ids, overall=Rank.GREAT if c else Rank.POOR)
            for i, ids, c in separable_corpus(64)
        ]
        tcfg = TrainConfig(batch_size=16, epochs=30, lr=3e-3, seed=0)
        ckpt = finetune(dataset, None, tcfg, "overall", model_cfg=small_cfg(12), vocab=toy_vocab())
        preds, _ = predict_overall(ckpt, [s.ids for s in dataset])
        acc = np.mean([p == s.overall for p, s in zip(preds, dataset)])
        assert acc == 1.0
        assert ckpt.extra["epoch_losses"][-1] < ckpt.extra["epoch_losses"][0]

    def test_generalizes_to_held_out_separable_data(self):
        items = separable_corpus(80)
        dataset = [
            RatedSample(id=i, ids=ids, overall=Rank.GREAT if c else Rank.POOR)
            for i, ids, c in items
        ]
        tcfg = TrainConfig(batch_size=16, epochs=30, lr=3e-3, seed=1)
        ckpt = finetune(dataset[:64], None, tcfg, "overall", model_cfg=small_cfg(12),
                        vocab=toy_vocab())
        held = dataset[64:]
        preds, _ = predict_overall(ckpt, [s.ids for s in held])
        acc = np.mean([p == s.overall for p, s in zip(preds, held)])
        assert acc == 1.0

    def test_bilstm_model_trains(self):
        dataset = [
            RatedSample(id=i, ids=ids, overall=Rank.GREAT if c else Rank.POOR)
            for i, ids, c in separable_corpus(32)
        ]
        tcfg = TrainConfig(batch_size=8, epochs=60, lr=1e-2, seed=0)
        cfg = BiLstmConfig(vocab_size=12, embed_dim=8, hidden_size=8)
        ckpt = finetune(dataset, None, tcfg, "overall", model_cfg=cfg, vocab=toy_vocab())
        preds, _ = predict_overall(ckpt, [s.ids for s in dataset])
        acc = np.mean([p == s.overall for p, s in zip(preds, dataset)])
        assert acc == 1.0

    def test_missing_labels_rejected(self):
        ids = encoded([8, 9], [0])
        with pytest.raises(DataError):
            finetune(
                [RatedSample(id="a", ids=ids)], None, TrainConfig(), "overall",
                model_cfg=small_cfg(12), vocab=toy_vocab(),
            )

    def test_init_mismatch_rejected(self):
        data = [
            RatedSample(id=i, ids=ids, overall=Rank.GREAT if c else Rank.POOR)
            for i, ids, c in separable_corpus(8)
        ]
        corpus = [(s.id, list(s.ids)) for s in data]
        pre = build_pretrain_dataset(corpus, CorruptionConfig(seed=0))
        ckpt, _ = pretrain_rbtd(pre, TrainConfig(batch_size=8, epochs=1), small_cfg(12), toy_vocab())
        other_cfg = small_cfg(13)
        with pytest.raises(DataError, match="config"):
            finetune(data, ckpt, TrainConfig(), "overall", model_cfg=other_cfg, vocab=toy_vocab())


class TestFinetuneFinegrained:
    def _dataset(self, n=48):
        # Per-position label equals the break class band: br0/br1 -> Great,
        # br2 -> Fair, br3 -> Poor. Fully learnable from the token itself.
        band = {0: Rank.GREAT, 1: Rank.GREAT, 2: Rank.FAIR, 3: Rank.POOR}
        rng = make_rng(1, "fine-data")
        out = []
        for i in range(n):
            breaks = [int(rng.integers(4)) for _ in range(3)]
            word_ids = [8 + int(rng.integers(4)) for _ in range(4)]
            ids = encoded(word_ids, breaks)
            out.append(
                RatedSample(
                    id=f"f{i}", ids=ids,
                    fine=tuple(band[b] for b in breaks),
                )
            )
        return out

    def test_learns_positionwise_rule(self):
        dataset = self._dataset()
        tcfg = TrainConfig(batch_size=16, epochs=30, lr=3e-3, seed=0)
        ckpt = finetune(dataset, None, tcfg, "fine", model_cfg=small_cfg(12), vocab=toy_vocab())
        hits = total = 0
        preds_all = predict_finegrained(ckpt, [s.ids for s in dataset])
        for s, preds in zip(dataset, preds_all, strict=True):
            assert len(preds) == len(s.fine)
            hits += sum(p == t for p, t in zip(preds, s.fine))
            total += len(s.fine)
        assert hits / total == 1.0

    def test_loss_only_at_break_positions(self):
        # Moving a word id at a non-break position must not change fine logits
        # ordering constraints; check the API refuses misaligned labels instead.
        ids = encoded([8, 9], [0])
        with pytest.raises(DataError):
            finetune(
                [RatedSample(id="a", ids=ids)], None, TrainConfig(), "fine",
                model_cfg=small_cfg(12), vocab=toy_vocab(),
            )

    def test_prediction_kind_checked(self):
        dataset = self._dataset(8)
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=0)
        ckpt = finetune(dataset, None, tcfg, "fine", model_cfg=small_cfg(12), vocab=toy_vocab())
        with pytest.raises(DataError):
            predict_overall(ckpt, [dataset[0].ids])

    def test_out_of_vocab_sample_rejected_at_predict(self):
        dataset = self._dataset(8)
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=0)
        ckpt = finetune(dataset, None, tcfg, "fine", model_cfg=small_cfg(12), vocab=toy_vocab())
        bad_ids = tuple(list(dataset[0].ids[:-1]) + [99])
        with pytest.raises(DataError, match="vocabulary"):
            predict_finegrained(ckpt, [bad_ids])


class TestBatchedPrediction:
    """`score` predicts many samples per call, cut to a token budget; a
    cross-validation fold predicts its held-out items through the same path."""

    @staticmethod
    def mixed_seqs(n=40):
        rng = make_rng(5, "budget")
        seqs = []
        for _ in range(n):
            n_words = 1 + int(rng.integers(16))   # up to 31 tokens; one word has no break
            word_ids = [8 + int(rng.integers(4)) for _ in range(n_words)]
            seqs.append(encoded(word_ids, [int(rng.integers(4)) for _ in range(n_words - 1)]))
        return seqs

    def test_token_batches_cover_every_sample_within_the_budget(self, monkeypatch):
        seqs = self.mixed_seqs() + [encoded([8] * 40, [1] * 39)]   # 80 tokens, over 64
        monkeypatch.setattr(tasks, "PREDICT_TOKENS", 64)
        batches = tasks._token_batches(seqs)
        assert sorted(i for b in batches for i in b) == list(range(len(seqs)))
        lengths = [[len(seqs[i]) for i in b] for b in batches]
        assert [l for b in lengths for l in b] == sorted(map(len, seqs))
        for b in lengths:
            assert len(b) == 1 or len(b) * max(b) <= 64
        assert lengths[-1] == [80]   # a sample over the budget is a batch of one
        assert tasks._token_batches([]) == []

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_batch_entry_points_match_one_element_calls(self, model):
        seqs = self.mixed_seqs()
        if model == "encoder":
            cfg = small_cfg(12)
        else:
            cfg = BiLstmConfig(vocab_size=12, embed_dim=8, hidden_size=8)
        core = init_params(cfg.param_shapes(), make_rng(0, "init"))
        assert len(tasks._token_batches(seqs)) >= 2
        # Scaled-up weights and a centred head make the predicted ranks differ.
        core = {k: v if k.endswith("_g") else v * 25 for k, v in core.items()}
        rng = make_rng(1, "head")
        ckpts = {}
        for kind in ("overall", "fine"):
            params = dict(core, head_w=rng.normal(size=(16, 3)).astype(np.float32),
                          head_b=np.zeros(3, dtype=np.float32))
            logits = one_row_batches(params, kind, cfg, seqs)
            params["head_b"] = -np.concatenate([np.atleast_2d(l) for l in logits]).mean(axis=0)
            ckpts[kind] = Checkpoint(kind=kind, model_cfg=cfg, vocab=toy_vocab(), seed=0,
                                     params=params, init_from=None)

        ranks, probs = predict_overall(ckpts["overall"], seqs)
        assert probs.shape == (len(seqs), 3)
        for seq, rank, row in zip(seqs, ranks, probs, strict=True):
            one_ranks, one_probs = predict_overall(ckpts["overall"], [seq])
            assert [rank] == one_ranks and one_probs.shape == (1, 3)
            np.testing.assert_allclose(row, one_probs[0], rtol=1e-5, atol=1e-6)
        assert len(set(ranks)) >= 2

        fine = predict_finegrained(ckpts["fine"], seqs)
        assert fine == [predict_finegrained(ckpts["fine"], [seq])[0] for seq in seqs]
        assert [len(r) for r in fine] == [sum(break_flags(ids)) for ids in seqs]
        assert len({r for rs in fine for r in rs}) >= 2

    def test_empty_batch(self):
        cfg = small_cfg(12)
        params = dict(init_params(cfg.param_shapes(), make_rng(0, "init")),
                      head_w=np.zeros((16, 3), dtype=np.float32), head_b=np.zeros(3, np.float32))
        ckpt = Checkpoint(kind="overall", model_cfg=cfg, vocab=toy_vocab(), seed=0,
                          params=params, init_from=None)
        ranks, probs = predict_overall(ckpt, [])
        assert ranks == [] and probs.shape == (0, 3)
        assert predict_finegrained(dataclasses.replace(ckpt, kind="fine"), []) == []


class TestHeadColumns:
    """`_head_rows` runs the encoder's last layer only at the columns the head
    reads: [CLS], or the break columns of the batch for the fine head. The
    encoder run at every column must give the same head rows."""

    @pytest.fixture(scope="class")
    def esl(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("synth")
        cfg = out / "run.yaml"
        cfg.write_text("seed: 11\nsynth: {n_sentences: 60}\n")
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
        vocab = Vocabulary.from_lines((out / "vocab.tsv").read_text().splitlines())
        with open(out / "esl.jsonl") as f:
            return read_rated(f), vocab

    @pytest.mark.parametrize("n_layers, max_len", [(2, 128), (0, 128), (2, 16)])
    def test_fine_cut_matches_all_rows_on_a_synthesized_file(self, esl, n_layers, max_len):
        # Scaled-up weights and a centred head make the ranks differ. At
        # max_len 16 most records are cut, so their breaks past it get no rank.
        samples, vocab = esl
        seqs = [s.ids for s in samples] + [encoded([8], [])]   # a one-word item has no break
        cfg = EncoderConfig(vocab_size=vocab.size, d_model=32, n_heads=4, n_layers=n_layers,
                            ffn_dim=64, max_len=max_len)
        params = {k: v if k.endswith("_g") else v * 25
                  for k, v in init_params(cfg.param_shapes(), make_rng(11, "init")).items()}
        params["head_w"] = make_rng(11, "head").normal(size=(32, 3)).astype(np.float32)
        params["head_b"] = np.zeros(3, dtype=np.float32)
        ckpt = Checkpoint(kind="fine", model_cfg=cfg, vocab=vocab, seed=11, params=params)
        params["head_b"] = -np.concatenate(_checked_logits(ckpt, "fine", seqs)).mean(axis=0)
        cut = _checked_logits(ckpt, "fine", seqs)
        cut_ranks = predict_finegrained(ckpt, seqs)
        # The reference: the same batches, every column computed.
        seqs_read = [ids[:max_len] for ids in seqs]
        full = [None] * len(seqs)
        for batch in _token_batches(seqs_read):
            ids, pad_mask, break_mask = _pad_batch([seqs_read[i] for i in batch])
            hidden, _ = encoder_forward(ids, pad_mask, params, cfg, positions=slice(None))
            logits = hidden[break_mask] @ params["head_w"] + params["head_b"]
            for i, rows in zip(batch, np.split(logits, np.cumsum(break_mask.sum(axis=1))[:-1]),
                               strict=True):
                full[i] = rows
        full_ranks = [tasks._ranks(rows) for rows in full]

        assert [len(r) for r in cut_ranks] == [sum(break_flags(ids[:max_len])) for ids in seqs]
        for got, want in zip(cut, full, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
        assert cut_ranks == full_ranks
        assert len({r for ranks in cut_ranks for r in ranks}) == 3

    def test_batch_without_break_columns(self):
        cfg = small_cfg(12)
        params = dict(init_params(cfg.param_shapes(), make_rng(0, "init")),
                      head_w=np.ones((16, 3), dtype=np.float32), head_b=np.zeros(3, np.float32))
        ckpt = Checkpoint(kind="fine", model_cfg=cfg, vocab=toy_vocab(), seed=0,
                          params=params, init_from=None)
        assert predict_finegrained(ckpt, [encoded([8], []), encoded([9], [])]) == [[], []]

    @pytest.mark.parametrize("net", [2, 0, "bilstm"])   # encoder layers, or the Bi-LSTM
    @pytest.mark.parametrize("kind", ["fine", "overall"])
    def test_gradients_against_finite_differences(self, kind, net):
        # The train step's path, from the padded batch through `_head_rows`
        # and the head to the loss, and back. The Bi-LSTM's overall head reads
        # the masked mean, over rows of three lengths.
        if net == "bilstm":
            cfg = BiLstmConfig(vocab_size=12, embed_dim=6, hidden_size=5)
        else:
            cfg = EncoderConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=net,
                                ffn_dim=16, max_len=16)
        params = init_params(param_shapes(kind, cfg), make_rng(0, "init"))
        # Away from linear, and for the Bi-LSTM's small init, from gradients
        # as small as the finite differences' rounding.
        params = {k: v * 20 if net == "bilstm" or k.startswith("layer") and v.ndim == 2 else v
                  for k, v in params.items()}
        ids, pad_mask, break_mask = _pad_batch(
            [encoded([8, 9, 10, 11], [0, 3, 1]), encoded([9, 8], [2]), encoded([10], [])])
        targets = np.arange(3 if kind == "overall" else 4) % 3

        def loss_fn(p):
            rows, backward = tasks._head_rows(p, kind, cfg, ids, pad_mask, break_mask)
            loss, dlogits = batched_cross_entropy(rows @ p["head_w"] + p["head_b"], targets)
            grads = {"head_w": rows.T @ dlogits, "head_b": dlogits.sum(axis=0)}
            grads.update(backward(dlogits @ p["head_w"].T))
            return loss, grads

        assert grad_check(loss_fn, params, n_coords=40) < 1e-4


class TestShardedTraining:
    """With `SHARD_TOKENS` small, every batch of these tiny fixtures trains as
    two row shards. The bytes must not depend on whether shard 1 ran in the
    forked worker or in turn in the parent."""

    WORKER = shards.usable_cpus() >= 2 and blas_threads() is not None

    @pytest.fixture(autouse=True)
    def split_every_batch(self, monkeypatch):
        monkeypatch.setattr(shards, "SHARD_TOKENS", 1)

    def _both_ways(self, monkeypatch, train):
        """The parameters train() gives with the worker, and with one usable
        CPU, so that both shards run in the parent; they must be bitwise equal."""
        forks = []

        class CountedWorker(shards.ShardWorker):
            def __enter__(self):
                forks.append(self)
                return super().__enter__()

        monkeypatch.setattr(shards, "ShardWorker", CountedWorker)
        forked = train()
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        alone = train()
        assert len(forks) == (1 if self.WORKER else 0)
        assert forked.keys() == alone.keys()
        for k in forked:
            assert forked[k].tobytes() == alone[k].tobytes(), k
        return forked

    def test_open_worker_holds_a_cpu(self):
        # The worker itself may fork none: a daemon process has no children.
        before = shards.usable_cpus()
        with shards.ShardWorker(shards.usable_cpus, "test") as worker:
            worker.submit()
            assert worker.result() == 1
            assert shards.usable_cpus() == max(1, before - 1)
        assert shards.usable_cpus() == before

    @pytest.mark.skipif(not WORKER, reason="the fold worker needs two CPUs and a BLAS thread pin")
    @pytest.mark.parametrize("cpus, entries", [(2, 1), (4, 3)])
    def test_fold_worker_forks_no_nested_worker(self, monkeypatch, cpus, entries):
        # Every batch splits. On two CPUs, while cross-validation's fold worker
        # is open, neither process forks a shard worker; on four, the parent
        # forks one for each of its folds 0 and 2, the fold worker none. The
        # report is the serial one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        entered = multiprocessing.RawValue("i", 0)   # shared with the forked worker

        class CountedWorker(shards.ShardWorker):
            def __enter__(self):
                entered.value += 1
                return super().__enter__()

        monkeypatch.setattr(shards, "ShardWorker", CountedWorker)
        data = self._rated(18)
        tcfg = TrainConfig(batch_size=8, epochs=1, lr=1e-3, seed=0)

        def train_fn(items, fold_seed):
            ckpt = finetune(items, None, dataclasses.replace(tcfg, seed=int(fold_seed)), "overall",
                            model_cfg=self._model("encoder"), vocab=toy_vocab())
            return lambda s: [(rank_to_class(s.overall),
                               rank_to_class(predict_overall(ckpt, [s.ids])[0][0]))]

        labels = [rank_to_class(s.overall) for s in data]
        parallel = metrics.cross_validate(data, labels, train_fn, k=3, seed=1)
        assert entered.value == entries
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        assert metrics.cross_validate(data, labels, train_fn, k=3, seed=1) == parallel
        assert entered.value == entries

    @staticmethod
    def _rated(n=24, one_word=0):
        """Items with overall and fine labels, the first `one_word` of them
        one word long, so with no break to label."""
        out = [dataclasses.replace(s, overall=list(Rank)[i % 3])
               for i, s in enumerate(TestFinetuneFinegrained()._dataset(n))]
        return [RatedSample(id=f"one{i}", ids=(CLS_ID, 8 + i % 4),
                            overall=Rank.FAIR, fine=()) for i in range(one_word)] + out

    @staticmethod
    def _model(model):
        if model == "encoder":
            return dataclasses.replace(small_cfg(12), dropout_prob=0.1)
        return BiLstmConfig(vocab_size=12, embed_dim=8, hidden_size=8)

    def test_pretrain_same_with_and_without_worker(self, monkeypatch):
        data = TestPretrainRbtd()._dataset()
        tcfg = TrainConfig(batch_size=16, epochs=2, lr=1e-3, seed=3)
        cfg = self._model("encoder")
        self._both_ways(monkeypatch,
                        lambda: pretrain_rbtd(data, tcfg, cfg, toy_vocab())[0].params)

    @pytest.mark.parametrize("task", ["overall", "fine"])
    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_finetune_same_with_and_without_worker(self, monkeypatch, model, task):
        tcfg = TrainConfig(batch_size=8, epochs=2, lr=1e-3, seed=5)
        self._both_ways(monkeypatch, lambda: finetune(
            self._rated(), None, tcfg, task, model_cfg=self._model(model), vocab=toy_vocab(),
        ).params)

    def test_shards_cover_every_sample_once_per_epoch(self, monkeypatch):
        # Shards are contiguous rows of the batch, each padded on its own;
        # with one usable CPU both are padded in this process.
        padded = []

        def recording(seqs):
            padded.append(sorted(seqs))
            return _pad_batch(seqs)

        monkeypatch.setattr(tasks, "_pad_batch", recording)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        dataset = TestTrainBatches()._mixed(40)
        finetune(dataset, None, TrainConfig(batch_size=8, epochs=2, lr=1e-3, seed=4), "overall",
                 model_cfg=EncoderConfig(vocab_size=64, d_model=16, n_heads=2, n_layers=1,
                                         ffn_dim=32, max_len=64), vocab=toy_vocab(56))
        assert len(padded) == 2 * 2 * 40 // 8
        assert sorted(ids for shard in padded for ids in shard) == sorted(2 * [s.ids for s in dataset])
        assert all(len(shard) == 4 for shard in padded)

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_one_row_batches_leave_shard_1_empty(self, monkeypatch, model):
        # A one-row batch splits into that row and an empty shard, which adds
        # a zero gradient: the run is bitwise the unsplit one.
        tcfg = TrainConfig(batch_size=1, epochs=1, lr=1e-3, seed=2)

        def train():
            return finetune(self._rated(6), None, tcfg, "overall",
                            model_cfg=self._model(model), vocab=toy_vocab()).params

        split = self._both_ways(monkeypatch, train)
        monkeypatch.setattr(shards, "SHARD_TOKENS", 10**9)
        whole = train()
        for k in whole:
            assert split[k].tobytes() == whole[k].tobytes(), k

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_fine_shards_without_breaks_train(self, monkeypatch, model):
        # Bucketing puts the one-word items together, so some shards have no
        # break to label and add no gradient.
        tcfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=1)
        losses = []

        def train():
            ckpt = finetune(self._rated(12, one_word=6), None, tcfg, "fine",
                            model_cfg=self._model(model), vocab=toy_vocab())
            losses.append(ckpt.extra["epoch_losses"])
            return ckpt.params

        self._both_ways(monkeypatch, train)
        assert losses[0] == losses[1] and np.isfinite(losses[0]).all()

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_summed_shard_gradient_is_the_batch_gradient(self, monkeypatch, model):
        # Without dropout, a split batch's summed gradient equals the whole
        # batch's up to rounding. The one-word items give the two shards
        # unequal numbers of fine rows, so each shard's share must weigh it.
        cfg = dataclasses.replace(small_cfg(12), dropout_prob=0.0) if model == "encoder" \
            else self._model(model)

        class FirstStep(Exception):
            pass

        def record(p, g, m, v, t, lr):
            # The gradient row, cut back into named arrays in table order.
            shapes = param_shapes("fine", cfg)
            sizes = [math.prod(shape) for shape in shapes.values()]
            parts = np.split(g.copy(), np.cumsum(sizes)[:-1])
            raise FirstStep({k: a.reshape(shape) for (k, shape), a in zip(shapes.items(), parts)})

        monkeypatch.setattr(tasks, "adam_step", record)
        tcfg = TrainConfig(batch_size=15, epochs=1, seed=4)
        grads = []
        for threshold in (1, 10**9):
            monkeypatch.setattr(shards, "SHARD_TOKENS", threshold)
            with pytest.raises(FirstStep) as step:
                finetune(self._rated(12, one_word=3), None, tcfg, "fine", model_cfg=cfg,
                         vocab=toy_vocab())
            grads.append(step.value.args[0])
        split, whole = grads
        assert all(np.abs(g).max() > 0 for g in whole.values())
        for k in whole:
            np.testing.assert_allclose(split[k], whole[k], rtol=1e-4, atol=1e-7, err_msg=k)

    def test_pretrain_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Pretraining pins BLAS to one thread per process, so the thread count
        # the environment asks for does not move a bit of the checkpoint. Nor
        # does the allocator: a run that leaves glibc's default thresholds gets
        # other blocks back for its temporaries, so a read of an uninitialised
        # `np.empty` buffer would show here.
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "seed: 3\nsynth: {n_sentences: 150}\n"
            "encoder: {d_model: 64, n_heads: 4, n_layers: 2, ffn_dim: 128}\n"
            "train: {batch_size: 64, epochs: 1}\n"
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data)]) == 0
        assert main(["corrupt", "--config", str(cfg), "--in", str(data / "native.jsonl"),
                     "--vocab", str(data / "vocab.tsv"), "--out", str(tmp_path / "pre.jsonl")]) == 0
        cli = ["-m", "breakscore.cli"]
        default_malloc = ["-c", "import sys; from breakscore import cli, shards; "
                                "shards.keep_freed_memory = lambda: False; sys.exit(cli.main())"]
        out = {}
        for name, threads, entry in (("1", "1", cli), ("2", "2", cli),
                                     ("default-malloc", "2", default_malloc)):
            out[name] = tmp_path / f"rbtd-{name}.pbrk"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run(
                [sys.executable, *entry, "pretrain", "--config", str(cfg),
                 "--in", str(tmp_path / "pre.jsonl"), "--vocab", str(data / "vocab.tsv"),
                 "--out", str(out[name])],
                capture_output=True, text=True, env=env, timeout=300, check=False)
            assert proc.returncode == 0, proc.stderr
        assert out["1"].read_bytes() == out["2"].read_bytes() == out["default-malloc"].read_bytes()


class TestKeptFreedMemory:
    def test_second_finetune_takes_few_page_faults(self, monkeypatch):
        # With freed memory kept, a second identical run finds every block it
        # needs on the heap. At d_model 64 and batch 32 that run took 222-224
        # minor faults on a 2-vCPU Linux host; without the setting it took
        # 13.5k-15.5k, alone and after the CLI tests, because glibc gave each
        # step's temporaries back to the kernel and the next step faulted them
        # in again.
        if not shards.keep_freed_memory():
            pytest.skip("no glibc mallopt")
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)   # no worker
        data = TestTrainBatches()._mixed(96)
        cfg = EncoderConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, ffn_dim=128,
                            max_len=64)
        tcfg = TrainConfig(batch_size=32, epochs=1, lr=1e-3, seed=0)
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            finetune(data, None, tcfg, "overall", model_cfg=cfg, vocab=toy_vocab(56))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] < 2000, faults
