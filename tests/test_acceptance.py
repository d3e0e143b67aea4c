"""Acceptance criteria for the full pipeline.

Each test prints one PASS/FAIL line (visible with `pytest -s`). The heavier
criteria share session-scoped fixtures: one discriminator pretraining run
feeds both the learnability and the transfer experiments.
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from breakscore import baseline, corruption, metrics, synth, tasks
from breakscore.alignment import BreakClass, quantize
from breakscore.cli import make_trained_predictor
from breakscore.metrics import compute_metrics, confusion
from breakscore.nn.bilstm import BiLstmConfig, bilstm_backward, bilstm_forward
from breakscore.nn.encoder import EncoderConfig, encoder_backward, encoder_forward
from breakscore.nn.functional import batched_cross_entropy, init_params, trunc_normal
from breakscore.ranks import Rank, rank_to_class
from breakscore.rngs import make_rng
from breakscore.tasks import TrainConfig
from breakscore.vocab import build_vocab, encode
from gradcheck import grad_check

SEED = 11

# Operating point for the pretraining-transfer experiment.
PRETRAIN_SENTENCES = 2000
TRANSFER_ESL_ITEMS = 120
TRANSFER_EPOCHS = 18
TRANSFER_BATCH = 16
TRANSFER_LR = 3e-5


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="session")
def pretrain_bundle():
    """2000-sequence native corpus, vocab, and the pretrained discriminator."""
    scfg = synth.SynthConfig(n_sentences=PRETRAIN_SENTENCES, seed=SEED)
    native = synth.generate_native(scfg)
    vocab = build_vocab(native)
    enc_cfg = EncoderConfig(
        vocab_size=vocab.size, d_model=64, n_heads=4, n_layers=2, ffn_dim=128
    )
    dataset = corruption.build_pretrain_dataset(
        [(s.id, encode(s, vocab)) for s in native],
        corruption.CorruptionConfig(seed=SEED),
    )
    t0 = time.time()
    ckpt, rep = tasks.pretrain_rbtd(
        dataset, TrainConfig(seed=SEED), enc_cfg, vocab  # batch 64, 3 epochs, lr 1e-4
    )
    rep["elapsed"] = time.time() - t0
    return {
        "scfg": scfg, "native": native, "vocab": vocab, "enc_cfg": enc_cfg,
        "ckpt": ckpt, "report": rep, "n_augmented": len(dataset),
    }


# -- 1. quantizer exactness --------------------------------------------------

def test_quantizer_exactness():
    t0 = time.time()
    eps = 1e-9
    table = [
        (0.0, 0), (eps, 0), (0.010, 0), (0.010 + eps, 1),
        (0.050, 1), (0.050 + eps, 2), (0.200, 2), (0.200 + eps, 3), (10.0, 3),
    ]
    ok = all(quantize(gap) == BreakClass(cls) for gap, cls in table)
    # Dense scan against the closed-form banding.
    for gap in np.linspace(0.0, 0.5, 20001):
        want = 0 if gap <= 0.010 else 1 if gap <= 0.050 else 2 if gap <= 0.200 else 3
        if quantize(float(gap)) != want:
            ok = False
            break
    elapsed = time.time() - t0
    report(
        "quantizer-exactness", ok and elapsed < 1.0,
        f"boundary table + 20k-point scan, {elapsed:.2f}s",
    )


# -- 2. corruption statistics ------------------------------------------------

def test_corruption_statistics():
    t0 = time.time()
    n_breaks = 50
    ids = [2, 8] + [4, 8] * n_breaks
    corpus = [(f"u{i}", ids) for i in range(700)]
    cfg = corruption.CorruptionConfig(seed=SEED)
    data = corruption.build_pretrain_dataset(corpus, cfg)

    size_ok = len(data) == len(corpus) * (1 + cfg.copies_per_original)
    total = edited = 0
    labels_ok = same_class_ok = True
    for s in data:
        labels_ok &= (s.label == corruption.LABEL_CORRUPTED) == bool(s.edits)
        for pos, old, new in s.edits:
            same_class_ok &= old != new
        if "#c" in s.id:
            total += n_breaks
            edited += len(s.edits)
    rate = edited / total
    rate_ok = total >= 100_000 and abs(rate - 0.15) < 0.01
    elapsed = time.time() - t0
    report(
        "corruption-statistics",
        size_ok and labels_ok and same_class_ok and rate_ok and elapsed < 30,
        f"ratio {len(data)}/{len(corpus)}, rate {rate:.4f} over {total} breaks, {elapsed:.1f}s",
    )


# -- 3. gradient correctness -------------------------------------------------

def _encoder_case(rng_seed):
    rng = make_rng(rng_seed, "case")
    cfg = EncoderConfig(
        vocab_size=12,
        d_model=int(rng.choice([8, 16, 32])),
        n_heads=int(rng.choice([2, 4])),
        n_layers=int(rng.integers(1, 3)),
        ffn_dim=16,
        max_len=8,
        dropout_prob=0.0,
    )
    length = int(rng.integers(4, 9))
    ids = np.concatenate([[2], rng.integers(4, 12, size=length - 1)])[None, :]
    mask = np.ones_like(ids, dtype=bool)
    mask[0, -1] = length % 2 == 0  # exercise padding half the time
    return cfg, ids, mask


def test_gradient_correctness():
    t0 = time.time()
    worst = {}

    # Encoder core on randomized small configs.
    for i in range(2):
        cfg, ids, mask = _encoder_case(100 + i)
        params = init_params(cfg.param_shapes(), make_rng(i, "init"))
        probe = make_rng(i, "probe").normal(size=(1, ids.shape[1], cfg.d_model))

        def loss_fn(p):
            h, cache = encoder_forward(ids, mask, p, cfg)
            w = (probe * mask[..., None]).astype(h.dtype)
            return float((h * w).sum()), encoder_backward(w, cache)

        worst[f"encoder{i}"] = grad_check(loss_fn, params, n_coords=15, seed=i)

    # Bi-LSTM core.
    bcfg = BiLstmConfig(vocab_size=12, embed_dim=6, hidden_size=5)
    bparams = init_params(bcfg.param_shapes(), make_rng(0, "binit"))
    ids = np.array([[2, 8, 4, 9], [2, 10, 0, 0]])
    mask = ids != 0
    probe = make_rng(3, "probe").normal(size=(2, 4, 10))

    def bilstm_loss(p):
        h, cache = bilstm_forward(ids, mask, p, bcfg)
        w = (probe * mask[..., None]).astype(h.dtype)
        return float((h * w).sum()), bilstm_backward(w, p, cache)

    worst["bilstm"] = grad_check(bilstm_loss, bparams, n_coords=15, seed=3)

    # The heads through `tasks._head_rows`, the train step's path, so the
    # encoder computes its last layer only at the columns the head reads:
    # [CLS] for the sequence head (the discriminator/overall path: CLS pool +
    # linear + CE), the break columns for the token head (fine-grained path:
    # per-break-position linear + CE).
    cfg, _, _ = _encoder_case(200)
    case_rng = make_rng(200, "batch")
    hids = np.concatenate(
        [np.full((4, 1), 2), case_rng.integers(4, 12, size=(4, 6))], axis=1
    ).astype(np.int64)
    hmask = np.ones_like(hids, dtype=bool)
    hmask[1, -1] = hmask[3, -2:] = False

    def head_loss(kind, break_mask, targets):
        n_cols = int(break_mask.any(axis=0).sum()) if kind == "fine" else 1

        def cut_forward(*args, **kwargs):
            h, cache = encoder_forward(*args, **kwargs)
            assert h.shape[1] == n_cols   # only the columns the head reads
            return h, cache

        def loss_fn(p):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(tasks, "encoder_forward", cut_forward)
                states, backward = tasks._head_rows(p, kind, cfg, hids, hmask, break_mask)
            logits = states @ p["head_w"] + p["head_b"]
            loss, dlogits = batched_cross_entropy(logits, targets)
            grads = {"head_w": states.T @ dlogits, "head_b": dlogits.sum(axis=0)}
            grads.update(backward(dlogits @ p["head_w"].T))
            return loss, grads

        return loss_fn

    # Batched with mixed targets so no coordinate's gradient rests on a single
    # near-cancelling CLS vector, which would sink below finite-difference noise.
    seq_params = init_params(cfg.param_shapes(), make_rng(5, "init"))
    head_rng = make_rng(5, "head")
    seq_params["head_w"] = trunc_normal((cfg.d_model, 2), head_rng)
    seq_params["head_b"] = np.zeros(2, dtype=np.float32)
    worst["sequence-head"] = grad_check(head_loss("rbtd", None, np.array([1, 0, 1, 0])),
                                        seq_params, n_coords=15, seed=5)

    tok_params = init_params(cfg.param_shapes(), make_rng(6, "init"))
    tok_params["head_w"] = trunc_normal((cfg.d_model, 3), make_rng(6, "head"))
    tok_params["head_b"] = np.zeros(3, dtype=np.float32)
    break_mask = np.zeros_like(hmask)
    break_mask[[0, 0, 1, 2, 3], [2, 4, 1, 3, 2]] = True   # columns 1 to 4
    worst["token-head"] = grad_check(head_loss("fine", break_mask, np.array([0, 2, 1, 2, 0])),
                                     tok_params, n_coords=15, seed=6)

    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", {elapsed:.0f}s"
    report("gradient-correctness", not bad and elapsed < 120, detail)


# -- 4. metric oracle --------------------------------------------------------

def test_metric_oracle():
    m = compute_metrics([[2, 1, 0], [0, 3, 0], [1, 0, 3]])
    fixed_ok = (
        abs(m["accuracy"] - 0.80) < 1e-12
        and abs(m["weighted_f1"] - 0.80) < 1e-9
        and abs(m["macro_f1"] - 0.7937) < 1e-4
    )

    rng = np.random.default_rng(SEED)
    oracle_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        true = rng.integers(0, 3, size=n)
        pred = rng.integers(0, 3, size=n)
        m = compute_metrics(confusion(zip(true.tolist(), pred.tolist()), 3))
        # Brute-force recount straight from definitions.
        f1s, supports = [], []
        for c in range(3):
            tp = int(np.sum((true == c) & (pred == c)))
            fp = int(np.sum((true != c) & (pred == c)))
            fn = int(np.sum((true == c) & (pred != c)))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
            supports.append(tp + fn)
        oracle_ok &= abs(m["accuracy"] - np.mean(true == pred)) < 1e-12
        oracle_ok &= abs(m["macro_f1"] - np.mean(f1s)) < 1e-12
        oracle_ok &= abs(m["weighted_f1"] - np.dot(f1s, supports) / n) < 1e-12

    report(
        "metric-oracle", fixed_ok and oracle_ok,
        "fixed matrix (0.80/0.80/0.7937) + 1000 random recounts",
    )


# -- 5. discriminator learnability -------------------------------------------

@pytest.mark.slow
def test_rbtd_learnability(pretrain_bundle):
    rep = pretrain_bundle["report"]
    ok = rep["accuracy"] >= 0.75 and rep["elapsed"] < 600
    report(
        "rbtd-learnability",
        ok,
        f"{pretrain_bundle['n_augmented']} samples, held-out accuracy "
        f"{rep['accuracy']:.1%}, F-score {rep['f_score']:.1%}, {rep['elapsed']:.0f}s",
    )


# -- 6. pretraining transfer -------------------------------------------------

@pytest.mark.slow
def test_pretraining_transfer(pretrain_bundle):
    t0 = time.time()
    b = pretrain_bundle
    esl = synth.generate_esl(b["scfg"], b["native"][:TRANSFER_ESL_ITEMS])
    rated = [synth.encode_rated(s, b["vocab"]) for s in esl]
    labels = [rank_to_class(s.overall) for s in rated]
    tcfg = TrainConfig(
        batch_size=TRANSFER_BATCH, epochs=TRANSFER_EPOCHS, lr=TRANSFER_LR, seed=SEED
    )
    scores, predicted = {}, {}
    for name, mcfg, init in (
        ("rbtd", b["enc_cfg"], b["ckpt"]),
        ("scratch", b["enc_cfg"], None),
        ("bilstm", BiLstmConfig(vocab_size=b["vocab"].size), None),
    ):
        fn = make_trained_predictor("fine", mcfg, b["vocab"], tcfg, init, rated)
        agg = metrics.cross_validate(rated, labels, fn, k=5, seed=SEED)
        scores[name] = agg["macro_f1"]["mean"]
        # Poor/Fair/Great predictions pooled over the folds: a model that
        # predicts one class scores what a constant predictor would.
        predicted[name] = "/".join(
            str(n) for n in metrics.predicted_counts(metrics.pooled_confusion(agg["folds"])))
    elapsed = time.time() - t0
    gap = scores["rbtd"] - scores["scratch"]
    ok = gap >= 0.02 and scores["rbtd"] > scores["bilstm"] and elapsed < 1800
    report(
        "pretraining-transfer",
        ok,
        f"fine macro-F1 rbtd {scores['rbtd']:.3f} vs scratch {scores['scratch']:.3f} "
        f"(gap {gap * 100:+.1f} pts) vs bilstm {scores['bilstm']:.3f}, {elapsed:.0f}s; "
        "predicted Poor/Fair/Great " + ", ".join(f"{k} {v}" for k, v in predicted.items()),
    )


# -- 7. diverse-pattern failure mode -----------------------------------------

def test_diverse_pattern_failure_mode():
    t0 = time.time()
    common = dict(
        n_sentences=300, seed=SEED, max_conjuncts=1,
        comma_rate=0.0, two_sentence_rate=0.0, adj_rate=0.0,
    )
    scfg = synth.SynthConfig(alt_pattern_rate=0.7, **common)
    native = synth.generate_native(scfg)
    # The single reference per item: same seed with alternates disabled yields
    # the same word streams with every optional site at br0.
    refs = {s.id: s for s in synth.generate_native(synth.SynthConfig(alt_pattern_rate=0.0, **common))}
    assert all(refs[s.id].words == s.words for s in native)

    esl = synth.generate_esl(scfg, native)
    esl_by_id = {s.seq.id: s for s in esl}
    n_alt = sum(
        s.overall is Rank.GREAT and s.seq.breaks != refs[s.seq.id.removeprefix("esl-")].breaks
        for s in esl
    )
    alt_frac = n_alt / len(esl)

    vocab = build_vocab(native)
    rated = [synth.encode_rated(s, vocab) for s in esl]
    train, test = rated[:200], rated[200:]

    def great_prf(pairs):
        tp = sum(t is Rank.GREAT and p is Rank.GREAT for t, p in pairs)
        fp = sum(t is not Rank.GREAT and p is Rank.GREAT for t, p in pairs)
        fn = sum(t is Rank.GREAT and p is not Rank.GREAT for t, p in pairs)
        return (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0)

    base_pairs = []
    for item in test:
        ref = refs[item.id.removeprefix("esl-")]
        ref = tasks.RatedSample(ref.id, tuple(encode(ref, vocab)))
        pred = baseline.rank_from_similarity(baseline.break_similarity(item, ref))
        base_pairs.append((item.overall, pred))
    base_prec, base_rec = great_prf(base_pairs)

    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=64, n_heads=4, n_layers=2, ffn_dim=128)
    pre = corruption.build_pretrain_dataset(
        [(s.id, encode(s, vocab)) for s in native], corruption.CorruptionConfig(seed=SEED)
    )
    ckpt, _ = tasks.pretrain_rbtd(pre, TrainConfig(epochs=3, seed=SEED), enc_cfg, vocab)
    ov = tasks.finetune(
        train, ckpt, TrainConfig(batch_size=16, epochs=10, lr=1e-4, seed=SEED), "overall",
        model_cfg=enc_cfg, vocab=vocab,
    )
    model_ranks, _ = tasks.predict_overall(ov, [item.ids for item in test])
    model_pairs = [(esl_by_id[item.id].overall, rank) for item, rank in zip(test, model_ranks)]
    model_prec, model_rec = great_prf(model_pairs)

    elapsed = time.time() - t0
    ok = (
        alt_frac >= 0.30
        and model_rec - base_rec >= 0.10
        and base_prec >= model_prec - 0.05
        and elapsed < 300
    )
    report(
        "diverse-pattern-failure-mode",
        ok,
        f"{alt_frac:.0%} alternate items; Great recall baseline {base_rec:.2f} vs "
        f"model {model_rec:.2f}; Great precision {base_prec:.2f} vs {model_prec:.2f}; "
        f"{elapsed:.0f}s",
    )


# -- 8. determinism ----------------------------------------------------------

def _run_pipeline(root: str, cfg_path: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "breakscore.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    data = os.path.join(root, "data")
    cli("synth", "--config", cfg_path, "--out-dir", data)
    files = {
        name: os.path.join(data, name)
        for name in ("native.jsonl", "esl.jsonl", "esl_truth.jsonl", "vocab.tsv")
    }
    files["pretrain.jsonl"] = os.path.join(root, "pretrain.jsonl")
    cli("corrupt", "--config", cfg_path, "--in", files["native.jsonl"],
        "--vocab", files["vocab.tsv"], "--out", files["pretrain.jsonl"])
    files["rbtd.pbrk"] = os.path.join(root, "rbtd.pbrk")
    cli("pretrain", "--config", cfg_path, "--in", files["pretrain.jsonl"],
        "--vocab", files["vocab.tsv"], "--out", files["rbtd.pbrk"])
    for task in ("overall", "fine"):
        out = os.path.join(root, f"{task}.pbrk")
        files[f"{task}.pbrk"] = out
        cli("finetune", "--config", cfg_path, "--task", task,
            "--in", files["esl.jsonl"], "--vocab", files["vocab.tsv"],
            "--init", files["rbtd.pbrk"], "--out", out)
    files["eval.json"] = os.path.join(root, "eval.json")
    cli("eval", "--config", cfg_path, "--task", "overall",
        "--in", files["esl.jsonl"], "--vocab", files["vocab.tsv"],
        "--model", "bilstm", "--k", "3", "--out", files["eval.json"])
    return {name: open(path, "rb").read() for name, path in files.items()}


def test_full_pipeline_determinism(tmp_path):
    cfg_path = str(tmp_path / "run.yaml")
    with open(cfg_path, "w") as f:
        f.write(
            "seed: 7\n"
            "synth: {n_sentences: 40}\n"
            "encoder: {d_model: 16, n_heads: 2, n_layers: 1, ffn_dim: 32}\n"
            "bilstm: {embed_dim: 8, hidden_size: 8}\n"
            "train: {batch_size: 16, epochs: 1}\n"
        )
    run_a = _run_pipeline(str(tmp_path / "a"), cfg_path)
    run_b = _run_pipeline(str(tmp_path / "b"), cfg_path)
    differing = [name for name in run_a if run_a[name] != run_b[name]]
    report(
        "determinism",
        not differing,
        "byte-identical datasets, checkpoints and reports"
        if not differing
        else f"differs: {differing}",
    )
