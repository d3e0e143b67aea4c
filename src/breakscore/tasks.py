"""Task pipelines: discriminator pretraining on corrupted data, overall and
fine-grained fine-tuning, and the prediction entry points.

Sequence-level heads read the CLS hidden state (encoder) or a masked mean over
positions (BiLSTM, which has no CLS convention). The fine-grained head scores
every break position; word/CLS/pad positions never contribute loss.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import jsonl, metrics, shards
from .checkpoint import N_CLASSES, Checkpoint, param_shapes
from .corruption import LABEL_CORRUPTED, LabeledSequence
from .exceptions import DataError, NumericError
from .nn.adam import adam_step
from .nn.bilstm import bilstm_backward, bilstm_forward
from .nn.encoder import EncoderConfig, encoder_backward, encoder_forward
from .nn.functional import batched_cross_entropy, init_params, softmax
from .rngs import make_rng
from .ranks import Rank, class_to_rank, rank_to_class
from .vocab import PAD_ID, check_encoded

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 3
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("batch_size and epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class RatedSample:
    id: str
    ids: tuple[int, ...]
    break_mask: tuple[bool, ...]
    overall: Rank | None = None
    fine: tuple[Rank, ...] | None = None

    def __post_init__(self):
        check_encoded(self.id, self.ids, self.break_mask)
        if self.fine is not None and len(self.fine) != sum(self.break_mask):
            raise DataError(
                f"sample {self.id!r}: {len(self.fine)} fine labels for "
                f"{sum(self.break_mask)} break positions"
            )

    def cut(self, n: int) -> RatedSample:
        """The first n tokens, with the fine labels of the breaks among them."""
        fine = None if self.fine is None else self.fine[: sum(self.break_mask[:n])]
        return replace(self, ids=self.ids[:n], break_mask=self.break_mask[:n], fine=fine)


def rated_to_json(s: RatedSample) -> str:
    obj = {
        "id": s.id,
        "ids": list(s.ids),
        "break_mask": [bool(b) for b in s.break_mask],
    }
    if s.overall is not None:
        obj["overall"] = int(s.overall)
    if s.fine is not None:
        obj["fine"] = [int(r) for r in s.fine]
    return jsonl.dumps(obj)


def rated_from_json(line: str) -> RatedSample:
    obj = json.loads(line)
    return RatedSample(
        id=obj["id"],
        ids=tuple(obj["ids"]),
        break_mask=jsonl.array(obj, "break_mask", bool),
        overall=Rank(obj["overall"]) if "overall" in obj else None,
        fine=tuple(Rank(r) for r in obj["fine"]) if "fine" in obj else None,
    )


def read_rated(stream) -> list[RatedSample]:
    return jsonl.read(stream, rated_from_json, "rated")


# -- batching ----------------------------------------------------------------

def cut_to_max_len(dataset: list, kind: str, cfg) -> list:
    """Each record cut to the first `cfg.max_len` tokens, the most the model
    reads, its labels with it. One warning counts the records that were longer
    and, for "rbtd" samples, those left with no edit."""
    n = cfg.max_len
    long = [i for i, s in enumerate(dataset) if len(s.ids) > n]
    if not long:
        return dataset
    cut = list(dataset)
    for i in long:
        cut[i] = dataset[i].cut(n)
    relabeled = ""
    if kind == "rbtd":
        relabeled = (f"; {sum(cut[i].label != dataset[i].label for i in long)} of them "
                     "lose every edit and are labeled original")
    log.warning("%d of %d %s samples are longer than max_len %d and are cut to it%s",
                len(long), len(dataset), kind, n, relabeled)
    return cut


def _pad_batch(seqs: list[tuple]):
    """(ids, break_mask) tuples -> padded id matrix, pad mask, break mask."""
    length = max(len(ids) for ids, _ in seqs)
    n = len(seqs)
    ids = np.full((n, length), PAD_ID, dtype=np.int64)
    pad_mask = np.zeros((n, length), dtype=bool)
    break_mask = np.zeros((n, length), dtype=bool)
    for row, (sample_ids, sample_break) in enumerate(seqs):
        l = len(sample_ids)
        ids[row, :l] = sample_ids
        pad_mask[row, :l] = True
        break_mask[row, :l] = sample_break
    return ids, pad_mask, break_mask


def _length_batches(lengths: np.ndarray, order: np.ndarray, batch_size: int):
    """Indices into `lengths`, one per sequence, cut into batches of similar
    length.

    `order` is stable-sorted by length, so samples of equal length keep their
    order in it, then cut every batch_size. Padding a batch to its longest row
    then wastes little (sequence bucketing).
    """
    order = order[np.argsort(lengths[order], kind="stable")]
    return [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]


# Padded tokens (rows x padded length) in one prediction batch. Scoring a
# 120-utterance file at d_model 64 on a 2-vCPU host took a median 142 / 138 /
# 150 / 188 ms at 256 / 512 / 1024 / 2048 tokens, against 208 ms one row at a
# time and 262 ms at 64 rows, whose [rows, heads, L, L] attention arrays
# outgrow the cache.
PREDICT_TOKENS = 512


def _token_batches(seqs: list[tuple], max_tokens: int = PREDICT_TOKENS):
    """Indices into `seqs`, stable-sorted by length and cut so that rows x
    padded length stays within max_tokens; a sequence longer than that is a
    batch of its own."""
    lengths = [len(s[0]) for s in seqs]
    batches, batch = [], []
    for i in np.argsort(lengths, kind="stable").tolist():
        if batch and (len(batch) + 1) * lengths[i] > max_tokens:
            batches.append(batch)
            batch = []
        batch.append(i)
    return batches + [batch] if batch else batches


# -- model plumbing ----------------------------------------------------------
# The model config's type picks the network: the encoder or the Bi-LSTM, and
# its max_len the most tokens of a sequence it reads, in training and prediction.
# Training data arrives cut to it (`cut_to_max_len`).


def _forward(params, cfg, ids, pad_mask, train=False, dropout_rng=None):
    if isinstance(cfg, EncoderConfig):
        return encoder_forward(ids, pad_mask, params, cfg, train=train, dropout_rng=dropout_rng)
    return bilstm_forward(ids, pad_mask, params, cfg)


def _backward(params, cfg, dhidden, cache):
    if isinstance(cfg, EncoderConfig):
        return encoder_backward(dhidden, cache)
    return bilstm_backward(dhidden, params, cache)


def _head_rows(kind, cfg, hidden, pad_mask, break_mask):
    """The hidden states a head reads: one per break position ("fine"), else one
    per sequence, the CLS state (encoder) or the masked mean (BiLSTM)."""
    if kind == "fine":
        return hidden[np.nonzero(break_mask)]
    if isinstance(cfg, EncoderConfig):
        return hidden[:, 0, :]
    m = pad_mask.astype(hidden.dtype)
    return (hidden * m[:, :, None]).sum(axis=1) / m.sum(axis=1)[:, None]


def _head_rows_backward(kind, cfg, drows, hidden, pad_mask, break_mask):
    """Scatter the gradient of `_head_rows` back onto the hidden states."""
    dhidden = np.zeros_like(hidden)
    if kind == "fine":
        dhidden[np.nonzero(break_mask)] = drows
    elif isinstance(cfg, EncoderConfig):
        dhidden[:, 0, :] = drows
    else:
        m = pad_mask.astype(hidden.dtype)
        dhidden += drows[:, None, :] * (m / m.sum(axis=1)[:, None])[:, :, None]
    return dhidden


def _check_init_compat(init: Checkpoint, cfg, vocab) -> None:
    if init.model_cfg != cfg:
        raise DataError("init checkpoint model config does not match requested config")
    if init.vocab.word_to_id != vocab.word_to_id:
        raise DataError("init checkpoint vocabulary does not match the dataset vocabulary")


# -- training ----------------------------------------------------------------

def _train(
    samples: list[tuple],          # (ids, break_mask, target classes)
    kind: str,
    cfg,
    tcfg: TrainConfig,
    init_core: dict | None = None,
) -> tuple[dict, list[float]]:
    """Minibatch Adam on a linear head over the rows `_head_rows` selects.

    A sample's targets are one class ("rbtd", "overall") or one per break
    ("fine"). A batch of at least `shards.SHARD_TOKENS` padded tokens trains
    as two row shards, shard 1 in a forked worker when a second core and the
    BLAS pin allow it, else in turn; the bytes are the same either way.
    Returns (params incl. head, per-epoch mean losses).
    """
    # Parameters and the two shards' gradient slots share one mapping, so a
    # forked worker reads each Adam update and the parent reads its gradient.
    shapes = param_shapes(kind, cfg)
    flat, (params, *grad_slots) = shards.shared_slots(shapes, 3)
    # What init_core does not give is drawn in table order: network, then head.
    init_core = init_core or {}
    drawn = init_params({k: s for k, s in shapes.items() if k not in init_core},
                        make_rng(tcfg.seed, kind + "-init"))
    for k, a in {**init_core, **drawn}.items():
        params[k][...] = a

    lengths = np.array([len(s[0]) for s in samples], dtype=np.int64)
    targets = [np.asarray(s[2], dtype=np.int64) for s in samples]   # one class per head row
    if not any(len(t) for t in targets):
        raise DataError(f"no sample has a {kind} target to train on")
    # Every epoch's batches in training order, drawn up front: whether any
    # batch is split decides whether a worker is forked.
    order_rng = make_rng(tcfg.seed, kind + "-order")
    schedule = []
    for _ in range(tcfg.epochs):
        batches = _length_batches(lengths, order_rng.permutation(len(samples)), tcfg.batch_size)
        schedule.append([batches[b] for b in order_rng.permutation(len(batches))])

    def is_split(batch) -> bool:
        return len(batch) * lengths[batch].max() >= shards.SHARD_TOKENS

    # Shard 0 draws dropout as an unsplit batch always has.
    drop_rngs = [make_rng(tcfg.seed, f"{kind}-dropout"), make_rng(tcfg.seed, f"{kind}-dropout1")]

    def shard_step(s: int, rows_idx, n_rows: int) -> float:
        """Shard s's share of the loss of a batch of n_rows head rows; its
        gradient, scaled by the same share, goes to slot s."""
        shard_targets = np.concatenate([np.empty(0, np.int64), *(targets[i] for i in rows_idx)])
        if not len(shard_targets):
            flat[1 + s].fill(0.0)
            return 0.0
        ids, pad_mask, break_mask = _pad_batch([(samples[i][0], samples[i][1]) for i in rows_idx])
        hidden, cache = _forward(params, cfg, ids, pad_mask, train=True,
                                 dropout_rng=drop_rngs[s])
        rows = _head_rows(kind, cfg, hidden, pad_mask, break_mask)
        if len(rows) != len(shard_targets):
            raise DataError(
                f"{len(shard_targets)} {kind} labels for {len(rows)} head positions"
            )
        logits = rows @ params["head_w"] + params["head_b"]
        loss, dlogits = batched_cross_entropy(logits, shard_targets)
        if len(rows) != n_rows:
            share = len(rows) / n_rows
            loss *= share
            dlogits *= dlogits.dtype.type(share)
        grads = {"head_w": rows.T @ dlogits, "head_b": dlogits.sum(axis=0)}
        dhidden = _head_rows_backward(
            kind, cfg, dlogits @ params["head_w"].T, hidden, pad_mask, break_mask
        )
        grads.update(_backward(params, cfg, dhidden, cache))
        for k, g in grads.items():
            grad_slots[s][k][...] = g
        return loss

    # Adam's moment rows; step counts the updates made.
    m, v, step = np.zeros_like(flat[0]), np.zeros_like(flat[0]), 0
    epoch_losses = []
    fork = shards.usable_cpus() >= 2 and any(is_split(b) for epoch in schedule for b in epoch)
    # A diverging run ends at the non-finite loss check, so numpy's overflow
    # warnings would only repeat it; the worker forks inside errstate and keeps it.
    with np.errstate(over="ignore", invalid="ignore"), shards.one_blas_thread() as pinned, (
        shards.ShardWorker(shard_step, "shard") if fork and pinned else contextlib.nullcontext()
    ) as worker:
        for epoch, batches in enumerate(schedule):
            losses = []
            for batch in batches:
                n_rows = sum(len(targets[i]) for i in batch)
                if not n_rows:
                    continue   # say, only one-word items for the fine head: nothing to learn
                if not is_split(batch):
                    loss = shard_step(0, batch, n_rows)
                else:
                    head, tail = np.array_split(batch, 2)
                    if worker is not None:
                        worker.submit(1, tail, n_rows)
                    loss = shard_step(0, head, n_rows) + (
                        worker.result() if worker is not None else shard_step(1, tail, n_rows))
                    flat[1] += flat[2]   # slot 0 + slot 1, in shard order
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                losses.append(loss)
                step += 1
                adam_step(flat[0], flat[1], m, v, step, tcfg.lr)
            epoch_losses.append(float(np.mean(losses)))
    return {k: v.copy() for k, v in params.items()}, epoch_losses


def _predict_logits(params, kind, cfg, seqs: list[tuple], max_tokens: int = PREDICT_TOKENS):
    """Head logits of each (ids, break_mask), in input order: one [n_classes]
    array per sample, or one [n_breaks, n_classes] array for the "fine" head.
    Each sample is cut to the model's max_len, then samples run in
    length-sorted padded batches of at most max_tokens tokens."""
    seqs = [(ids[: cfg.max_len], mask[: cfg.max_len]) for ids, mask in seqs]
    out = [None] * len(seqs)
    for batch in _token_batches(seqs, max_tokens):
        ids, pad_mask, break_mask = _pad_batch([seqs[i] for i in batch])
        hidden, _ = _forward(params, cfg, ids, pad_mask)
        rows = _head_rows(kind, cfg, hidden, pad_mask, break_mask)
        logits = rows @ params["head_w"] + params["head_b"]
        if kind == "fine":
            logits = np.split(logits, np.cumsum(break_mask.sum(axis=1))[:-1])
        for i, row in zip(batch, logits, strict=True):
            out[i] = row
    return out


# -- task entry points -------------------------------------------------------

# Share of the pretraining set held out to score the discriminator.
RBTD_HOLDOUT_FRAC = 0.05


def pretrain_rbtd(
    dataset: list[LabeledSequence],
    tcfg: TrainConfig,
    enc_cfg: EncoderConfig,
    vocab,
) -> tuple[Checkpoint, dict]:
    """Train the corruption discriminator; report held-out accuracy/F-score.

    The F-score is the F1 of the corrupted class on the seeded 95/5 held-out
    split.
    """
    dataset = cut_to_max_len(dataset, "rbtd", enc_cfg)
    targets = [s.label for s in dataset]
    if len(set(targets)) < 2:
        raise DataError("discriminator pretraining needs both original samples and samples "
                        f"corrupted within encoder max_len {enc_cfg.max_len}")
    split_rng = make_rng(tcfg.seed, "rbtd-split")
    order = split_rng.permutation(len(dataset))
    n_hold = max(1, int(round(RBTD_HOLDOUT_FRAC * len(dataset))))
    hold_idx = set(order[:n_hold].tolist())
    train = [i for i in range(len(dataset)) if i not in hold_idx]
    held = sorted(hold_idx)

    samples = [(dataset[i].ids, dataset[i].break_mask, [targets[i]]) for i in train]
    params, epoch_losses = _train(samples, "rbtd", enc_cfg, tcfg)

    logits = _predict_logits(params, "rbtd", enc_cfg,
                             [(dataset[i].ids, dataset[i].break_mask) for i in held])
    cm = metrics.ConfusionMatrix.from_pairs(
        [targets[i] for i in held], [int(np.argmax(row)) for row in logits],
        n_classes=N_CLASSES["rbtd"],
    )
    held_metrics = metrics.compute_metrics(cm)
    report = {
        "held_out": len(held),
        "accuracy": held_metrics["accuracy"],
        "f_score": held_metrics["per_class"][LABEL_CORRUPTED]["f1"],
        "epoch_losses": epoch_losses,
    }
    ckpt = Checkpoint(
        kind="rbtd",
        model_cfg=enc_cfg,
        vocab=vocab,
        seed=tcfg.seed,
        params=params,
        init_from=None,
        extra={"report": report},
    )
    return ckpt, report


def finetune(
    dataset: list[RatedSample],
    init: Checkpoint | None,
    tcfg: TrainConfig,
    task: str,
    model_cfg,
    vocab,
) -> Checkpoint:
    """3-class "overall" sequence classifier or "fine" per-break labeler of the
    network `model_cfg` configures; full fine-tuning when `init` is given."""
    if task not in ("overall", "fine"):
        raise DataError(f"unknown fine-tuning task {task!r}")
    if any(getattr(s, task) is None for s in dataset):
        raise DataError(f"fine-tuning the {task!r} head needs {task} labels on every sample")
    if init is not None:
        _check_init_compat(init, model_cfg, vocab)
        init_core = {k: v for k, v in init.params.items() if not k.startswith("head_")}
    else:
        init_core = None
    samples = [
        (s.ids, s.break_mask, [rank_to_class(r) for r in (s.fine if task == "fine" else [s.overall])])
        for s in cut_to_max_len(dataset, task, model_cfg)
    ]
    params, epoch_losses = _train(samples, task, model_cfg, tcfg, init_core)
    return Checkpoint(
        kind=task,
        model_cfg=model_cfg,
        vocab=vocab,
        seed=tcfg.seed,
        params=params,
        init_from=init.kind if init is not None else None,
        extra={"epoch_losses": epoch_losses},
    )


# -- prediction --------------------------------------------------------------

def _checked_logits(ckpt: Checkpoint, kind: str, seqs: list[tuple]) -> list[np.ndarray]:
    """`_predict_logits` of each (ids, break_mask) under a checkpoint of the
    given kind, in token-budgeted batches. Parameters so large that the forward
    overflows make the checkpoint bad data, not a numpy warning."""
    if ckpt.kind != kind:
        raise DataError(f"expected a {kind!r} checkpoint, got {ckpt.kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _predict_logits(ckpt.params, kind, ckpt.model_cfg, seqs)
    if logits and not np.isfinite(np.concatenate(logits)).all():
        raise DataError(f"the {kind} checkpoint gives non-finite logits")
    return logits


def _ranks(logits: np.ndarray) -> list[Rank]:
    """The rank of each row's largest logit; ties break toward the lower rank."""
    return [class_to_rank(c) for c in np.argmax(logits, axis=-1).tolist()]


def predict_overall_batch(ckpt: Checkpoint, seqs: list[tuple]) -> tuple[list[Rank], np.ndarray]:
    """The rank of each (ids, break_mask) and its class probabilities, one row each."""
    logits = np.reshape(_checked_logits(ckpt, "overall", seqs), (len(seqs), ckpt.n_classes))
    return _ranks(logits), softmax(logits)


def predict_finegrained_batch(ckpt: Checkpoint, seqs: list[tuple]) -> list[list[Rank]]:
    """For each (ids, break_mask), one rank per break position, in position order."""
    logits = _checked_logits(ckpt, "fine", seqs)
    if not logits:
        return []
    ranks = _ranks(np.concatenate(logits))
    ends = np.cumsum([len(rows) for rows in logits]).tolist()
    return [ranks[lo:hi] for lo, hi in zip([0, *ends], ends)]


def predict_overall(ckpt: Checkpoint, ids, break_mask) -> tuple[Rank, np.ndarray]:
    """Rank plus class probabilities; ties break toward the lower rank."""
    ranks, probs = predict_overall_batch(ckpt, [(ids, break_mask)])
    return ranks[0], probs[0]


def predict_finegrained(ckpt: Checkpoint, ids, break_mask) -> list[Rank]:
    """One rank per break position, in position order."""
    return predict_finegrained_batch(ckpt, [(ids, break_mask)])[0]
