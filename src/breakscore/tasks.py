"""Task pipelines: discriminator pretraining on corrupted data, overall and
fine-grained fine-tuning, and the prediction entry points.

Sequence-level heads read the CLS hidden state (encoder) or a masked mean over
positions (BiLSTM, which has no CLS convention). The fine-grained head scores
every break position; word/CLS/pad positions never contribute loss.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .corruption import LABEL_CORRUPTED, LabeledSequence
from .exceptions import DataError, NumericError, ParseError
from .nn import (
    AdamState,
    EncoderConfig,
    adam_step,
    bilstm_backward,
    bilstm_forward,
    encoder_backward,
    encoder_forward,
)
from .nn.functional import batched_cross_entropy, softmax, trunc_normal
from .rngs import make_rng
from .ranks import Rank, class_to_rank, rank_to_class
from .vocab import PAD_ID


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 3
    lr: float = 1e-4
    seed: int = 0
    max_len: int = 128
    class_weighted: bool = False  # inverse-frequency loss weights

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("batch_size and epochs must be >= 1")


@dataclass(frozen=True)
class RatedSample:
    id: str
    ids: tuple[int, ...]
    break_mask: tuple[bool, ...]
    overall: Rank | None = None
    fine: tuple[Rank, ...] | None = None

    def __post_init__(self):
        if len(self.ids) != len(self.break_mask):
            raise DataError(f"sample {self.id!r}: ids/break_mask length mismatch")
        if self.fine is not None and len(self.fine) != sum(self.break_mask):
            raise DataError(
                f"sample {self.id!r}: {len(self.fine)} fine labels for "
                f"{sum(self.break_mask)} break positions"
            )


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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def rated_from_json(line: str) -> RatedSample:
    try:
        obj = json.loads(line)
        return RatedSample(
            id=obj["id"],
            ids=tuple(obj["ids"]),
            break_mask=tuple(bool(b) for b in obj["break_mask"]),
            overall=Rank(obj["overall"]) if "overall" in obj else None,
            fine=tuple(Rank(r) for r in obj["fine"]) if "fine" in obj else None,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad rated record: {e}") from e


def read_rated(stream) -> list[RatedSample]:
    out = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            out.append(rated_from_json(line))
        except ParseError as e:
            raise ParseError(str(e), line=line_no) from e
    return out


# -- batching ----------------------------------------------------------------

def _pad_batch(seqs: list[tuple], max_len: int):
    """(ids, break_mask) tuples -> padded id matrix, pad mask, break mask."""
    length = min(max(len(ids) for ids, _ in seqs), max_len)
    n = len(seqs)
    ids = np.full((n, length), PAD_ID, dtype=np.int64)
    pad_mask = np.zeros((n, length), dtype=bool)
    break_mask = np.zeros((n, length), dtype=bool)
    for row, (sample_ids, sample_break) in enumerate(seqs):
        l = min(len(sample_ids), length)
        ids[row, :l] = sample_ids[:l]
        pad_mask[row, :l] = True
        break_mask[row, :l] = list(sample_break)[:l]
    return ids, pad_mask, break_mask


# -- model plumbing ----------------------------------------------------------

def _hidden_dim(model: str, cfg) -> int:
    return cfg.d_model if model == "encoder" else 2 * cfg.hidden_size


def _forward(model, params, cfg, ids, pad_mask, train=False, dropout_rng=None):
    core = {k: v for k, v in params.items() if not k.startswith("head_")}
    if model == "encoder":
        return encoder_forward(ids, pad_mask, core, cfg, train=train, dropout_rng=dropout_rng)
    return bilstm_forward(ids, pad_mask, core, cfg)


def _backward(model, params, cfg, dhidden, cache):
    core = {k: v for k, v in params.items() if not k.startswith("head_")}
    if model == "encoder":
        return encoder_backward(dhidden, cache)
    return bilstm_backward(dhidden, core, cache)


def _pool(model, hidden, pad_mask):
    """Sequence representation: CLS state (encoder) or masked mean (BiLSTM)."""
    if model == "encoder":
        return hidden[:, 0, :]
    m = pad_mask.astype(hidden.dtype)
    return (hidden * m[:, :, None]).sum(axis=1) / m.sum(axis=1)[:, None]


def _pool_backward(model, dpool, hidden_shape, pad_mask, dtype):
    dhidden = np.zeros(hidden_shape, dtype=dtype)
    if model == "encoder":
        dhidden[:, 0, :] = dpool
    else:
        m = pad_mask.astype(dtype)
        dhidden += dpool[:, None, :] * (m / m.sum(axis=1)[:, None])[:, :, None]
    return dhidden


def _init_model_params(model, cfg, rng):
    from .nn import init_bilstm_params, init_encoder_params

    return init_encoder_params(cfg, rng) if model == "encoder" else init_bilstm_params(cfg, rng)


def _check_init_compat(init: Checkpoint, model: str, cfg, vocab) -> None:
    if init.model != model:
        raise DataError(f"init checkpoint is a {init.model!r} model, requested {model!r}")
    if init.model_cfg.to_dict() != cfg.to_dict():
        raise DataError("init checkpoint model config does not match requested config")
    if init.vocab.word_to_id != vocab.word_to_id:
        raise DataError("init checkpoint vocabulary does not match the dataset vocabulary")


def _class_weights(targets: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(targets, minlength=n_classes).astype(np.float64)
    inv = np.where(counts > 0, counts.sum() / np.maximum(counts, 1), 0.0)
    inv = inv / inv[counts > 0].mean()
    return inv.astype(np.float32)


# -- generic training loops --------------------------------------------------

def _train_sequence_head(
    samples: list[tuple],          # (ids, break_mask, target_class)
    n_classes: int,
    model: str,
    cfg,
    tcfg: TrainConfig,
    init_core: dict | None = None,
    rng_label: str = "train",
) -> tuple[dict, list[float]]:
    """Minibatch Adam on a linear head over the pooled representation.

    Returns (params incl. head, per-epoch mean losses).
    """
    init_rng = make_rng(tcfg.seed, rng_label + "-init")
    params = (
        {k: v.copy() for k, v in init_core.items()}
        if init_core is not None
        else _init_model_params(model, cfg, init_rng)
    )
    hdim = _hidden_dim(model, cfg)
    params["head_w"] = trunc_normal((hdim, n_classes), init_rng)
    params["head_b"] = np.zeros(n_classes, dtype=np.float32)

    targets_all = np.array([t for _, _, t in samples])
    weights = _class_weights(targets_all, n_classes) if tcfg.class_weighted else None
    state = AdamState()
    order_rng = make_rng(tcfg.seed, rng_label + "-order")
    drop_rng = make_rng(tcfg.seed, rng_label + "-dropout")
    epoch_losses = []
    for _epoch in range(tcfg.epochs):
        order = order_rng.permutation(len(samples))
        losses = []
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [samples[i] for i in order[lo : lo + tcfg.batch_size]]
            ids, pad_mask, _ = _pad_batch([(s[0], s[1]) for s in batch], tcfg.max_len)
            targets = np.array([s[2] for s in batch])
            hidden, cache = _forward(
                model, params, cfg, ids, pad_mask, train=True, dropout_rng=drop_rng
            )
            pooled = _pool(model, hidden, pad_mask)
            logits = pooled @ params["head_w"] + params["head_b"]
            row_w = weights[targets] if weights is not None else None
            loss, dlogits = batched_cross_entropy(logits, targets, row_w)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {_epoch}")
            losses.append(loss)
            grads = {
                "head_w": pooled.T @ dlogits,
                "head_b": dlogits.sum(axis=0),
            }
            dpool = dlogits @ params["head_w"].T
            dhidden = _pool_backward(model, dpool, hidden.shape, pad_mask, hidden.dtype)
            grads.update(_backward(model, params, cfg, dhidden, cache))
            adam_step(params, grads, state, lr=tcfg.lr)
        epoch_losses.append(float(np.mean(losses)))
    return params, epoch_losses


def _train_token_head(
    samples: list[tuple],          # (ids, break_mask, per-break target classes)
    n_classes: int,
    model: str,
    cfg,
    tcfg: TrainConfig,
    init_core: dict | None = None,
    rng_label: str = "train-fine",
) -> tuple[dict, list[float]]:
    """Per-position linear head; loss only at break positions."""
    init_rng = make_rng(tcfg.seed, rng_label + "-init")
    params = (
        {k: v.copy() for k, v in init_core.items()}
        if init_core is not None
        else _init_model_params(model, cfg, init_rng)
    )
    hdim = _hidden_dim(model, cfg)
    params["head_w"] = trunc_normal((hdim, n_classes), init_rng)
    params["head_b"] = np.zeros(n_classes, dtype=np.float32)

    all_targets = np.concatenate([np.asarray(s[2]) for s in samples if len(s[2])])
    weights = _class_weights(all_targets, n_classes) if tcfg.class_weighted else None
    state = AdamState()
    order_rng = make_rng(tcfg.seed, rng_label + "-order")
    drop_rng = make_rng(tcfg.seed, rng_label + "-dropout")
    epoch_losses = []
    for _epoch in range(tcfg.epochs):
        order = order_rng.permutation(len(samples))
        losses = []
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [samples[i] for i in order[lo : lo + tcfg.batch_size]]
            ids, pad_mask, break_mask = _pad_batch([(s[0], s[1]) for s in batch], tcfg.max_len)
            rows, cols = np.nonzero(break_mask)
            targets = np.concatenate(
                [np.asarray(s[2])[: int(break_mask[r].sum())] for r, s in enumerate(batch)]
            )
            if len(targets) != len(rows):
                raise DataError("fine labels misaligned with break positions")
            hidden, cache = _forward(
                model, params, cfg, ids, pad_mask, train=True, dropout_rng=drop_rng
            )
            pos_states = hidden[rows, cols]
            logits = pos_states @ params["head_w"] + params["head_b"]
            row_w = weights[targets] if weights is not None else None
            loss, dlogits = batched_cross_entropy(logits, targets, row_w)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {_epoch}")
            losses.append(loss)
            grads = {
                "head_w": pos_states.T @ dlogits,
                "head_b": dlogits.sum(axis=0),
            }
            dhidden = np.zeros_like(hidden)
            dhidden[rows, cols] = dlogits @ params["head_w"].T
            grads.update(_backward(model, params, cfg, dhidden, cache))
            adam_step(params, grads, state, lr=tcfg.lr)
        epoch_losses.append(float(np.mean(losses)))
    return params, epoch_losses


# -- task entry points -------------------------------------------------------

def pretrain_rbtd(
    dataset: list[LabeledSequence],
    tcfg: TrainConfig,
    enc_cfg: EncoderConfig,
    vocab,
    holdout_frac: float = 0.05,
) -> tuple[Checkpoint, dict]:
    """Train the corruption discriminator; report held-out accuracy/F-score.

    The F-score is the F1 of the corrupted class on the seeded 95/5 held-out
    split.
    """
    labels = {s.label for s in dataset}
    if len(labels) < 2:
        raise DataError("discriminator pretraining needs both original and corrupted samples")
    split_rng = make_rng(tcfg.seed, "rbtd-split")
    order = split_rng.permutation(len(dataset))
    n_hold = max(1, int(round(holdout_frac * len(dataset))))
    hold_idx = set(order[:n_hold].tolist())
    train = [dataset[i] for i in range(len(dataset)) if i not in hold_idx]
    held = [dataset[i] for i in sorted(hold_idx)]

    samples = [(s.ids, s.break_mask, s.label) for s in train]
    params, epoch_losses = _train_sequence_head(
        samples, 2, "encoder", enc_cfg, tcfg, rng_label="rbtd"
    )

    preds = _predict_classes(
        params, "encoder", enc_cfg, [(s.ids, s.break_mask) for s in held],
        tcfg.batch_size, tcfg.max_len,
    )
    tp = fp = fn = correct = 0
    for s, pred in zip(held, preds, strict=True):
        correct += pred == s.label
        tp += pred == LABEL_CORRUPTED and s.label == LABEL_CORRUPTED
        fp += pred == LABEL_CORRUPTED and s.label != LABEL_CORRUPTED
        fn += pred != LABEL_CORRUPTED and s.label == LABEL_CORRUPTED
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fscore = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    report = {
        "held_out": len(held),
        "accuracy": correct / len(held),
        "f_score": fscore,
        "epoch_losses": epoch_losses,
    }
    ckpt = Checkpoint(
        kind="rbtd",
        model="encoder",
        model_cfg=enc_cfg,
        vocab=vocab,
        seed=tcfg.seed,
        params=params,
        n_classes=2,
        init_from=None,
        extra={"report": report},
    )
    return ckpt, report


def finetune_overall(
    dataset: list[RatedSample],
    init: Checkpoint | None,
    tcfg: TrainConfig,
    model: str = "encoder",
    model_cfg=None,
    vocab=None,
) -> Checkpoint:
    """3-class sequence classifier; full fine-tuning when `init` is given."""
    if any(s.overall is None for s in dataset):
        raise DataError("finetune_overall needs an overall rank on every sample")
    if init is not None:
        _check_init_compat(init, model, model_cfg, vocab)
        init_core = {k: v for k, v in init.params.items() if not k.startswith("head_")}
    else:
        init_core = None
    samples = [(s.ids, s.break_mask, rank_to_class(s.overall)) for s in dataset]
    params, epoch_losses = _train_sequence_head(
        samples, 3, model, model_cfg, tcfg, init_core=init_core, rng_label="overall"
    )
    return Checkpoint(
        kind="overall",
        model=model,
        model_cfg=model_cfg,
        vocab=vocab,
        seed=tcfg.seed,
        params=params,
        n_classes=3,
        init_from=init.kind if init is not None else None,
        extra={"epoch_losses": epoch_losses},
    )


def finetune_finegrained(
    dataset: list[RatedSample],
    init: Checkpoint | None,
    tcfg: TrainConfig,
    model: str = "encoder",
    model_cfg=None,
    vocab=None,
) -> Checkpoint:
    """Per-break-position 3-class labeler."""
    if any(s.fine is None for s in dataset):
        raise DataError("finetune_finegrained needs fine labels on every sample")
    if init is not None:
        _check_init_compat(init, model, model_cfg, vocab)
        init_core = {k: v for k, v in init.params.items() if not k.startswith("head_")}
    else:
        init_core = None
    samples = [
        (s.ids, s.break_mask, [rank_to_class(r) for r in s.fine]) for s in dataset
    ]
    params, epoch_losses = _train_token_head(
        samples, 3, model, model_cfg, tcfg, init_core=init_core, rng_label="fine"
    )
    return Checkpoint(
        kind="fine",
        model=model,
        model_cfg=model_cfg,
        vocab=vocab,
        seed=tcfg.seed,
        params=params,
        n_classes=3,
        init_from=init.kind if init is not None else None,
        extra={"epoch_losses": epoch_losses},
    )


# -- prediction --------------------------------------------------------------

def _check_sample_vocab(ckpt: Checkpoint, ids) -> None:
    vocab_size = ckpt.model_cfg.vocab_size
    if max(ids) >= vocab_size or min(ids) < 0:
        raise DataError(
            f"sample ids exceed checkpoint vocabulary (size {vocab_size}); "
            "was it encoded with a different vocabulary?"
        )


def _predict_classes(
    params, model, cfg, seqs: list[tuple], batch_size: int, max_len: int
) -> list[int]:
    """Sequence-head argmax class of each (ids, break_mask), in padded batches."""
    preds = []
    for lo in range(0, len(seqs), batch_size):
        ids, pad_mask, _ = _pad_batch(seqs[lo : lo + batch_size], max_len)
        hidden, _ = _forward(model, params, cfg, ids, pad_mask)
        logits = _pool(model, hidden, pad_mask) @ params["head_w"] + params["head_b"]
        preds.extend(np.argmax(logits, axis=1).tolist())
    return preds


def predict_overall(ckpt: Checkpoint, ids, break_mask) -> tuple[Rank, np.ndarray]:
    """Rank plus class probabilities; ties break toward the lower rank."""
    if ckpt.kind != "overall":
        raise DataError(f"predict_overall needs an 'overall' checkpoint, got {ckpt.kind!r}")
    _check_sample_vocab(ckpt, ids)
    batch_ids, pad_mask, _ = _pad_batch([(ids, break_mask)], ckpt.model_cfg.max_len if ckpt.model == "encoder" else 10**9)
    hidden, _ = _forward(ckpt.model, ckpt.params, ckpt.model_cfg, batch_ids, pad_mask)
    pooled = _pool(ckpt.model, hidden, pad_mask)
    logits = (pooled @ ckpt.params["head_w"] + ckpt.params["head_b"])[0]
    probs = softmax(logits)
    return class_to_rank(int(np.argmax(logits))), probs


def predict_finegrained(ckpt: Checkpoint, ids, break_mask) -> list[Rank]:
    """One rank per break position, in position order."""
    if ckpt.kind != "fine":
        raise DataError(f"predict_finegrained needs a 'fine' checkpoint, got {ckpt.kind!r}")
    _check_sample_vocab(ckpt, ids)
    batch_ids, pad_mask, bmask = _pad_batch([(ids, break_mask)], ckpt.model_cfg.max_len if ckpt.model == "encoder" else 10**9)
    hidden, _ = _forward(ckpt.model, ckpt.params, ckpt.model_cfg, batch_ids, pad_mask)
    rows, cols = np.nonzero(bmask)
    logits = hidden[rows, cols] @ ckpt.params["head_w"] + ckpt.params["head_b"]
    return [class_to_rank(int(np.argmax(row))) for row in logits]
