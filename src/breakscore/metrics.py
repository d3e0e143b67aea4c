"""Rank metrics: confusion matrices, accuracy, weighted/macro F1, k-fold CV.

Zero-denominator precision/recall/F1 are defined as 0; a zero-support class
still counts toward macro F1. Fold std is the population standard deviation.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import shards
from .exceptions import BreakscoreError, DataError
from .jsonl import check_fields
from .ranks import Rank
from .rngs import make_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalConfig:
    k: int = 5   # cross-validation folds

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.k < 2:
            raise DataError(f"k must be >= 2, got {self.k}")


def confusion(pairs, n_classes: int) -> list[list[int]]:
    """Counts of (true, predicted) class pairs; rows are true classes, columns predicted."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in pairs:
        if not (0 <= t < n_classes and 0 <= p < n_classes):
            raise DataError(f"class out of range: true={t} pred={p}")
        counts[t][p] += 1
    return counts


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_class_prf(counts: list[list[int]]) -> list[dict]:
    """Precision/recall/F1/support for every class of a `confusion` count matrix."""
    out = []
    for c, column in enumerate(zip(*counts)):
        tp = counts[c][c]
        row = sum(counts[c])
        precision = _safe_div(tp, sum(column))
        recall = _safe_div(tp, row)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        out.append({"precision": precision, "recall": recall, "f1": f1, "support": row})
    return out


def predicted_counts(counts: list[list[int]]) -> list[int]:
    """How many predictions fell in each class: the column sums of a
    `confusion` count matrix."""
    return [sum(column) for column in zip(*counts)]


def compute_metrics(counts: list[list[int]]) -> dict:
    """Accuracy, weighted/macro F1, the per-class table and the predicted-class
    counts of one `confusion` count matrix."""
    total = sum(map(sum, counts))
    if total == 0:
        raise DataError("empty confusion matrix")
    per_class = per_class_prf(counts)
    accuracy = sum(counts[c][c] for c in range(len(counts))) / total
    macro_f1 = sum(pc["f1"] for pc in per_class) / len(counts)
    weighted_f1 = sum(pc["f1"] * pc["support"] for pc in per_class) / total
    return {
        "accuracy": accuracy,
        "weighted_f1": weighted_f1,
        "macro_f1": macro_f1,
        "per_class": per_class,
        "confusion": [list(row) for row in counts],
        "predicted": predicted_counts(counts),
        "total": total,
    }


def pooled_confusion(fold_metrics: list[dict]) -> list[list[int]]:
    """The sum of the folds' `confusion` count matrices."""
    return [list(map(sum, zip(*rows))) for rows in zip(*(fm["confusion"] for fm in fold_metrics))]


def warn_if_one_class(counts: list[list[int]], names, what: str) -> None:
    """Log one WARNING naming the class when every prediction counted in a
    `confusion` matrix fell in it: such scores are a constant predictor's."""
    predicted = [c for c, n in enumerate(predicted_counts(counts)) if n]
    if len(predicted) == 1:
        log.warning("every %s prediction is %s: the model scores as a constant predictor",
                    what, names[predicted[0]])


def kfold_split(labels: list[int], k: int = 5, seed: int = 0) -> list[list[int]]:
    """Stratified fold assignment over item indices.

    Items of each class are shuffled with the derived seed and dealt
    round-robin, so per-class counts across folds differ by at most 1.
    """
    n = len(labels)
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    if n < k:
        raise DataError(f"dataset of {n} items cannot be split into {k} folds")
    rng = make_rng(seed, "kfold")
    folds: list[list[int]] = [[] for _ in range(k)]
    next_fold = 0
    for cls in sorted(set(labels)):
        members = [i for i, lab in enumerate(labels) if lab == cls]
        order = rng.permutation(len(members))
        for j in order:
            folds[next_fold].append(members[j])
            next_fold = (next_fold + 1) % k
    return [sorted(f) for f in folds]


def aggregate_folds(fold_metrics: list[dict]) -> dict:
    """Mean and population std of scalar metrics across folds."""
    if not fold_metrics:
        raise DataError("no fold metrics to aggregate")
    agg = {"folds": fold_metrics, "k": len(fold_metrics)}
    for key in ("accuracy", "weighted_f1", "macro_f1"):
        values = [m[key] for m in fold_metrics]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        agg[key] = {"mean": mean, "std": math.sqrt(var)}
    return agg


def cross_validate(items, labels, train_fn, k: int = 5, seed: int = 0) -> dict:
    """k-fold CV: train on k-1 folds, score the held-out one, aggregate.

    `train_fn(train_items, fold_seed)` returns a predictor mapping an item to
    (true_class, pred_class) pairs over the `Rank` classes; it is given a
    per-fold derived seed. The predictor is called once per held-out item; the
    trained one (`cli.make_trained_predictor`) predicts all of the fold's
    held-out items in one batched call on its first. A BreakscoreError from
    training or prediction is raised again, of its type, naming the fold. A
    fold whose items give no pair is a DataError. With a
    second CPU free, a forked worker runs the odd folds while this process runs
    the even ones, both on one BLAS thread; the report is the same either way.
    """
    folds = kfold_split(labels, k=k, seed=seed)

    def fold_metrics(fi: int) -> dict:
        test_set = set(folds[fi])
        train_items = [it for i, it in enumerate(items) if i not in test_set]
        try:
            predictor = train_fn(train_items, make_rng(seed, f"fold{fi}").integers(2**31))
        except BreakscoreError as e:
            # Keep the error's type, so its exit code survives the fold wrapper.
            raise type(e)(f"training failed on fold {fi}: {e}") from e
        try:
            pairs = [pair for i in folds[fi] for pair in predictor(items[i])]
        except BreakscoreError as e:
            raise type(e)(f"prediction failed on fold {fi}: {e}") from e
        if not pairs:
            raise DataError(f"fold {fi}: its {len(folds[fi])} test items give nothing to score")
        return compute_metrics(confusion(pairs, len(Rank)))

    with shards.one_blas_thread() as pinned:
        if not pinned or shards.usable_cpus() < 2:
            log.debug("%d folds on 1 process", k)
            fold_results = [fold_metrics(fi) for fi in range(k)]
        else:
            log.debug("%d folds on 2 processes", k)
            fold_results = [None] * k
            with shards.ShardWorker(fold_metrics, "fold") as worker:
                for fi in range(1, k, 2):
                    worker.submit(fi)
                for fi in range(0, k, 2):
                    fold_results[fi] = fold_metrics(fi)
                for fi in range(1, k, 2):
                    fold_results[fi] = worker.result()
    warn_if_one_class(pooled_confusion(fold_results), [r.label for r in Rank], "cross-validation")
    return aggregate_folds(fold_results)


def format_report(agg: dict, title: str = "evaluation") -> str:
    """Human-readable mean(std) table plus per-category precision/recall, and
    how many predictions fell in each category."""
    lines = [f"== {title} ({agg['k']}-fold) =="]
    lines.append(f"{'metric':<18}{'avg.(std)':>16}")
    for key, name in (
        ("accuracy", "Accuracy"),
        ("weighted_f1", "F-Score(weighted)"),
        ("macro_f1", "F-Score(macro)"),
    ):
        m = agg[key]
        lines.append(f"{name:<18}{100 * m['mean']:10.1f}({100 * m['std']:.2f})")
    # Per-category table pooled over folds.
    pooled = pooled_confusion(agg["folds"])
    lines.append(f"{'Category':<10}{'Precision':>10}{'Recall':>10}")
    for rank, pc in zip(Rank, per_class_prf(pooled), strict=True):
        lines.append(f"{rank.label:<10}{100 * pc['precision']:>9.1f}%{100 * pc['recall']:>9.1f}%")
    counts = zip(Rank, predicted_counts(pooled), strict=True)
    lines.append("Predicted: " + ", ".join(f"{rank.label} {n}" for rank, n in counts))
    return "\n".join(lines)
