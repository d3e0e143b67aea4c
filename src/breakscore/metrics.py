"""Rank metrics: confusion matrices, accuracy, weighted/macro F1, k-fold CV.

Zero-denominator precision/recall/F1 are defined as 0; a zero-support class
still counts toward macro F1. Fold std is the population standard deviation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import BreakscoreError, DataError
from .rngs import make_rng


@dataclass(frozen=True)
class EvalConfig:
    k: int = 5   # cross-validation folds

    def __post_init__(self):
        if self.k < 2:
            raise DataError(f"k must be >= 2, got {self.k}")


@dataclass
class ConfusionMatrix:
    """Square count matrix; rows are true classes, columns predicted."""

    counts: list[list[int]]

    @classmethod
    def zeros(cls, n_classes: int = 3) -> "ConfusionMatrix":
        return cls([[0] * n_classes for _ in range(n_classes)])

    @classmethod
    def from_pairs(cls, true, pred, n_classes: int = 3) -> "ConfusionMatrix":
        cm = cls.zeros(n_classes)
        for t, p in zip(true, pred, strict=True):
            if not (0 <= t < n_classes and 0 <= p < n_classes):
                raise DataError(f"class out of range: true={t} pred={p}")
            cm.counts[t][p] += 1
        return cm

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_class_prf(cm: ConfusionMatrix) -> list[dict]:
    """Precision/recall/F1/support for every class."""
    out = []
    for c in range(cm.n_classes):
        tp = cm.counts[c][c]
        col = sum(cm.counts[r][c] for r in range(cm.n_classes))
        row = sum(cm.counts[c])
        precision = _safe_div(tp, col)
        recall = _safe_div(tp, row)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        out.append({"precision": precision, "recall": recall, "f1": f1, "support": row})
    return out


def compute_metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy, weighted/macro F1, and the per-class table for one fold."""
    total = cm.total
    if total == 0:
        raise DataError("empty confusion matrix")
    per_class = per_class_prf(cm)
    accuracy = sum(cm.counts[c][c] for c in range(cm.n_classes)) / total
    macro_f1 = sum(pc["f1"] for pc in per_class) / cm.n_classes
    weighted_f1 = sum(pc["f1"] * pc["support"] for pc in per_class) / total
    return {
        "accuracy": accuracy,
        "weighted_f1": weighted_f1,
        "macro_f1": macro_f1,
        "per_class": per_class,
        "confusion": [list(row) for row in cm.counts],
        "total": total,
    }


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


def cross_validate(items, labels, train_fn, k: int = 5, seed: int = 0, n_classes: int = 3) -> dict:
    """k-fold CV: train on k-1 folds, score the held-out one, aggregate.

    `train_fn(train_items, fold_seed)` returns a predictor mapping an item to
    (true_class, pred_class) pairs; it is given a per-fold derived seed so folds
    may later run in parallel.
    """
    folds = kfold_split(labels, k=k, seed=seed)
    fold_metrics = []
    for fi, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_items = [it for i, it in enumerate(items) if i not in test_set]
        try:
            predictor = train_fn(train_items, make_rng(seed, f"fold{fi}").integers(2**31))
        except BreakscoreError as e:
            # Keep the error's type, so its exit code survives the fold wrapper.
            raise type(e)(f"training failed on fold {fi}: {e}") from e
        pairs = [pair for i in test_idx for pair in predictor(items[i])]
        cm = ConfusionMatrix.from_pairs([t for t, _ in pairs], [p for _, p in pairs], n_classes)
        fold_metrics.append(compute_metrics(cm))
    return aggregate_folds(fold_metrics)


def format_report(agg: dict, title: str = "evaluation") -> str:
    """Human-readable mean(std) table plus per-category precision/recall."""
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
    n_classes = len(agg["folds"][0]["per_class"])
    pooled = ConfusionMatrix.zeros(n_classes)
    for fm in agg["folds"]:
        for r in range(n_classes):
            for c in range(n_classes):
                pooled.counts[r][c] += fm["confusion"][r][c]
    names = ("Poor", "Fair", "Great") if n_classes == 3 else tuple(str(i) for i in range(n_classes))
    lines.append(f"{'Category':<10}{'Precision':>10}{'Recall':>10}")
    for c, pc in enumerate(per_class_prf(pooled)):
        lines.append(f"{names[c]:<10}{100 * pc['precision']:>9.1f}%{100 * pc['recall']:>9.1f}%")
    return "\n".join(lines)
