"""Confusion-matrix metrics, stratified folds, fold aggregation."""
import logging
import math

import numpy as np
import pytest
from conftest import blas_threads

from breakscore import shards
from breakscore.exceptions import DataError, NumericError
from breakscore.metrics import (
    aggregate_folds,
    compute_metrics,
    confusion,
    cross_validate,
    format_report,
    kfold_split,
    per_class_prf,
)
from breakscore.ranks import Rank, class_to_rank, rank_to_class
from breakscore.rngs import make_rng

# Whether cross_validate can run folds on a forked worker here.
FOLD_WORKER = shards.usable_cpus() >= 2 and blas_threads() is not None


def brute_force_metrics(true, pred, n_classes=3):
    """Independent oracle computed straight from the definitions."""
    n = len(true)
    acc = sum(t == p for t, p in zip(true, pred)) / n
    f1s, supports = [], []
    for c in range(n_classes):
        tp = sum(t == c and p == c for t, p in zip(true, pred))
        fp = sum(t != c and p == c for t, p in zip(true, pred))
        fn = sum(t == c and p != c for t, p in zip(true, pred))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        f1s.append(f1)
        supports.append(tp + fn)
    macro = sum(f1s) / n_classes
    weighted = sum(f * s for f, s in zip(f1s, supports)) / n
    return acc, macro, weighted


class TestComputeMetrics:
    def test_fixed_matrix(self):
        # rows true, cols predicted
        m = compute_metrics([[2, 1, 0], [0, 3, 0], [1, 0, 3]])
        assert m["accuracy"] == pytest.approx(0.8)
        # per-class F1: c0 2/3*2/3 -> 2/3; c1 3/4,1 -> 6/7; c2 1,3/4 -> 6/7
        assert m["macro_f1"] == pytest.approx((2 / 3 + 6 / 7 + 6 / 7) / 3)
        assert m["weighted_f1"] == pytest.approx((2 / 3 * 3 + 6 / 7 * 3 + 6 / 7 * 4) / 10)
        assert m["predicted"] == [3, 4, 3]

    def test_zero_denominators_define_zero(self):
        # Class 2 never predicted and never true: P=R=F1=0, still in macro.
        m = compute_metrics([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        assert m["per_class"][2] == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0}
        assert m["macro_f1"] == pytest.approx(2 / 3)
        assert m["accuracy"] == 1.0

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            true = rng.integers(0, 3, size=n).tolist()
            pred = rng.integers(0, 3, size=n).tolist()
            m = compute_metrics(confusion(zip(true, pred), 3))
            acc, macro, weighted = brute_force_metrics(true, pred)
            assert m["accuracy"] == pytest.approx(acc)
            assert m["macro_f1"] == pytest.approx(macro)
            assert m["weighted_f1"] == pytest.approx(weighted)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            compute_metrics(confusion([], 3))

    def test_out_of_range_class(self):
        with pytest.raises(DataError):
            confusion([(0, 0), (3, 0)], 3)


class TestKFold:
    def test_partition(self):
        labels = [0] * 10 + [1] * 7 + [2] * 3
        folds = kfold_split(labels, k=5, seed=0)
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(20))

    def test_stratification_within_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=57).tolist()
        folds = kfold_split(labels, k=5, seed=3)
        for cls in range(3):
            counts = [sum(labels[i] == cls for i in f) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        labels = [0, 1, 2] * 10
        assert kfold_split(labels, k=4, seed=5) == kfold_split(labels, k=4, seed=5)
        assert kfold_split(labels, k=4, seed=5) != kfold_split(labels, k=4, seed=6)

    def test_too_few_items(self):
        with pytest.raises(DataError):
            kfold_split([0, 1], k=3)


class TestAggregate:
    def test_population_std(self):
        folds = [dict(accuracy=a, weighted_f1=a, macro_f1=a) for a in (0.5, 0.7, 0.9)]
        agg = aggregate_folds(folds)
        assert agg["accuracy"]["mean"] == pytest.approx(0.7)
        # population std of (0.5, 0.7, 0.9)
        assert agg["accuracy"]["std"] == pytest.approx(math.sqrt(0.08 / 3))

    def test_report_contains_tables(self):
        folds = [[[2, 1, 0], [0, 3, 0], [1, 0, 3]], [[0, 0, 1], [2, 1, 0], [0, 0, 4]]]
        text = format_report(aggregate_folds([compute_metrics(cm) for cm in folds]), title="t")
        assert "Accuracy" in text and "Precision" in text and "Recall" in text
        # Pooled [[2, 1, 1], [2, 4, 0], [1, 0, 7]]: precision and recall are
        # Poor 2/5 and 2/4, Fair 4/5 and 4/6, Great 7/8 and 7/8; the column
        # sums are the predicted counts.
        assert text.splitlines()[-4:] == [
            "Poor           40.0%     50.0%",
            "Fair           80.0%     66.7%",
            "Great          87.5%     87.5%",
            "Predicted: Poor 5, Fair 5, Great 8",
        ]


class TestCrossValidate:
    def test_perfect_predictor(self):
        items = list(range(30))
        labels = [i % 3 for i in items]

        def train_fn(train_items, fold_seed):
            return lambda item: [(item % 3, item % 3)]

        agg = cross_validate(items, labels, train_fn, k=5, seed=0)
        assert agg["accuracy"]["mean"] == 1.0 and agg["accuracy"]["std"] == 0.0

    def test_fold_seeds_differ_but_are_stable(self, monkeypatch):
        # `seen` collects only this process's folds, so all of them run here.
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        items = list(range(12))
        labels = [i % 2 for i in items]
        seen: list[int] = []

        def train_fn(train_items, fold_seed):
            seen.append(int(fold_seed))
            return lambda item: [(0, 0)]

        cross_validate(items, labels, train_fn, k=3, seed=4)
        first = list(seen)
        seen.clear()
        cross_validate(items, labels, train_fn, k=3, seed=4)
        assert seen == first
        assert len(set(first)) == 3

    @pytest.mark.parametrize(
        "raised, expected", [(NumericError, NumericError), (DataError, DataError)],
    )
    def test_fold_failure_keeps_pipeline_error_type(self, raised, expected):
        items = list(range(6))

        def train_fn(train_items, fold_seed):
            raise raised("boom")

        with pytest.raises(expected, match="fold 0: boom") as info:
            cross_validate(items, [i % 2 for i in items], train_fn, k=2)
        assert type(info.value) is expected

    def test_report_same_with_and_without_fold_worker(self, monkeypatch, caplog):
        # Predictions depend on the fold seed, so the reports agree only if each
        # fold got its own seed on both paths and came back in fold order.
        items = list(range(40))
        labels = [i % 3 for i in items]

        def train_fn(train_items, fold_seed):
            return lambda item: [(item % 3, (item + int(fold_seed) % (item + 2)) % 3)]

        caplog.set_level(logging.DEBUG, logger="breakscore.metrics")
        default = cross_validate(items, labels, train_fn, k=5, seed=7)
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        alone = cross_validate(items, labels, train_fn, k=5, seed=7)
        assert default == alone
        assert len({f["accuracy"] for f in alone["folds"]}) > 1
        assert "5 folds on 1 process" in caplog.messages
        assert ("5 folds on 2 processes" in caplog.messages) == FOLD_WORKER

    @pytest.mark.parametrize("raised, match", [
        (DataError, "^training failed on fold 1: boom$"), (ValueError, "^boom$"),
    ], ids=["pipeline-error", "programming-fault"])
    def test_failure_in_fold_1_keeps_its_type_and_fold(self, raised, match):
        # Fold 1 is the first fold the fold worker runs.
        items = list(range(20))
        fold1_seed = make_rng(3, "fold1").integers(2**31)

        def train_fn(train_items, fold_seed):
            if fold_seed == fold1_seed:
                raise raised("boom")
            return lambda item: [(item % 2, item % 2)]

        with pytest.raises(raised, match=match) as info:
            cross_validate(items, [i % 2 for i in items], train_fn, k=4, seed=3)
        assert type(info.value) is raised

    def test_fold_with_nothing_to_score_names_the_fold(self, monkeypatch):
        # Items 0-7 give no pair, as one-word items do under the fine head.
        # Stratified on the class, items 8 and 9 go to folds 0 and 1, so
        # fold 2 is the first with nothing to score on either path.
        items = list(range(10))
        labels = [1] * 8 + [0] * 2

        def train_fn(train_items, fold_seed):
            return lambda item: [(0, 0)] if item >= 8 else []

        for cpus in (2, 1):
            monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
            with pytest.raises(DataError, match="^fold 2: its 2 test items give nothing to score$"):
                cross_validate(items, labels, train_fn, k=5)

    @pytest.mark.parametrize("predicted, warned", [((2,), True), ((0, 2), False)])
    def test_warns_once_when_every_fold_predicts_one_class(self, caplog, predicted, warned):
        items = list(range(12))

        def train_fn(train_items, fold_seed):
            return lambda item: [(item % 3, predicted[item % len(predicted)])]

        cross_validate(items, [i % 3 for i in items], train_fn, k=3)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == warned * ["every cross-validation prediction is Great: the model "
                                     "scores as a constant predictor"]

    def test_fold_programming_fault_is_not_a_data_error(self):
        # Any other exception is a bug, not bad input: it leaves unwrapped.
        items = list(range(6))

        def train_fn(train_items, fold_seed):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="^boom$"):
            cross_validate(items, [i % 2 for i in items], train_fn, k=2)


def test_rank_tables():
    assert [r.label for r in Rank] == ["Poor", "Fair", "Great"]
    assert [class_to_rank(c) for c in range(3)] == [Rank.POOR, Rank.FAIR, Rank.GREAT]
    assert all(class_to_rank(rank_to_class(r)) is r for r in Rank)
    for c in (3, -1):
        with pytest.raises(ValueError, match="not a rank class"):
            class_to_rank(c)
