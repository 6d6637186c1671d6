"""Unit tests for stratified cross-validation."""

import numpy as np
import pytest

from repro.data import make_classification
from repro.errors import SelectionError
from repro.selection import StratifiedKFold


class TestStratifiedKFold:
    @pytest.fixture
    def imbalanced_labels(self, rng):
        return np.array([0] * 90 + [1] * 10)

    def test_partitions_all_rows(self, imbalanced_labels):
        folds = StratifiedKFold(5, seed=1).folds(imbalanced_labels)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(100))

    def test_every_fold_has_minority_examples(self, imbalanced_labels):
        cv = StratifiedKFold(5, seed=2)
        for fold in cv.folds(imbalanced_labels):
            labels = imbalanced_labels[fold]
            assert (labels == 1).sum() == 2  # 10 minority / 5 folds

    def test_proportions_preserved(self, imbalanced_labels):
        cv = StratifiedKFold(5, seed=3)
        for train, test in cv.split(imbalanced_labels):
            ratio = np.mean(imbalanced_labels[test] == 1)
            assert ratio == pytest.approx(0.1, abs=0.02)
            assert not set(train) & set(test)

    def test_too_few_minority_rows_rejected(self):
        y = np.array([0] * 20 + [1] * 2)
        with pytest.raises(SelectionError, match="need >="):
            StratifiedKFold(5).folds(y)

    def test_n_splits_validation(self):
        with pytest.raises(SelectionError):
            StratifiedKFold(1)

    def test_plain_kfold_can_starve_a_fold_stratified_cannot(self):
        from repro.selection import KFold

        y = np.array([0] * 96 + [1] * 4)
        # With 4 minority rows and 4 folds, some random seed starves a
        # fold under plain KFold eventually; stratified never does.
        cv = StratifiedKFold(4, seed=0)
        for fold in cv.folds(y):
            assert (y[fold] == 1).sum() == 1
