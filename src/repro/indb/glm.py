"""High-level in-database GLM estimators over relational tables.

These wrap the UDA machinery with a fit/predict interface keyed by column
names, the way MADlib exposes ``linregr_train`` / ``logregr_train``:
models are trained by aggregation passes over a table and predict by
appending a column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError, NotFittedError
from ..ml.linreg import solve_normal
from ..ml.losses import LogisticLoss, SquaredLoss, sigmoid
from ..runtime.parallel import ParallelContext
from ..storage.table import Table
from .gradient import IGDResult, train_bgd, train_igd
from .uda import GramUDA, run_uda


class InDBLinearRegression:
    """Linear regression trained by a single Gram-accumulation scan.

    The normal-equation sufficient statistics (X'X, X'y) are computed by
    one UDA pass — the MADlib pattern for closed-form models.
    """

    def __init__(self, l2: float = 0.0, add_intercept: bool = True):
        self.l2 = l2
        self.add_intercept = add_intercept

    def fit(
        self,
        table: Table,
        feature_columns: Sequence[str],
        label_column: str,
        partitions: int = 1,
        parallel: bool | ParallelContext = False,
    ) -> "InDBLinearRegression":
        if not feature_columns:
            raise ModelError("need at least one feature column")
        work = table
        features = list(feature_columns)
        if self.add_intercept:
            work = table.with_column("_intercept", np.ones(table.num_rows))
            features = ["_intercept", *features]
        stats = run_uda(
            work,
            GramUDA(),
            [*features, label_column],
            partitions=partitions,
            parallel=parallel,
        )
        gram = stats["gram"]
        if self.l2 > 0:
            penalty = self.l2 * np.eye(len(gram))
            if self.add_intercept:
                penalty[0, 0] = 0.0
            gram = gram + penalty
        weights = solve_normal(gram, stats["xty"])
        self.feature_columns_ = list(feature_columns)
        if self.add_intercept:
            self.intercept_ = float(weights[0])
            self.coef_ = weights[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = weights
        return self

    def predict(self, table: Table, output_column: str = "prediction") -> Table:
        """Table with a prediction column appended."""
        self._check_fitted()
        X = table.to_matrix(self.feature_columns_)
        return table.with_column(output_column, X @ self.coef_ + self.intercept_)

    def score(self, table: Table, label_column: str) -> float:
        from ..ml.metrics import r2_score

        self._check_fitted()
        X = table.to_matrix(self.feature_columns_)
        return r2_score(
            table.column(label_column).astype(float),
            X @ self.coef_ + self.intercept_,
        )

    def _check_fitted(self) -> None:
        if not hasattr(self, "coef_"):
            raise NotFittedError("fit must be called before predict/score")


class InDBLogisticRegression:
    """Logistic regression trained in-database by IGD or BGD aggregates.

    Labels may be any two values; ``classes_[1]`` is the positive class.
    """

    def __init__(
        self,
        method: str = "igd",
        epochs: int = 20,
        learning_rate: float = 0.1,
        decay: float = 0.5,
        l2: float = 0.0,
        shuffle: str = "once",
        partitions: int = 1,
        seed: int | None = 0,
        parallel: bool | ParallelContext = False,
    ):
        if method not in ("igd", "bgd"):
            raise ModelError(f"method must be 'igd' or 'bgd', got {method!r}")
        self.method = method
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.decay = decay
        self.l2 = l2
        self.shuffle = shuffle
        self.partitions = partitions
        self.seed = seed
        self.parallel = parallel

    def fit(
        self, table: Table, feature_columns: Sequence[str], label_column: str
    ) -> "InDBLogisticRegression":
        labels = table.column(label_column)
        classes = np.unique(labels)
        if len(classes) != 2:
            raise ModelError(f"need exactly 2 classes, got {len(classes)}")
        self.classes_ = classes
        pm = np.where(labels == classes[1], 1.0, -1.0)
        work = table.with_column("_label_pm", pm)

        if self.method == "igd":
            result = train_igd(
                work,
                feature_columns,
                "_label_pm",
                LogisticLoss(),
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                decay=self.decay,
                l2=self.l2,
                shuffle=self.shuffle,
                partitions=self.partitions,
                seed=self.seed,
                parallel=self.parallel,
            )
        else:
            result = train_bgd(
                work,
                feature_columns,
                "_label_pm",
                LogisticLoss(),
                iterations=self.epochs,
                learning_rate=self.learning_rate,
                l2=self.l2,
                partitions=self.partitions,
                parallel=self.parallel,
            )
        self.result_: IGDResult = result
        self.feature_columns_ = list(feature_columns)
        self.intercept_ = float(result.weights[0])
        self.coef_ = result.weights[1:]
        return self

    def predict_proba(self, table: Table) -> np.ndarray:
        self._check_fitted()
        X = table.to_matrix(self.feature_columns_)
        return sigmoid(X @ self.coef_ + self.intercept_)

    def predict(self, table: Table, output_column: str = "prediction") -> Table:
        p = self.predict_proba(table)
        labels = np.where(p >= 0.5, self.classes_[1], self.classes_[0])
        return table.with_column(output_column, labels)

    def score(self, table: Table, label_column: str) -> float:
        self._check_fitted()
        p = self.predict_proba(table)
        predicted = np.where(p >= 0.5, self.classes_[1], self.classes_[0])
        return float(np.mean(predicted == table.column(label_column)))

    def _check_fitted(self) -> None:
        if not hasattr(self, "coef_"):
            raise NotFittedError("fit must be called before predict/score")


def train_linear_svm_indb(
    table: Table,
    feature_columns: Sequence[str],
    label_column: str,
    epochs: int = 20,
    learning_rate: float = 0.1,
    l2: float = 0.01,
    shuffle: str = "once",
    partitions: int = 1,
    seed: int | None = 0,
    parallel: bool | ParallelContext = False,
) -> IGDResult:
    """Linear SVM via the same IGD aggregate with the hinge loss.

    Demonstrates Bismarck's unification claim: swapping the loss object is
    the *only* change needed to train a different model in-database.
    Labels must already be in {-1, +1}.
    """
    from ..ml.losses import HingeLoss

    return train_igd(
        table,
        feature_columns,
        label_column,
        HingeLoss(),
        epochs=epochs,
        learning_rate=learning_rate,
        l2=l2,
        shuffle=shuffle,
        partitions=partitions,
        seed=seed,
        parallel=parallel,
    )


def train_linreg_igd_indb(
    table: Table,
    feature_columns: Sequence[str],
    label_column: str,
    epochs: int = 20,
    learning_rate: float = 0.05,
    shuffle: str = "once",
    partitions: int = 1,
    seed: int | None = 0,
    parallel: bool | ParallelContext = False,
) -> IGDResult:
    """Least squares via the IGD aggregate with the squared loss."""
    return train_igd(
        table,
        feature_columns,
        label_column,
        SquaredLoss(),
        epochs=epochs,
        learning_rate=learning_rate,
        shuffle=shuffle,
        partitions=partitions,
        seed=seed,
        parallel=parallel,
    )
