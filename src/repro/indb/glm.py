"""High-level in-database GLM estimators over relational tables.

These wrap the UDA machinery with a fit/predict interface keyed by column
names, the way MADlib exposes ``linregr_train`` / ``logregr_train``:
models are trained by aggregation passes over a table and predict by
appending a column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..ml.base import LinearRegressor, LogisticClassifier, as_pm_one
from ..ml.losses import LogisticLoss
from ..runtime.parallel import ParallelContext
from ..storage.table import Table
from .gradient import IGDResult, train_bgd, train_igd
from .uda import GramUDA, run_uda


class _TableFed:
    """The table face of a fitted :mod:`repro.ml` model, mixed in ahead
    of it: features are read by column name, predictions go back as an
    appended column."""

    def _rows(self, table: Table) -> np.ndarray:
        return table.to_matrix(self.feature_columns_)

    def predict_labels(self, table: Table) -> np.ndarray:
        """Per-row predictions as a plain array."""
        return super().predict(table)

    def predict(self, table: Table, output_column: str = "prediction") -> Table:
        """Table with a prediction column appended."""
        return table.with_column(output_column, self.predict_labels(table))

    def score(self, table: Table, label_column: str) -> float:
        """The model's own metric against a label column."""
        return self._metric(
            table.column(label_column), self.predict_labels(table)
        )


class InDBLinearRegression(_TableFed, LinearRegressor):
    """Linear regression trained by a single Gram-accumulation scan.

    The normal-equation sufficient statistics (a
    :class:`~repro.ml.linreg.Moments`: X'X, X'y, y'y) are computed by
    one UDA pass — the MADlib pattern for closed-form models.
    """

    def __init__(self, l2: float = 0.0, add_intercept: bool = True):
        self.l2 = l2
        self.add_intercept = add_intercept

    @property
    def fit_intercept(self) -> bool:
        return self.add_intercept

    def fit(
        self,
        table: Table,
        feature_columns: Sequence[str],
        label_column: str,
        partitions: int = 1,
        parallel: ParallelContext | None = None,
    ) -> "InDBLinearRegression":
        if not feature_columns:
            raise ModelError("need at least one feature column")
        work = table
        features = list(feature_columns)
        if self.add_intercept:
            work = table.with_column("_intercept", np.ones(table.num_rows))
            features = ["_intercept", *features]
        moments = run_uda(
            work,
            GramUDA(),
            [*features, label_column],
            partitions=partitions,
            parallel=parallel,
        )
        self.feature_columns_ = list(feature_columns)
        self._unpack(moments.solve(self.l2, int(self.add_intercept)))
        return self


class InDBLogisticRegression(_TableFed, LogisticClassifier):
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
        parallel: ParallelContext | None = None,
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
        pm, self.classes_ = as_pm_one(table.column(label_column))
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
        self._unpack(result.weights)
        return self
