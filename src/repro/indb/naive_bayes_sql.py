"""Naive Bayes training by pure SQL-style aggregation.

The categorical-NB sufficient statistics are just counts: class counts
and per-(feature, value, class) counts — each obtainable with a GROUP BY
over the training table. This module trains NB by issuing exactly those
group-by queries against the relational substrate, demonstrating the
"ML through the query layer" approach the tutorial covers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..ml.naive_bayes import CategoricalNB
from ..storage.aggregates import agg
from ..storage.operators import group_by
from ..storage.table import Table
from .glm import _TableFed


class SQLNaiveBayes(_TableFed, CategoricalNB):
    """A :class:`~repro.ml.naive_bayes.CategoricalNB` whose ``fit`` is
    GROUP BY aggregation and whose inputs and outputs are tables."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ModelError("alpha must be positive")
        super().__init__(alpha)

    def fit(
        self, table: Table, feature_columns: Sequence[str], label_column: str
    ) -> "SQLNaiveBayes":
        if not feature_columns:
            raise ModelError("need at least one feature column")
        self.feature_columns_ = list(feature_columns)
        self.label_column_ = label_column

        # SELECT label, COUNT(*) FROM t GROUP BY label
        class_counts = group_by(table, [label_column], [agg("count")])
        self.classes_ = np.array(sorted(class_counts.column(label_column).tolist()))
        counts = dict(
            zip(class_counts.column(label_column), class_counts.column("count"))
        )
        self.class_count_ = np.array(
            [counts[c] for c in self.classes_], dtype=np.float64
        )
        total = float(self.class_count_.sum())
        self.class_log_prior_ = np.log(self.class_count_ / total)

        # Per feature: SELECT label, feature, COUNT(*) GROUP BY label, feature
        self.feature_counts_: list[dict] = []
        self.feature_cardinality_ = []
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for feature in feature_columns:
            grouped = group_by(table, [label_column, feature], [agg("count")])
            table_counts: dict = {}
            values = set()
            for label, value, count in zip(
                grouped.column(label_column),
                grouped.column(feature),
                grouped.column("count"),
            ):
                table_counts[(class_index[label], value)] = float(count)
                values.add(value)
            self.feature_counts_.append(table_counts)
            self.feature_cardinality_.append(len(values))
        return self

    def _rows(self, table: Table) -> np.ndarray:
        X = np.empty((table.num_rows, len(self.feature_columns_)), dtype=object)
        for j, feature in enumerate(self.feature_columns_):
            X[:, j] = table.column(feature)
        return X

    def _joint_log_likelihood(self, table: Table) -> np.ndarray:
        return super()._joint_log_likelihood(self._rows(table))

    def score(self, table: Table, label_column: str | None = None) -> float:
        self._check_fitted()
        return super().score(table, label_column or self.label_column_)
