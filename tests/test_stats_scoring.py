"""Unit tests for the SQL-path scoring oracle (``tests/sql_scoring.py``)."""

import numpy as np
import pytest

from repro.data import make_classification, make_regression
from repro.errors import ModelError
from repro.indb import InDBLogisticRegression
from repro.ml import LinearRegression, LogisticRegression
from repro.storage import Table, filter_rows
from tests.sql_scoring import (
    linear_expression,
    score_linear_model,
    score_probability,
)


class TestInDBScoring:
    @pytest.fixture
    def reg_setup(self):
        X, y, _ = make_regression(300, 3, seed=91)
        table = Table.from_columns(
            {"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "y": y}
        )
        model = LinearRegression().fit(X, y)
        return table, X, model

    def test_linear_expression_matches_predict(self, reg_setup):
        table, X, model = reg_setup
        scored = score_linear_model(
            table, model, ["a", "b", "c"], output_column="yhat"
        )
        assert np.allclose(scored.column("yhat"), model.predict(X))

    def test_expression_composes_with_filters(self, reg_setup):
        table, X, model = reg_setup
        expr = linear_expression(model.coef_, model.intercept_, ["a", "b", "c"])
        high = filter_rows(table, expr > 1.0)
        assert np.all(model.predict(high.to_matrix(["a", "b", "c"])) > 1.0)

    def test_probability_scoring(self):
        X, y = make_classification(300, 3, separation=3.0, seed=92)
        table = Table.from_columns(
            {"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "y": y}
        )
        model = LogisticRegression().fit(X, y)
        scored = score_probability(table, model, ["a", "b", "c"])
        p = scored.column("probability")
        assert np.allclose(p, model.predict_proba(X))
        assert "_margin" not in scored.schema

    def test_indb_model_records_feature_columns(self):
        X, y = make_classification(200, 3, separation=3.0, seed=93)
        table = Table.from_columns(
            {"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "y": y}
        )
        model = InDBLogisticRegression(epochs=10).fit(table, ["a", "b", "c"], "y")
        scored = score_linear_model(table, model)  # columns inferred
        assert "score" in scored.schema

    def test_validation(self, reg_setup):
        table, _, model = reg_setup
        with pytest.raises(ModelError):
            score_linear_model(table, LinearRegression())  # unfitted
        with pytest.raises(ModelError):
            linear_expression(np.ones(2), 0.0, ["a", "b", "c"])
        with pytest.raises(ModelError):
            score_linear_model(table, model)  # no recorded columns

    def test_registry_entry_scores_directly(self, reg_setup):
        from repro.lifecycle import ModelRegistry

        table, X, model = reg_setup
        registry = ModelRegistry()
        registry.register(
            "reg", model, params={"feature_columns": ["a", "b", "c"]}
        )
        registry.deploy("reg", 1)
        scored = score_linear_model(table, registry.deployed("reg"))
        direct = score_linear_model(table, model, ["a", "b", "c"])
        assert np.array_equal(scored.column("score"), direct.column("score"))
        # explicit columns override the recorded params
        explicit = score_linear_model(
            table, registry.get("reg", 1), ["a", "b", "c"]
        )
        assert np.array_equal(
            explicit.column("score"), direct.column("score")
        )

    def test_registry_entry_without_model_rejected(self):
        from repro.lifecycle.registry import ModelVersion

        table = Table.from_columns({"a": np.ones(3)})
        entry = ModelVersion(name="m", version=1, model=None)
        with pytest.raises(ModelError, match="no model object"):
            score_linear_model(table, entry, ["a"])
