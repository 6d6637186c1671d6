"""The SQL-path scoring oracle: fitted models compiled to engine expressions.

A trained linear model becomes a plain
column expression (``w0 + w1*x1 + ...``) the engine evaluates with its
own vectorized operators — no model object needed at serving time, and
the scoring 'query' can be composed with filters and joins like any
other expression. The serving tests pin
``repro.serving.compile_linear_scorer`` to this strictly left-to-right
sum; nothing under ``src/`` needs it, so it lives beside the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.lifecycle.registry import ModelVersion
from repro.ml.losses import sigmoid
from repro.storage.expressions import Expr, col, lit
from repro.storage.table import Table


def _unwrap_model(model, feature_columns: Sequence[str] | None):
    """Accept either a bare model or a registry :class:`ModelVersion`.

    A version entry contributes its embedded model object, and — when
    the caller names no columns — the ``feature_columns`` recorded in
    its params, so ``score_linear_model(table, registry.deployed("m"))``
    is a complete deployment call.
    """
    if isinstance(model, ModelVersion):
        if model.model is None:
            raise ModelError(
                f"registry entry {model.identifier} carries no model object"
            )
        if feature_columns is None:
            feature_columns = model.params.get("feature_columns")
        model = model.model
    return model, feature_columns


def linear_expression(
    coef: np.ndarray, intercept: float, feature_columns: Sequence[str]
) -> Expr:
    """The affine score ``intercept + sum(coef_i * column_i)`` as an Expr."""
    coef = np.asarray(coef, dtype=np.float64)
    if len(coef) != len(feature_columns):
        raise ModelError(
            f"{len(coef)} coefficients for {len(feature_columns)} columns"
        )
    expr: Expr = lit(float(intercept))
    for weight, name in zip(coef, feature_columns):
        expr = expr + float(weight) * col(name)
    return expr


def score_linear_model(
    table: Table,
    model,
    feature_columns: Sequence[str] | None = None,
    output_column: str = "score",
) -> Table:
    """Append a fitted linear/logistic model's raw score as a column.

    Works with any estimator exposing ``coef_`` and ``intercept_``
    (LinearRegression, Ridge, LogisticRegression, the in-DB GLMs), or a
    registry :class:`~repro.lifecycle.ModelVersion` wrapping one
    (``registry.deployed("churn")`` scores in one call; columns come from
    the entry's ``feature_columns`` param when not given). For
    classifiers the appended value is the *margin*; use
    :func:`score_probability` for calibrated probabilities.
    """
    model, feature_columns = _unwrap_model(model, feature_columns)
    if not hasattr(model, "coef_"):
        raise ModelError("model must be fitted and expose coef_/intercept_")
    columns = list(
        feature_columns
        if feature_columns is not None
        else getattr(model, "feature_columns_", [])
    )
    if not columns:
        raise ModelError(
            "feature_columns required (model records none)"
        )
    expr = linear_expression(model.coef_, model.intercept_, columns)
    return table.with_column(output_column, expr.evaluate(table))


def score_probability(
    table: Table,
    model,
    feature_columns: Sequence[str] | None = None,
) -> Table:
    """Append sigmoid(margin): P(positive class) for logistic models, as
    column ``"probability"``."""
    scored = score_linear_model(
        table, model, feature_columns, output_column="_margin"
    )
    p = sigmoid(scored.column("_margin"))
    return scored.drop(["_margin"]).with_column("probability", p)
