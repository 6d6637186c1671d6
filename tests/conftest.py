"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import (
    make_classification,
    make_regression,
    make_star_schema,
)
from repro.storage import Table


@pytest.fixture(autouse=True)
def _reset_observability():
    """Isolate tests from the process-global metrics registry and tracer.

    Instrumented layers publish into shared state, so without this a test
    would see counters accumulated by whichever tests ran before it.
    """
    obs.reset()
    obs.set_tracing(None)  # re-read REPRO_TRACE, undo explicit toggles
    yield
    obs.reset()
    obs.set_tracing(None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def regression_data():
    """(X, y, true_weights) for a small, low-noise regression task."""
    return make_regression(n_samples=300, n_features=6, noise=0.05, seed=7)


@pytest.fixture
def classification_data():
    """(X, y) for a well-separated binary classification task."""
    return make_classification(n_samples=300, n_features=5, separation=4.0, seed=7)


@pytest.fixture
def star():
    """A small regression star schema."""
    return make_star_schema(n_s=400, n_r=40, d_s=3, d_r=6, seed=7)


@pytest.fixture
def people_table() -> Table:
    return Table.from_columns(
        {
            "id": [1, 2, 3, 4, 5],
            "age": [25, 32, 41, 25, 60],
            "city": ["paris", "lyon", "paris", "nice", "lyon"],
            "income": [30.0, 45.5, 52.0, 28.0, 75.0],
        }
    )


@pytest.fixture
def cities_table() -> Table:
    return Table.from_columns(
        {
            "city": ["paris", "lyon", "nice"],
            "region": ["idf", "ara", "paca"],
            "population": [2100, 520, 340],
        }
    )
