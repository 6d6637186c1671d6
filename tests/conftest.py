"""Shared fixtures for the test suite, and the chaos job's ``SITES``
coverage check (``--sites-coverage``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import (
    make_classification,
    make_regression,
    make_star_schema,
)
from repro.resilience import SITES, ChaosContext
from repro.storage import Table


def pytest_addoption(parser):
    parser.addoption(
        "--sites-coverage",
        action="store_true",
        help="fail the session, naming the rows, unless a fault plan "
        "that reaches it decided every repro.resilience.SITES row",
    )


#: SITES rows a fault plan has decided this session; None when the
#: session does not check coverage.
_decided: set[str] | None = None
_TASK = "parallel.task."


def pytest_configure(config):
    """Record at ``ChaosContext.decide`` (only runs under an installed
    plan, so the disabled ``fault_point`` path is untouched); a
    ``parallel.task.<x>`` decision also counts for row ``<x>``."""
    global _decided
    if not config.getoption("--sites-coverage"):
        return
    _decided = set()
    decide = ChaosContext.decide

    def recording(self, site, key=None):
        if self.plan.specs_for(site):
            rows = {site}
            if site.startswith(_TASK):
                rows |= {_TASK + "*", site[len(_TASK):]}
            _decided.update(rows & SITES.keys())
        return decide(self, site, key)

    config.add_cleanup(lambda: setattr(ChaosContext, "decide", decide))
    ChaosContext.decide = recording


def _undecided() -> list[str]:
    return [] if _decided is None else sorted(SITES.keys() - _decided)


def pytest_sessionfinish(session):
    if _undecided():
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _undecided():
        terminalreporter.section("SITES coverage", red=True)
        terminalreporter.write_line(
            "no fault plan decided: " + ", ".join(_undecided())
        )


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
