"""Unit tests for the estimator protocol in repro.ml.base."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import LinearRegression, LogisticRegression
from repro.ml.base import as_pm_one, check_X_y


class TestParamProtocol:
    def test_get_params_reflects_constructor(self):
        model = LogisticRegression(l2=0.5, max_iter=77)
        params = model.get_params()
        assert params["l2"] == 0.5
        assert params["max_iter"] == 77

    def test_set_params_chains(self):
        model = LinearRegression().set_params(l2=2.0, solver="qr")
        assert model.l2 == 2.0
        assert model.solver == "qr"

    def test_set_params_unknown_raises(self):
        with pytest.raises(ModelError, match="no hyperparameter"):
            LinearRegression().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self, regression_data):
        X, y, _ = regression_data
        model = LinearRegression(l2=0.3).fit(X, y)
        clone = model.clone()
        assert clone.l2 == 0.3
        assert not clone.is_fitted
        assert model.is_fitted

    def test_param_names_are_read_once_per_class(self):
        """The names are memoized per class: a caller's edit of one
        ``get_params()`` result reaches neither the next call nor the
        names, and a subclass with its own ``__init__`` has its own."""
        model = LinearRegression(l2=0.5)
        params = model.get_params()
        params["l2"] = 9.0
        del params["solver"]
        assert model.get_params()["l2"] == 0.5
        assert "solver" in model.get_params()
        assert LinearRegression._param_names() is model._param_names()

        class Narrow(LinearRegression):
            def __init__(self, l2=0.0, tag="x"):
                super().__init__(l2=l2)
                self.tag = tag

        assert Narrow._param_names() == ("l2", "tag")
        assert Narrow(tag="y").get_params() == {"l2": 0.0, "tag": "y"}
        assert "tag" not in LinearRegression._param_names()

    def test_clone_params_are_deep_copied(self):
        model = LinearRegression(l2=0.1)
        clone = model.clone()
        clone.set_params(l2=9.0)
        assert model.l2 == 0.1


class TestValidation:
    def test_check_X_y_coerces_dtype(self):
        X, y = check_X_y([[1, 2], [3, 4]], [1, 0])
        assert X.dtype == np.float64

    def test_check_X_y_dim_validation(self):
        with pytest.raises(ModelError):
            check_X_y(np.ones(3), np.ones(3))
        with pytest.raises(ModelError):
            check_X_y(np.ones((3, 2)), np.ones((3, 1)))

    def test_check_X_y_length_mismatch(self):
        with pytest.raises(ModelError):
            check_X_y(np.ones((3, 2)), np.ones(4))

    def test_as_pm_one_mapping(self):
        mapped, classes = as_pm_one(np.array(["no", "yes", "no"]))
        assert classes.tolist() == ["no", "yes"]
        assert mapped.tolist() == [-1.0, 1.0, -1.0]

    def test_as_pm_one_requires_binary(self):
        with pytest.raises(ModelError):
            as_pm_one(np.array([0, 1, 2]))
