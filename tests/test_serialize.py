"""Unit tests for model serialization and registry persistence."""

import os

import numpy as np
import pytest

from repro import obs
from repro.data import (
    make_blobs,
    make_classification,
    make_grid_regression,
    make_regression,
)
from repro.errors import LifecycleError
from repro.factorized import (
    FactorizedLinearRegression,
    FactorizedLogisticRegression,
    NormalizedMatrix,
)
from repro.incremental import (
    ContinuousTrainer,
    DynamicTable,
    IncrementalMaintainer,
)
from repro.indb import InDBLinearRegression, InDBLogisticRegression
from repro.lifecycle import ModelRegistry, dumps_model, loads_model
from repro.ml import KMeans, LinearRegression, LogisticRegression, StandardScaler
from repro.runtime import OutOfCoreLinearRegression
from repro.storage import Table


class TestModelRoundTrip:
    def test_linear_regression(self, regression_data):
        X, y, _ = regression_data
        model = LinearRegression(l2=0.5).fit(X, y)
        restored = loads_model(dumps_model(model))
        assert np.array_equal(restored.coef_, model.coef_)
        assert restored.intercept_ == model.intercept_
        assert restored.l2 == 0.5
        assert np.array_equal(restored.predict(X), model.predict(X))

    def test_logistic_regression(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(l2=0.1).fit(X, y)
        restored = loads_model(dumps_model(model))
        assert np.array_equal(restored.predict(X), model.predict(X))
        assert np.array_equal(restored.classes_, model.classes_)

    def test_kmeans(self):
        X, _ = make_blobs(150, 3, centers=3, seed=1)
        model = KMeans(3, seed=1).fit(X)
        restored = loads_model(dumps_model(model))
        assert np.array_equal(restored.cluster_centers_, model.cluster_centers_)
        assert np.array_equal(restored.predict(X), model.predict(X))

    def test_scaler(self, rng):
        X = rng.standard_normal((40, 3)) * 5 + 2
        scaler = StandardScaler().fit(X)
        restored = loads_model(dumps_model(scaler))
        assert np.allclose(restored.transform(X), scaler.transform(X))

    def test_unfitted_model_roundtrip(self):
        restored = loads_model(dumps_model(LinearRegression(l2=3.0)))
        assert restored.l2 == 3.0
        assert not restored.is_fitted

    def test_string_classes_preserved(self, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "yes", "no")
        model = LogisticRegression().fit(X, labels)
        restored = loads_model(dumps_model(model))
        assert set(restored.predict(X)) <= {"yes", "no"}


class TestSafety:
    def test_unknown_class_rejected_at_dump(self):
        with pytest.raises(LifecycleError, match="not a serializable"):
            dumps_model(object())

    def test_unknown_class_rejected_at_load(self):
        with pytest.raises(LifecycleError, match="unknown model class"):
            loads_model(
                '{"format_version": 1, "class": "Evil", "params": {}, "state": {}}'
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(LifecycleError, match="malformed"):
            loads_model("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(LifecycleError, match="format version"):
            loads_model(
                '{"format_version": 99, "class": "LinearRegression", '
                '"params": {}, "state": {}}'
            )


class TestRegistryPersistence:
    def test_roundtrip_with_models(self, tmp_path, regression_data):
        X, y, _ = regression_data
        registry = ModelRegistry()
        m1 = LinearRegression().fit(X, y)
        m2 = LinearRegression(l2=1.0).fit(X, y)
        registry.register("reg", m1, params={"l2": 0.0}, metrics={"r2": 0.99})
        registry.register(
            "reg", m2, params={"l2": 1.0}, metrics={"r2": 0.98},
            parent_version=1,
        )
        registry.deploy("reg", 2)

        path = tmp_path / "registry.json"
        registry.save(path)
        restored = ModelRegistry.load(path)

        assert restored.names() == ["reg"]
        assert len(restored.versions("reg")) == 2
        assert restored.deployed("reg").version == 2
        assert restored.get("reg", 1).metrics["r2"] == 0.99
        assert np.array_equal(restored.get("reg", 1).model.coef_, m1.coef_)
        lineage = restored.lineage("reg", 2)
        assert [v.version for v in lineage] == [1, 2]

    @pytest.mark.parametrize(
        "provider",
        [
            "LinearRegression", "LogisticRegression",
            "FactorizedLinearRegression", "FactorizedLogisticRegression",
            "InDBLinearRegression", "InDBLogisticRegression",
            "OutOfCoreLinearRegression",
        ],
    )
    def test_every_linear_provider_survives_the_registry(
        self, tmp_path, star, provider
    ):
        """fit -> register -> save -> load hands back the same model,
        wherever it was trained."""
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        X, y = nm.materialize(), np.asarray(star.y, dtype=np.float64)
        label = np.where(y > np.median(y), "hi", "lo")
        columns = [f"c{j}" for j in range(X.shape[1])]
        table = Table.from_columns(
            {c: X[:, j] for j, c in enumerate(columns)} | {"y": y, "label": label}
        )
        model, rows = {
            "LinearRegression": lambda: (LinearRegression(l2=0.1).fit(X, y), X),
            "LogisticRegression": lambda: (
                LogisticRegression(max_iter=10).fit(X, label), X),
            "FactorizedLinearRegression": lambda: (
                FactorizedLinearRegression(l2=0.1).fit(nm, y), nm),
            "FactorizedLogisticRegression": lambda: (
                FactorizedLogisticRegression(max_iter=10).fit(nm, label), nm),
            "InDBLinearRegression": lambda: (
                InDBLinearRegression(l2=0.1).fit(table, columns, "y"), table),
            "InDBLogisticRegression": lambda: (
                InDBLogisticRegression(epochs=2).fit(table, columns, "label"),
                table),
            "OutOfCoreLinearRegression": lambda: (
                OutOfCoreLinearRegression(epochs=5, block_rows=64).fit(X, y), X),
        }[provider]()
        registry = ModelRegistry()
        registry.register("m", model)
        registry.save(tmp_path / "registry.json")
        restored = ModelRegistry.load(tmp_path / "registry.json").get("m").model
        assert type(restored) is type(model)
        assert restored.get_params() == model.get_params()
        assert np.array_equal(
            restored.decision_function(rows), model.decision_function(rows)
        )

    def test_unserializable_model_stored_as_metadata_only(self, tmp_path):
        counter = "lifecycle.registry.models_not_persisted"
        before = obs.get_registry().value(counter)
        registry = ModelRegistry()
        registry.register("thing", object(), metrics={"acc": 0.5})
        path = tmp_path / "registry.json"
        registry.save(path)
        restored = ModelRegistry.load(path)
        entry = restored.get("thing")
        assert entry.model is None
        assert entry.metrics["acc"] == 0.5
        # dropped from the file, but never without a trace
        assert obs.get_registry().value(counter) == before + 1

    def test_continuous_trainer_models_survive_the_registry(self, tmp_path):
        """The model a ``ContinuousTrainer`` registers loads back
        predicting the same bytes, with nothing persisted as null."""
        X, y = make_grid_regression(120, 4, seed=5)
        dyn = DynamicTable.from_table(Table.from_matrix(X, label=y))
        maintainer = IncrementalMaintainer(
            dyn, dyn.subscribe(), [f"f{j}" for j in range(4)], "label"
        )
        registry = ModelRegistry()
        trainer = ContinuousTrainer(maintainer, registry, model_name="ridge")
        dyn.delete(dyn.row_ids[:20])
        trainer.step()
        counter = "lifecycle.registry.models_not_persisted"
        before = obs.get_registry().value(counter)
        path = tmp_path / "registry.json"
        registry.save(path)
        assert obs.get_registry().value(counter) == before
        restored = ModelRegistry.load(path)
        kept, loaded = registry.get("ridge").model, restored.get("ridge").model
        assert type(loaded) is type(kept)
        assert np.array_equal(loaded.predict(X), kept.predict(X))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(LifecycleError):
            ModelRegistry.load(tmp_path / "missing.json")

    def test_a_save_that_dies_halfway_keeps_the_last_good_file(
        self, tmp_path, regression_data, monkeypatch
    ):
        X, y, _ = regression_data
        registry = ModelRegistry()
        registry.register("reg", LinearRegression().fit(X, y))
        path = tmp_path / "registry.json"
        registry.save(path)
        good = path.read_bytes()
        registry.register("reg", LinearRegression(l2=1.0).fit(X, y))

        class TornFile:
            """Half of each write reaches the disk, then the disk fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError("disk full")

        opened = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, *a, **k: TornFile(opened(fd, *a, **k))
        )
        with pytest.raises(LifecycleError) as caught:
            registry.save(path)
        assert str(path) in str(caught.value)
        assert "disk full" in str(caught.value.__cause__)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert len(ModelRegistry.load(path).versions("reg")) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]
        registry.save(path)  # and the next save lands
        assert len(ModelRegistry.load(path).versions("reg")) == 2
