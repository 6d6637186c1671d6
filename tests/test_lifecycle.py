"""Unit tests for the model registry and experiment tracker."""

import json

import numpy as np
import pytest

from repro.errors import LifecycleError
from repro.lifecycle import ExperimentTracker, ModelRegistry
from repro.lifecycle.registry import REGISTRY_SCHEMA
from repro.ml import LinearRegression
from repro.persist import read_verified, write_atomic


def _flip_one_coef_char(raw: bytes) -> bytes:
    """One base64 character of the saved model's ``coef_`` changed."""
    at = raw.index(b'data\\": \\"') + len(b'data\\": \\"')
    return raw[:at] + (b"B" if raw[at:at + 1] != b"B" else b"C") + raw[at + 1:]


#: a model entry saved by a build that still had decision trees
_DELETED_CLASS = (
    '{"format_version": 1, "class": "DecisionTreeClassifier", '
    '"params": {}, "state": {}}'
)
#: a model entry saved before LogisticRegression's ``solver`` was retired
_RETIRED_PARAM = (
    '{"format_version": 1, "class": "LogisticRegression", '
    '"params": {"l2": 0.0, "solver": "newton"}, "state": {}}'
)


class TestModelRegistry:
    @pytest.fixture
    def registry(self):
        reg = ModelRegistry()
        reg.register("churn", "model-a", params={"l2": 1.0}, metrics={"acc": 0.80})
        reg.register(
            "churn",
            "model-b",
            params={"l2": 0.1},
            metrics={"acc": 0.85},
            parent_version=1,
        )
        return reg

    def test_versions_are_sequential(self, registry):
        versions = registry.versions("churn")
        assert [v.version for v in versions] == [1, 2]
        assert versions[0].identifier == "churn:v1"

    def test_get_latest_by_default(self, registry):
        assert registry.get("churn").version == 2

    def test_get_specific_version(self, registry):
        assert registry.get("churn", 1).model == "model-a"
        assert registry.get("churn", 2).model == "model-b"

    def test_get_unknown_model(self, registry):
        with pytest.raises(LifecycleError):
            registry.get("nope")

    @pytest.mark.parametrize("version", [3, 99, 0, -1, np.int64(3)])
    def test_get_unknown_version(self, registry, version):
        # versions index a dense list: 0 and -1 must not wrap around
        with pytest.raises(LifecycleError, match=f"no version v{version}"):
            registry.get("churn", version)

    @pytest.mark.parametrize("door", ["get", "resolve"])
    @pytest.mark.parametrize("ref", [1.5, "2", True, np.bool_(True), [2]])
    def test_a_reference_neither_version_nor_alias_is_typed(
        self, registry, door, ref
    ):
        # a bool is not version 1; a str is an alias, never a version
        with pytest.raises(LifecycleError, match="'churn'") as caught:
            getattr(registry, door)("churn", ref)
        assert repr(ref) in str(caught.value)

    @pytest.mark.parametrize("parent", [1.5, True, np.bool_(True), "1", [1]])
    def test_register_types_the_parent_version_as_get_does(
        self, registry, parent
    ):
        # what get refuses as a version, register refuses as a parent,
        # and a refused register leaves no trace of a new name
        with pytest.raises(LifecycleError, match="'churn'") as caught:
            registry.register("churn", "x", parent_version=parent)
        assert repr(parent) in str(caught.value)
        assert len(registry.versions("churn")) == 2
        with pytest.raises(LifecycleError, match="'fresh'"):
            registry.register("fresh", "x", parent_version=parent)
        assert "fresh" not in registry.names()
        entry = registry.register("churn", "y", parent_version=np.int64(2))
        assert type(entry.parent_version) is int
        assert [v.version for v in registry.lineage("churn", 3)] == [1, 2, 3]

    def test_lineage_chain(self, registry):
        registry.register("churn", "model-c", parent_version=2)
        chain = registry.lineage("churn", 3)
        assert [v.version for v in chain] == [1, 2, 3]

    @pytest.mark.parametrize("parent", [42, 3, 0, -1])
    def test_register_with_missing_parent(self, registry, parent):
        with pytest.raises(LifecycleError, match="parent"):
            registry.register("churn", "x", parent_version=parent)
        with pytest.raises(LifecycleError, match="parent"):
            registry.register("fresh", "x", parent_version=parent)
        assert registry.names() == ["churn"]  # no empty "fresh" entry

    def test_best_by_metric(self, registry):
        assert registry.best("churn", "acc").version == 2

    def test_best_missing_metric(self, registry):
        with pytest.raises(LifecycleError):
            registry.best("churn", "f1")

    def test_deploy_and_fetch(self, registry):
        registry.deploy("churn", 1)
        assert registry.deployed("churn").version == 1
        registry.deploy("churn", 2)
        assert registry.deployed("churn").version == 2

    def test_deploy_unknown_version(self, registry):
        with pytest.raises(LifecycleError):
            registry.deploy("churn", 7)

    def test_deployed_without_deploy(self, registry):
        with pytest.raises(LifecycleError):
            registry.deployed("churn")

    def test_names(self, registry):
        registry.register("fraud", "m")
        assert registry.names() == ["churn", "fraud"]

    def test_deploy_moves_the_prod_alias(self, registry):
        registry.deploy("churn", 1)
        registry.deploy("churn", 2)
        assert registry.aliases("churn") == {"prod": 2}
        assert registry.deployed("churn").version == 2

    def test_named_aliases_resolve(self, registry):
        registry.deploy("churn", 1)
        registry.set_alias("churn", "canary", 2)
        assert registry.resolve("churn", "prod").version == 1
        assert registry.resolve("churn", "canary").version == 2
        assert registry.resolve("churn", 1).version == 1  # ints pass through
        assert registry.resolve("churn", np.int64(2)).version == 2  # numpy's too
        registry.drop_alias("churn", "canary")
        with pytest.raises(LifecycleError):
            registry.resolve("churn", "canary")

    def test_alias_must_point_at_real_version(self, registry):
        with pytest.raises(LifecycleError):
            registry.set_alias("churn", "canary", 42)

    def test_save_load_round_trips_rollout_state(self, registry, tmp_path):
        registry.deploy("churn", 1)
        registry.deploy("churn", 2)
        registry.set_alias("churn", "canary", 1)
        path = tmp_path / "registry.json"
        registry.save(path)
        loaded = ModelRegistry.load(path)
        assert loaded.deployed("churn").version == 2
        assert loaded.aliases("churn") == {"prod": 2, "canary": 1}

    def test_save_stores_numpy_scalars_and_names_what_it_cannot(
        self, registry, tmp_path
    ):
        params = {"k": np.int64(3), "on": np.bool_(True)}
        registry.register("churn", "m", params, metrics={"auc": np.float32(0.5)})
        registry.save(tmp_path / "registry.json")
        loaded = ModelRegistry.load(tmp_path / "registry.json").get("churn", 3)
        assert loaded.params == {"k": 3, "on": True} and loaded.metrics == {"auc": 0.5}
        assert type(loaded.params["k"]) is int
        registry.register("churn", "m", params={"grid": np.ones(2)})
        with pytest.raises(LifecycleError, match=r"churn:v4: params\['grid'\]"):
            registry.save(tmp_path / "other.json")
        assert not (tmp_path / "other.json").exists()

    def test_feature_fingerprint_round_trips(self, registry, tmp_path):
        entry = registry.register(
            "featmodel", None, feature_fingerprint="abc123" * 8
        )
        assert entry.feature_fingerprint == "abc123" * 8
        path = tmp_path / "registry.json"
        registry.save(path)
        loaded = ModelRegistry.load(path)
        assert loaded.get("featmodel").feature_fingerprint == "abc123" * 8
        # entries registered without one stay None
        assert loaded.get("churn", 1).feature_fingerprint is None

    @pytest.mark.parametrize(
        "breakage, where",
        [
            (lambda p: p["versions"][0].pop("params"), "version 1 of 'churn'"),
            (lambda p: p["versions"][1].pop("name"), '"versions"'),
            (lambda p: p.update(versions=3), '"versions"'),
            (lambda p: p.update(versions={"churn": 1}), '"versions"'),
            (lambda p: p["aliases"]["churn"].update(canary="two"), '"aliases"'),
            (lambda p: p["aliases"].update(churn=None), '"aliases"'),
            (
                lambda p: p["versions"][0].update(model=_DELETED_CLASS),
                "version 1 of 'churn': "
                "unknown model class 'DecisionTreeClassifier'",
            ),
            (
                lambda p: p["versions"][0].update(model=_RETIRED_PARAM),
                "cannot be loaded at version 1 of 'churn': LogisticRegression "
                "no longer has the parameter(s) ['solver']",
            ),
            (
                lambda p: p["versions"][0].update(model="[1, 2]"),
                "cannot be loaded at version 1 of 'churn': "
                "model JSON is a list, not an object",
            ),
        ],
    )
    def test_structurally_broken_file_is_a_typed_error(
        self, registry, tmp_path, breakage, where
    ):
        """A checksummed payload that is not a registry, or that names a
        model class this build does not have, names the file and the
        entry, instead of a bare KeyError / TypeError / ValueError."""
        registry.deploy("churn", 1)
        registry.set_alias("churn", "canary", 2)
        path = tmp_path / "registry.json"
        registry.save(path)
        payload = json.loads(read_verified(path, REGISTRY_SCHEMA)[1])
        breakage(payload)
        write_atomic(path, json.dumps(payload).encode(), REGISTRY_SCHEMA)
        with pytest.raises(LifecycleError) as caught:
            ModelRegistry.load(path)
        assert str(path) in str(caught.value) and where in str(caught.value)

    def test_top_level_not_an_object_is_a_typed_error(self, tmp_path):
        path = tmp_path / "registry.json"
        write_atomic(path, b"[1, 2]", REGISTRY_SCHEMA)
        with pytest.raises(LifecycleError, match="structurally broken"):
            ModelRegistry.load(path)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (_flip_one_coef_char, "failed its checksum"),
            (lambda raw: raw[:-40], "is truncated"),
            (lambda raw: raw[raw.index(b"\n") + 1 :], "has no header"),
        ],
        ids=["one-char-flip-in-model", "truncated", "no-header"],
    )
    def test_damaged_file_is_a_typed_error_naming_the_path(
        self, tmp_path, damage, reason
    ):
        """A flipped base64 character inside a model would otherwise
        load as a wrong coefficient (e.g. ``2.9e76``) with no error."""
        X = np.random.default_rng(0).normal(size=(20, 3))
        registry = ModelRegistry()
        registry.register("lin", LinearRegression().fit(X, X @ [1.0, 2.0, 3.0]))
        path = tmp_path / "registry.json"
        registry.save(path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(LifecycleError, match=reason) as caught:
            ModelRegistry.load(path)
        assert str(path) in str(caught.value)


class TestExperimentTracker:
    @pytest.fixture
    def tracker(self):
        t = ExperimentTracker()
        r1 = t.start_run("tune", params={"lr": 0.1})
        r1.log_metric("auc", 0.82)
        r1.finish()
        r2 = t.start_run("tune", params={"lr": 0.5})
        r2.log_metric("auc", 0.88)
        r2.finish()
        t.start_run("tune", params={"lr": 1.0})  # unfinished
        return t

    def test_run_ids_sequential(self, tracker):
        assert [r.run_id for r in tracker] == [1, 2, 3]

    def test_filter_by_experiment(self, tracker):
        tracker.start_run("other")
        assert len(tracker.runs("tune")) == 3
        assert len(tracker.runs("other")) == 1

    def test_finished_only(self, tracker):
        assert len(tracker.runs("tune", finished_only=True)) == 2

    def test_best_run(self, tracker):
        assert tracker.best_run("tune", "auc").run_id == 2

    def test_best_run_requires_metric(self, tracker):
        with pytest.raises(LifecycleError):
            tracker.best_run("tune", "f1")

    def test_finished_runs_immutable(self, tracker):
        run = tracker.runs("tune", finished_only=True)[0]
        with pytest.raises(LifecycleError):
            run.log_metric("x", 1.0)
        with pytest.raises(LifecycleError):
            run.finish()

