"""Tests for the lineage-aware materialization store and its fingerprints."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_expr
from repro.errors import MaterializationError
from repro.lang import matrix
from repro.materialize import (
    Fingerprint,
    LineageGraph,
    MaterializationStore,
    canonical_plan,
    content_hash,
)
from repro.obs import get_registry
from repro.resilience.faults import ChaosContext, FaultPlan
from repro.selection import KFold, ridge_feature_grid
from repro.storage import Table, table_fingerprint


def _gram_expr(n=300, d=40):
    X = matrix("X", (n, d))
    return X.T @ X


def _gram_data(n=300, d=40, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _fingerprint(node, bindings, flags=""):
    """A plan over bound operands, addressed the way the feature view
    addresses its definition: canonical structure x operand hashes."""
    canon, order = canonical_plan(node)
    return Fingerprint(
        canon, tuple(content_hash(bindings[name]) for name in order), flags
    )


class TestFingerprint:
    def test_same_program_same_fingerprint(self):
        A = _gram_data()
        plan1 = compile_expr(_gram_expr())
        plan2 = compile_expr(_gram_expr())
        fp1 = _fingerprint(plan1.root, {"X": A})
        fp2 = _fingerprint(plan2.root, {"X": A})
        assert fp1 == fp2
        assert fp1.key == fp2.key

    def test_rename_invariant(self):
        A = _gram_data()
        Xa = matrix("X", (300, 40))
        Xb = matrix("renamed", (300, 40))
        fpa = _fingerprint(compile_expr(Xa.T @ Xa).root, {"X": A})
        fpb = _fingerprint(compile_expr(Xb.T @ Xb).root, {"renamed": A})
        assert fpa.key == fpb.key

    def test_operand_bytes_matter(self):
        plan = compile_expr(_gram_expr())
        fp1 = _fingerprint(plan.root, {"X": _gram_data(seed=0)})
        fp2 = _fingerprint(plan.root, {"X": _gram_data(seed=1)})
        assert fp1.structural == fp2.structural
        assert fp1.operands != fp2.operands
        assert fp1.key != fp2.key

    def test_flags_matter(self):
        A = _gram_data()
        plan = compile_expr(_gram_expr())
        fp1 = _fingerprint(plan.root, {"X": A}, flags="fusion")
        fp2 = _fingerprint(plan.root, {"X": A}, flags="")
        assert fp1.key != fp2.key

    def test_sharing_pattern_is_structural(self):
        """A+A and A+B differ structurally (positional placeholders)."""
        A = matrix("A", (5, 5))
        B = matrix("B", (5, 5))
        self_sum = compile_expr(A + A).root
        cross_sum = compile_expr(A + B).root
        assert canonical_plan(self_sum)[0] != canonical_plan(cross_sum)[0]

    def test_content_hash_tags_representation_kind(self):
        from repro.sparse import CSRMatrix

        dense = np.zeros((4, 4))
        dense[0, 0] = 3.0
        sparse = CSRMatrix.from_dense(dense)
        hd, hs = content_hash(dense), content_hash(sparse)
        assert hd.startswith("dense:")
        assert hs.startswith("csr:")
        assert hd.split(":", 1)[1] != hs.split(":", 1)[1] or hd != hs

    def test_content_hash_memoized_on_identity(self):
        A = _gram_data()
        assert content_hash(A) is content_hash(A)

    def test_key_changes_with_every_component(self):
        base = Fingerprint("s", ("o",), "f")
        assert base.key != Fingerprint("s2", ("o",), "f").key
        assert base.key != Fingerprint("s", ("o2",), "f").key
        assert base.key != Fingerprint("s", ("o",), "f2").key


# Hypothesis: random elementwise programs over a fixed shape.
_LEAVES = st.sampled_from(["A", "B", "C", "D"])
_SPECS = st.recursive(
    _LEAVES,
    lambda children: st.tuples(
        st.sampled_from(["+", "-", "*"]), children, children
    ),
    max_leaves=8,
)


def _build(spec, suffix=""):
    if isinstance(spec, str):
        return matrix(spec + suffix, (4, 3))
    op, left, right = spec
    a, b = _build(left, suffix), _build(right, suffix)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS)
    def test_structural_key_invariant_under_renaming(self, spec):
        original = compile_expr(_build(spec)).root
        renamed = compile_expr(_build(spec, suffix="_renamed")).root
        assert canonical_plan(original)[0] == canonical_plan(renamed)[0]

    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS.filter(lambda s: not isinstance(s, str)))
    def test_operator_change_never_collides(self, spec):
        op, left, right = spec
        flipped = {"+": "-", "-": "*", "*": "+"}[op]
        original = compile_expr(_build(spec)).root
        mutated = compile_expr(_build((flipped, left, right))).root
        assert canonical_plan(original)[0] != canonical_plan(mutated)[0]


class TestFingerprintRestartStability:
    def test_stable_across_processes_and_hash_seeds(self, tmp_path):
        """Keys derive from content only — PYTHONHASHSEED is irrelevant."""
        script = tmp_path / "fp.py"
        script.write_text(textwrap.dedent("""
            import numpy as np
            from repro.compiler import compile_expr
            from repro.lang import matrix
            from repro.materialize import (
                Fingerprint, canonical_plan, content_hash,
            )

            X = matrix("X", (6, 4))
            w = matrix("w", (4, 1))
            plan = compile_expr(X.T @ (X @ w))
            A = np.arange(24, dtype=np.float64).reshape(6, 4)
            b = np.linspace(-1.0, 1.0, 4).reshape(4, 1)
            canon, order = canonical_plan(plan.root)
            bound = {"X": A, "w": b}
            fp = Fingerprint(
                canon,
                tuple(content_hash(bound[name]) for name in order),
                "|".join(plan.passes),
            )
            print(fp.structural, fp.key)
        """))
        keys = set()
        src = os.path.join(os.getcwd(), "src")
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            keys.add(out.stdout.strip())
        assert len(keys) == 1


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestMaterializationStore:
    def test_put_lookup_roundtrip_is_bit_identical(self):
        store = MaterializationStore(min_flops=0.0)
        fp = Fingerprint("s", ("o",), "")
        value = _gram_data(20, 5)
        assert store.put(fp, value, label="x", flops=1.0)
        got = store.lookup(fp)
        assert np.array_equal(got, value)
        assert store.ledger()["hits"] == 1

    def test_store_copies_protect_against_caller_mutation(self):
        store = MaterializationStore(min_flops=0.0)
        fp = Fingerprint("s", ("o",), "")
        value = np.ones((3, 3))
        store.put(fp, value, flops=1.0)
        value[0, 0] = 99.0  # caller mutates the offered array
        assert store.lookup(fp)[0, 0] == 1.0

    def test_admission_floor_rejects_cheap_values(self):
        store = MaterializationStore(min_flops=1000.0)
        fp = Fingerprint("s", ("o",), "")
        assert not store.put(fp, np.ones((3, 3)), flops=10.0)
        assert store.ledger()["rejected"] == 1
        assert store.lookup(fp) is None  # counted as a miss
        assert store.ledger()["misses"] == 1

    def test_density_floor_rejects_bloated_values(self):
        store = MaterializationStore(min_flops=0.0, min_flops_per_byte=1e6)
        fp = Fingerprint("s", ("o",), "")
        assert not store.put(fp, np.ones((50, 50)), flops=100.0)
        assert store.ledger()["rejected"] == 1

    def test_pin_bypasses_admission_and_eviction(self):
        arr = np.ones((10, 10))  # 800 B
        store = MaterializationStore(
            capacity_bytes=2000, min_flops=1e12
        )
        pinned = Fingerprint("pinned", (), "")
        assert store.put(pinned, arr, flops=0.0, pin=True)
        # Pressure: unpinned entries churn through the memory tier.
        for i in range(10):
            store.put(Fingerprint(f"s{i}", (), ""), np.ones((10, 10)),
                      flops=1e13)
        assert store.pool.get(pinned.key) is not None
        assert np.array_equal(store.lookup(pinned), arr)
        assert store.ledger()["pinned"] == 1
        assert store.pool.stats.evictions > 0

    def test_pin_unknown_raises(self):
        store = MaterializationStore()
        with pytest.raises(MaterializationError, match="unknown entry"):
            store.pin("nope")

    def test_memory_only_store_forgets_evicted_entries(self):
        """No disk tier: eviction is loss, re-put counts as recompute."""
        store = MaterializationStore(capacity_bytes=1000, min_flops=0.0)
        a, b = Fingerprint("a", (), ""), Fingerprint("b", (), "")
        store.put(a, np.ones((10, 10)), flops=1.0)   # 800 B
        store.put(b, np.ones((10, 10)), flops=1.0)   # evicts a
        assert store.pool.stats.evictions == 1
        assert store.lookup(a) is None
        led = store.ledger()
        assert led["misses"] == 1 and led["entries"] == 1
        store.put(a, np.ones((10, 10)), flops=1.0)
        assert store.ledger()["recomputes"] == 1

    def test_eviction_charged_through_bufferpool_ledger(self):
        store = MaterializationStore(capacity_bytes=1700, min_flops=0.0)
        for i in range(4):
            store.put(Fingerprint(f"k{i}", (), ""), np.ones((10, 10)),
                      flops=1.0)
        assert store.pool.used <= 1700
        assert store.pool.used == 800 * len(store.pool)
        assert (
            store.pool.stats.evictions
            == get_registry().value("bufferpool.evictions")
            == 2
        )

    def test_negative_floors_rejected(self):
        with pytest.raises(MaterializationError):
            MaterializationStore(min_flops=-1.0)


class TestStorePersistence:
    def test_second_store_instance_serves_from_disk(self, tmp_path):
        first = MaterializationStore(tmp_path, min_flops=0.0)
        fp = Fingerprint("s", ("o",), "f")
        value = _gram_data(30, 7, seed=3)
        first.put(fp, value, label="gram", flops=42.0)

        second = MaterializationStore(tmp_path, min_flops=0.0)
        assert len(second) == 1
        got = second.lookup(fp)
        assert np.array_equal(got, value)
        led = second.ledger()
        assert led["disk_hits"] == 1 and led["hits"] == 1
        # lineage metadata survived the restart
        rec = second.lineage.get(fp.key)
        assert rec is not None and rec.label == "gram"

    def test_corrupted_entry_is_dropped_and_recomputable(self, tmp_path):
        first = MaterializationStore(tmp_path, min_flops=0.0)
        fp = Fingerprint("s", (), "")
        value = _gram_data(10, 4)
        first.put(fp, value, flops=1.0)

        second = MaterializationStore(tmp_path, min_flops=0.0)
        second.corrupt(fp)
        assert second.lookup(fp) is None  # CRC fails -> miss, not error
        led = second.ledger()
        assert led["corrupt_entries"] == 1 and led["misses"] == 1
        assert not (tmp_path / f"{fp.key}.mat").exists()  # unlinked
        # the caller recomputes (lineage = rerun the sub-plan) and re-puts
        assert second.put(fp, value, flops=1.0)
        assert second.ledger()["recomputes"] == 1
        assert np.array_equal(second.lookup(fp), value)

    def test_chaos_injected_corruption_degrades_to_miss(self, tmp_path):
        first = MaterializationStore(tmp_path, min_flops=0.0)
        fp = Fingerprint("s", (), "")
        first.put(fp, np.ones((5, 5)), flops=1.0)

        second = MaterializationStore(tmp_path, min_flops=0.0)
        plan = FaultPlan(seed=7).inject(
            "materialize.read", rate=1.0, mode="corrupt"
        )
        with ChaosContext(plan):
            assert second.lookup(fp) is None
        assert second.ledger()["corrupt_entries"] == 1

    def test_foreign_files_in_directory_are_ignored(self, tmp_path):
        (tmp_path / "junk.mat").write_bytes(b"not a header")
        (tmp_path / "other.txt").write_text("irrelevant")
        store = MaterializationStore(tmp_path)
        assert len(store) == 0


# ----------------------------------------------------------------------
# Lineage graph
# ----------------------------------------------------------------------
class TestLineageGraph:
    def test_record_children_parents(self):
        g = LineageGraph()
        g.record("a", "base", "s1")
        g.record("b", "base", "s2")
        g.record("c", "derived", "s3", children=("a", "b"))
        g.record("d", "derived2", "s4", children=("c",))
        assert g.children("c") == ("a", "b")
        assert g.parents("a") == ("c",)
        assert len(g) == 4 and "c" in g
        assert "derived" in g.describe()

    def test_unknown_key_is_empty(self):
        g = LineageGraph()
        assert g.get("x") is None
        assert g.children("x") == ()


# ----------------------------------------------------------------------
# Table content fingerprints (storage layer)
# ----------------------------------------------------------------------
class TestTableLineage:
    def _table(self, scale=1.0):
        return Table.from_columns(
            {"a": [1.0 * scale, 2.0, 3.0], "b": ["x", "y", "z"]}
        )

    def test_table_fingerprint_is_content_based(self):
        assert table_fingerprint(self._table()) == table_fingerprint(
            self._table()
        )
        assert table_fingerprint(self._table()) != table_fingerprint(
            self._table(scale=2.0)
        )


# ----------------------------------------------------------------------
# Selection wiring
# ----------------------------------------------------------------------
class TestSelectionReuse:
    def _data(self, n=1500, d=8, seed=11):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + 0.05 * rng.normal(size=n)
        return X, y

    def test_feature_grid_exact_ledger_and_bit_identity(self, tmp_path):
        X, y = self._data()
        subsets = [(0, 1, 2), (1, 2, 3, 4), (0, 2, 4, 6)]
        lambdas = [0.01, 1.0]
        k = 4
        cold_store = MaterializationStore(tmp_path, min_flops=1e4)
        cold = ridge_feature_grid(
            X, y, subsets, lambdas, cv=KFold(k), store=cold_store
        )
        led = cold_store.ledger()
        expected = len(subsets) * k  # one augmented tsmm per (subset, fold)
        assert led["misses"] == expected
        assert led["puts"] == expected
        assert led["hits"] == 0

        warm_store = MaterializationStore(tmp_path, min_flops=1e4)
        warm = ridge_feature_grid(
            X, y, subsets, lambdas, cv=KFold(k), store=warm_store
        )
        led = warm_store.ledger()
        assert led["hits"] == expected
        assert led["misses"] == 0 and led["puts"] == 0
        for s in subsets:
            assert cold.mean_rmse[s] == warm.mean_rmse[s]
        assert cold.best == warm.best
        assert cold.solves == warm.solves == len(subsets) * k * len(lambdas)

    def test_feature_grid_without_store(self):
        X, y = self._data(n=400, d=5)
        res = ridge_feature_grid(X, y, [(0, 1), (2, 3)], [0.1], cv=3)
        assert set(res.mean_rmse) == {(0, 1), (2, 3)}

    def test_feature_grid_validation(self):
        X, y = self._data(n=100, d=4)
        from repro.errors import SelectionError

        with pytest.raises(SelectionError):
            ridge_feature_grid(X, y, [], [0.1])
        with pytest.raises(SelectionError):
            ridge_feature_grid(X, y, [(0, 99)], [0.1])
        with pytest.raises(SelectionError):
            ridge_feature_grid(X, y, [(0,)], [])
