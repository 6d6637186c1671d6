"""Repository-consistency checks: exports, docs, and experiment index."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import repro
from repro.runtime.parallel import ParallelContext, resolve_context

# .../repo/src/repro/__init__.py -> .../repo
REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

SUBPACKAGES = [
    "algorithms",
    "compiler",
    "compression",
    "data",
    "distributed",
    "factorized",
    "feateng",
    "indb",
    "lang",
    "lifecycle",
    "ml",
    "runtime",
    "selection",
    "serving",
    "sparse",
    "storage",
]


class TestExports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(f"repro.{name}")
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            assert hasattr(module, symbol), f"repro.{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_has_docstring(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_root_all_matches_subpackages(self):
        for name in SUBPACKAGES:
            assert name in repro.__all__

    def test_public_classes_documented(self):
        """Every class exported from a subpackage carries a docstring."""
        undocumented = []
        for name in SUBPACKAGES:
            module = importlib.import_module(f"repro.{name}")
            for symbol in getattr(module, "__all__", []):
                obj = getattr(module, symbol)
                if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"repro.{name}.{symbol}")
        assert undocumented == []

    def test_every_repro_name_benchmarks_and_examples_import_resolves(self):
        """A deleted module or export fails here, in tier-1, instead of
        in the later e2e / bench-report jobs (both trees are read, not
        run; ``benchmarks/e2e`` included)."""
        scripts = sorted(
            path
            for tree in ("benchmarks", "examples")
            for path in (REPO_ROOT / tree).rglob("*.py")
        )
        assert len(scripts) > 40
        unresolved = []
        for path in scripts:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    wanted = [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    wanted = [(node.module, alias.name) for alias in node.names]
                else:
                    continue
                for module, name in wanted:
                    if module.split(".")[0] != "repro":
                        continue
                    try:
                        owner = importlib.import_module(module)
                        if name is not None and not hasattr(owner, name):
                            importlib.import_module(f"{module}.{name}")
                    except ImportError:
                        where = path.relative_to(REPO_ROOT)
                        unresolved.append(f"{where}: {module} -> {name}")
        assert unresolved == []


#: the length each doc may shrink from but not regrow past (ROADMAP item 6)
DOC_LINES = {"EXPERIMENTS.md": 2723, "DESIGN.md": 1220, "README.md": 586}


class TestDocsAndExperiments:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO_ROOT / "DESIGN.md").read_text()

    @pytest.fixture(scope="class")
    def experiments_md(self):
        return (REPO_ROOT / "EXPERIMENTS.md").read_text()

    def test_design_notes_paper_mismatch(self, design):
        assert "mismatch" in design.lower()
        assert "Round Trip" in design  # names the wrong paper explicitly

    def test_every_design_bench_target_exists(self, design):
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets"
        for target in targets:
            assert (REPO_ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_module_is_indexed_in_design(self, design):
        on_disk = {
            p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        }
        indexed = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        missing = on_disk - indexed
        assert not missing, f"bench modules not in DESIGN.md: {missing}"

    def test_experiment_ids_consistent(self, design, experiments_md):
        design_ids = set(re.findall(r"\| (E\d+) \|", design))
        measured_ids = set(re.findall(r"## (E\d+) ", experiments_md))
        assert design_ids, "no experiment ids in DESIGN.md"
        missing = design_ids - measured_ids
        assert not missing, f"experiments without measured sections: {missing}"

    def test_runner_covers_design_experiments(self, design):
        runner = (REPO_ROOT / "benchmarks" / "run_experiments.py").read_text()
        design_ids = set(re.findall(r"\| (E\d+) \|", design))
        runner_ids = set(re.findall(r'^    "(E\d+)": \("bench_', runner, re.M))
        assert design_ids <= runner_ids

    def test_changes_and_experiments_stay_inside_their_size_budget(self):
        """ROADMAP item 6: a CHANGES.md entry is at most five lines
        (changed / claimed / measured / left) and the file at most 200;
        the other docs may shrink but not regrow past ``DOC_LINES``."""
        changes = (REPO_ROOT / "CHANGES.md").read_text().splitlines()
        assert len(changes) <= 200
        entry_lines = {}
        for line in changes[1:]:
            if line.startswith("- PR "):
                current = line.split(":")[0]
            if line.strip():
                entry_lines[current] = entry_lines.get(current, 0) + 1
        assert len(entry_lines) >= 24
        assert {k: n for k, n in entry_lines.items() if n > 5} == {}
        for doc, budget in DOC_LINES.items():
            assert len((REPO_ROOT / doc).read_text().splitlines()) <= budget, doc

    def test_readme_lists_every_example(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in readme, f"{example.name} not in README"

    def test_examples_have_docstrings_and_main(self):
        for example in (REPO_ROOT / "examples").glob("*.py"):
            text = example.read_text()
            assert text.lstrip().startswith(('"""', "#!"))
            assert '__name__ == "__main__"' in text


class TestOneTrainingCore:
    """The loop glue exists once under ``src/`` (DESIGN.md, Training core)."""

    @staticmethod
    def _hits(pattern: str) -> list[str]:
        regex = re.compile(pattern)
        return [
            f"{path.relative_to(REPO_ROOT)}:{number}"
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)
        ]

    @pytest.mark.parametrize(
        "pattern, home",
        [
            # the singular-system fallback of solve_normal
            (r"np\.linalg\.pinv", "src/repro/ml/linreg.py"),
            # the Armijo sufficient-decrease test and its halving
            (r"<= .+ - (c|1e-4) \* \w+ \* ", "src/repro/ml/optim.py"),
            (r"\*= *(0\.5|shrink)\b", "src/repro/ml/optim.py"),
            # the Lloyd centre-shift stop
            (r"linalg\.norm\(new\w* - \w+, axis=1\)", "src/repro/ml/kmeans.py"),
        ],
    )
    def test_written_once(self, pattern, home):
        hits = self._hits(pattern)
        assert len(hits) == 1 and hits[0].startswith(home), hits

    def test_checkpoints_restored_by_the_shared_driver_only(self):
        files = {hit.rsplit(":", 1)[0] for hit in self._hits(r"\.load_latest\(\)")}
        assert files == {"src/repro/ml/optim.py"}

    def test_ml_imports_no_provider_package(self):
        hits = [
            hit
            for hit in self._hits(
                r"^\s*(from|import) \S*\b(algorithms|factorized|indb|runtime"
                r"|distributed|incremental)\b"
            )
            if hit.startswith("src/repro/ml/")
        ]
        assert hits == []


class TestOneLinearModel:
    """The closed form and the fitted half of a linear model exist once
    under ``src/`` (DESIGN.md, Training core — ``Moments`` and "Fitted
    models"); providers supply aggregates or a descent, nothing else."""

    _hits = staticmethod(TestOneTrainingCore._hits)
    CLOSED_FORM = {"src/repro/ml/linreg.py"}

    def _files(self, pattern: str) -> set[str]:
        return {hit.rsplit(":", 1)[0] for hit in self._hits(pattern)}

    def test_the_ridge_solve_is_written_in_ml_only(self):
        assert self._files(r"solve_normal\(") == self.CLOSED_FORM
        assert self._files(r"l2 \* (np\.)?eye") == self.CLOSED_FORM

    def test_fitted_attributes_are_assigned_by_the_shell_only(self):
        assert self._files(r"\b(coef_|intercept_) = ") == {"src/repro/ml/base.py"}
        assert len(self._hits(r"== classes\[1\], 1\.0, -1\.0")) == 1

    def test_no_provider_rewrites_the_fitted_half(self):
        outside_ml = [
            hit
            for hit in self._hits(r"def (decision_function|predict_proba)\b")
            if not hit.startswith("src/repro/ml/")
        ]
        assert outside_ml == []
        # "is it fitted" is Estimator._check_fitted; the one attribute
        # probe left is the logistic warm start
        assert self._files(r'hasattr\(self, "(coef_|classes_)"\)') == {
            "src/repro/ml/logreg.py"
        }


class TestOneCacheOneLedger:
    """Ordering/eviction and event counting each exist once under
    ``src/`` (DESIGN.md, Caches and ledgers)."""

    _hits = staticmethod(TestOneTrainingCore._hits)

    #: the files that hand-mirrored instance counts into the registry
    MIRRORED = {
        f"src/repro/{path}" for path in (
            "serving/server.py", "serving/batcher.py", "serving/fabric.py",
            "runtime/bufferpool.py", "materialize/store.py",
            "incremental/maintainer.py", "incremental/trainer.py",
            "features/store.py", "features/online.py", "features/gate.py",
            "compiler/cache.py",
        )
    }

    def _files(self, pattern: str) -> set[str]:
        return {hit.rsplit(":", 1)[0] for hit in self._hits(pattern)}

    def test_lru_mechanics_live_in_the_core_only(self):
        core = {"src/repro/cache.py"}
        assert self._files(r"OrderedDict\(") == core
        assert self._files(r"popitem\(last=False\)|\.move_to_end\(") <= core

    def test_hand_rolled_stats_classes_and_object_mode_are_gone(self):
        names = "CacheStats|PredictionCacheStats|PoolStats|MaintainerStats|FabricLedger"
        assert self._hits(rf"^\s*class ({names})\b") == []
        assert self._files(r"^class Ledger\b") == {"src/repro/obs/metrics.py"}
        assert self._hits(r"\bput_object\b") == []
        assert "src/repro/runtime/bufferpool.py" not in self._files(
            r"def lookup\b|BlockStore \| None"
        )

    def test_no_event_is_written_by_two_statements(self):
        """Where counts used to be mirrored by hand, the registry is
        written directly only for events no instance ledger counts, and
        no instance count is bumped outside ``Ledger.inc``."""
        written = [
            _line(hit).strip()
            for hit in self._hits(r"(registry|get_registry\(\))\.inc\(")
            if hit.rsplit(":", 1)[0] in self.MIRRORED
        ]
        assert written == [
            'get_registry().inc("fabric.shard_kills")',
            'get_registry().inc("fabric.shard_revives")',
        ]
        ledgered = self.MIRRORED | {"src/repro/serving/cache.py"}
        bumps = [
            hit for hit in self._hits(r"self\.(\w+\.)?\w+ \+= (1|n|len\()")
            if hit.rsplit(":", 1)[0] in ledgered
        ]
        assert bumps == [], bumps


def _line(hit: str) -> str:
    path, number = hit.rsplit(":", 1)
    return (REPO_ROOT / path).read_text().splitlines()[int(number) - 1]


class TestOneRequestPath:
    """Each step of a request is written once under ``src/`` (DESIGN.md,
    Serving and Sharded serving). That both doors reach that one place is
    checked by the door-parametrized tests in ``tests/test_serving.py``
    and ``tests/test_sharding.py``, not here."""

    SERVER = REPO_ROOT / "src/repro/serving/server.py"
    FABRIC = REPO_ROOT / "src/repro/serving/fabric.py"

    @pytest.mark.parametrize(
        "step",
        [
            "self._admit(", "self._route(", ".tobytes()", "cache.get(",
            "cache.put(", ".submit(", ".wait(", 'inc("deadline_exceeded")',
        ],
    )
    def test_server_steps_written_once(self, step):
        assert self.SERVER.read_text().count(step) == 1, step

    @pytest.mark.parametrize(
        "name", ["_admit_tenant", "_route_checked", "_dispatch"]
    )
    def test_fabric_forked_helpers_are_gone(self, name):
        assert not re.search(rf"def {name}\b", self.FABRIC.read_text())

    def _functions_holding(self, pattern: str) -> list[str]:
        """Name of the enclosing function, once per matching line."""
        lines = self.FABRIC.read_text().splitlines()
        holders = []
        for number, line in enumerate(lines):
            if re.search(pattern, line):
                above = "\n".join(lines[:number])
                holders.append(re.findall(r"\n    def (\w+)\(", above)[-1])
        return holders

    def test_fabric_sites_and_attribution_live_in_one_function_each(self):
        assert self._functions_holding(r"resilient_call\(") == ["_place"] * 2
        sites = re.findall(r'site="(fabric\.\w+)"', self.FABRIC.read_text())
        assert sites == ["fabric.route", "fabric.score"]
        assert set(self._functions_holding(r"\bshard=")) == {"_serve_on"}


class TestColdRequestPath:
    """What a cold single-row request no longer pays for (DESIGN.md,
    Serving): per-column interpreted scoring, an ``Event`` per queued
    row, ``np.stack``'s per-row ceremony."""

    _hits = staticmethod(TestOneTrainingCore._hits)

    @pytest.mark.parametrize(
        "module", ["serving/batcher.py", "features/online.py"]
    )
    def test_batches_are_assembled_without_stack(self, module):
        text = (REPO_ROOT / "src/repro" / module).read_text()
        assert not re.search(r"np\.v?stack\(", text)

    def test_the_handle_constructs_no_event_up_front(self):
        from repro.serving import PendingRequest

        assert "Event" not in inspect.getsource(PendingRequest.__init__)
        # the one a waiter installs when it arrives before completion
        assert inspect.getsource(PendingRequest).count("Event(") == 1

    def test_one_fused_kernel_and_no_column_loop(self):
        from repro.serving import compile_linear_scorer

        kernel = inspect.getsource(compile_linear_scorer)
        assert not re.search(r"for .+ in columns", kernel)
        assert kernel.count("np.add.accumulate(") == 1
        hits = [
            hit for hit in self._hits(r"np\.add\.accumulate\(")
            if hit.startswith("src/repro/serving/")
        ]
        assert len(hits) == 1 and hits[0].startswith(
            "src/repro/serving/server.py"
        ), hits


class TestOneDispatch:
    """A data-parallel call is gated, timed, recorded, fault-injected and
    recovered in ``runtime/parallel.py`` and nowhere else under ``src/``
    (DESIGN.md, Parallel dispatch)."""

    _hits = staticmethod(TestOneTrainingCore._hits)

    ENGINE = REPO_ROOT / "src/repro/runtime/parallel.py"
    #: the packages whose kernels hand their items to the engine
    CALLERS = ("sparse", "compression", "indb", "distributed", "selection")
    COUNTS = (
        "calls|parallel_calls|serial_fallbacks|tasks_dispatched"
        "|task_failures|retries|stragglers|recovered_tasks"
    )

    def _caller_hits(self, pattern: str) -> list[str]:
        return [
            hit for hit in self._hits(pattern)
            if hit.split("/")[2] in self.CALLERS
        ]

    def test_callers_neither_gate_nor_time_nor_branch_on_the_pool(self):
        assert self._caller_hits(r"should_parallelize\(|perf_counter") == []
        assert self._caller_hits(r"ctx is not None and|\bctx is None or") == []

    def test_only_whole_call_kernels_talk_to_pmap_directly(self):
        """Everything else goes through ``dispatch``; these three hand
        the engine a serial kernel for it to time and record."""
        sites = []
        for path in sorted((REPO_ROOT / "src/repro").rglob("*.py")):
            if path == self.ENGINE:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pmap"
                ):
                    keywords = {k.arg: k.value for k in node.keywords}
                    assert {"serial", "combine", "site"} <= set(keywords), path
                    sites.append(keywords["site"].value)
        assert sites == ["cla.matvec", "csr.matvec", "csr.rmatvec"]

    def test_deleted_knobs_and_records_stay_deleted(self):
        """The engine's surface; that nothing unused grows back beside it
        is ``TestZeroTraffic``'s scan, not a list of names kept here."""
        init = inspect.signature(ParallelContext.__init__).parameters
        assert list(init) == [
            "self", "max_workers", "cost_threshold", "retry_policy",
            "task_timeout",
        ]
        assert not {"retry", "timeout"} & set(
            inspect.signature(ParallelContext.pmap).parameters
        )
        assert list(inspect.signature(resolve_context).parameters) == ["parallel"]

    def test_one_attempt_loop_runs_the_guarded_task(self):
        tree = ast.parse(self.ENGINE.read_text())
        callers, loops = [], []
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.For, ast.While, ast.ListComp)):
                    continue
                if TestOneBenchHarness._mentions(node, "_guarded_task"):
                    loops.append(fn.name)
            if fn.name != "_guarded_task" and TestOneBenchHarness._mentions(
                fn, "_guarded_task"
            ):
                callers.append(fn.name)
        # the pooled first execution, and the one loop every path retries in
        assert callers == ["_timed_task", "_attempt"]
        assert loops == ["_attempt"]
        assert self.ENGINE.read_text().count("fault_point(") == 1

    def test_ledger_fields_reach_the_registry_through_the_ledger_only(self):
        assert self._hits(rf'"parallel\.({self.COUNTS})"') == []
        # what no instance ledger counts is still written directly
        direct = sorted({
            re.search(r'inc\(\s*f?"([\w.{}]+)"', _line(hit)).group(1)
            for hit in self._hits(r'inc\(\s*f?"parallel\.')
        })
        assert direct == [
            "parallel.feedback_boosts", "parallel.feedback_serial",
            "parallel.merge_tree.calls", "parallel.merge_tree.leaves",
            "parallel.pool_lost_recoveries",
        ]
        cluster = [
            _line(hit).strip()
            for hit in self._hits(r'inc\(\s*"cluster\.')
        ]
        assert cluster == ['get_registry().inc("cluster.workers_killed")']
        assert self._hits(r"\bcomm\.\w+ \+= ") == []


class TestOneOperandContract:
    """What a storage representation is, converts to, serves natively
    and costs is declared once: on the class, or in ``repro/operand.py``
    (DESIGN.md, Representations). Nothing else under ``src/`` names a
    kind or a representation class."""

    _hits = staticmethod(TestOneTrainingCore._hits)

    CONTRACT = "src/repro/operand.py"
    #: class -> the package that declares it
    HOMES = {
        "CompressedMatrix": "src/repro/compression/",
        "CSRMatrix": "src/repro/sparse/",
        "NormalizedMatrix": "src/repro/factorized/",
    }
    #: packages that meet operands but must not know which kinds exist
    KIND_BLIND = ("runtime", "compiler", "materialize", "algorithms", "lang")

    def test_one_class_is_the_transpose_view(self):
        views = self._hits(r"^class Transposed\w*") + self._hits(
            r"self\.shape = \(base\.shape\[1\], base\.shape\[0\]\)"
        )
        assert [hit.rsplit(":", 1)[0] for hit in views] == [self.CONTRACT] * 2

    def test_no_module_outside_its_package_names_a_representation_class(self):
        """Neither imported nor ``isinstance``-checked: the executor, the
        planner and the stores tell operands apart by ``Operand.kind``.
        (``factorized/``'s own front doors check their own class.)"""
        for name, home in self.HOMES.items():
            strangers = [
                hit for hit in self._hits(rf"\b{name}\b")
                if not hit.startswith(home)
                and re.search(r"import|isinstance", _line(hit))
            ]
            assert strangers == [], strangers

    def test_kind_tags_are_spelled_by_their_classes_only(self):
        tags = set(repro.operand.registered())
        assert tags == {"cla", "csr", "factorized"}
        spelled = []
        for package in self.KIND_BLIND:
            for path in sorted((REPO_ROOT / "src/repro" / package).rglob("*.py")):
                spelled += [
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant) and node.value in tags
                ]
        assert spelled == []
        assert self._hits(r"_rep_classes|_REP_KINDS|TransposedCSR") == []

    def test_the_contract_module_is_a_leaf(self):
        tree = ast.parse((REPO_ROOT / self.CONTRACT).read_text())
        imported = {
            ("." * node.level + (node.module or ""))
            if isinstance(node, ast.ImportFrom) else node.names[0].name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
        assert imported == {"__future__", "numpy", ".errors"}

    def test_zero_preservation_and_partial_sums_are_written_once(self):
        probes = self._hits(r"\(np\.zeros\(1\)\)|def _?\w*zero_preserving")
        assert {hit.rsplit(":", 1)[0] for hit in probes} == {self.CONTRACT}
        assert len(probes) == 2  # the definition and its one probe
        assert self._hits(
            r"_zero_preserving_scalar|_ZERO_PRESERVING_UNARY"
        ) == []
        sums = self._hits(r"def _?sum_partials\b")
        assert len(sums) == 1 and sums[0].startswith(self.CONTRACT), sums

    def test_planner_and_runtime_share_the_dispatch_decision(self):
        """``serves`` is asked in one place, ``decide``; the executor's
        rep path and the planner's walk both go through it."""
        asked = self._hits(r"\bserves\(")
        assert [hit.rsplit(":", 1)[0] for hit in asked] == [
            self.CONTRACT, "src/repro/runtime/repops.py",
        ]
        callers = {
            hit.rsplit(":", 1)[0] for hit in self._hits(r"\bdecide\(node, ")
        }
        assert callers == {
            "src/repro/runtime/repops.py", "src/repro/compiler/reprplan.py",
        }

    def test_one_operator_label(self):
        spelled = [
            hit for hit in self._hits(r'f"(binary|unary|agg|fused):\{')
            if not hit.startswith("src/repro/materialize/fingerprint.py")
        ]
        # op_label's three format strings; fingerprint keeps its own
        # tags (its aggregate tag carries the axis: a persisted key)
        assert [hit.rsplit(":", 1)[0] for hit in spelled] == [
            "src/repro/lang/ast.py"
        ] * 3, spelled
        assert self._hits(r"def _node_label") == []

    def test_parallel_is_attached_through_one_door(self):
        from repro.compression import CompressedMatrix

        for fn in (CompressedMatrix.__init__, CompressedMatrix.compress):
            assert "parallel" not in inspect.signature(fn).parameters
        doors = self._hits(r"def set_parallel\b")
        assert [hit.rsplit(":", 1)[0] for hit in doors] == [self.CONTRACT]

    def test_the_write_only_feedback_section_stays_deleted(self):
        gone = r"op_cost|ingest_spans|observe_op|op_flops|seconds_per_flop"
        assert self._hits(gone) == []


class TestOneBenchHarness:
    """Every experiment E1-E27 has one home (``bench_<x>.py`` with
    ``run`` + ``report``) over one shared ``benchmarks/harness.py``:
    the timer, the bench command line and the path bootstrap are each
    written once. ``benchmarks/e2e/`` is the whole-loop harness with its
    own clock and is not in scope."""

    BENCH = REPO_ROOT / "benchmarks"

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            path.name: ast.parse(path.read_text())
            for path in sorted(self.BENCH.glob("*.py"))
        }

    @staticmethod
    def _functions(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _mentions(node, name: str) -> bool:
        return any(
            (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.Name) and n.id == name)
            for n in ast.walk(node)
        )

    def test_one_function_holds_the_repeat_timer(self, trees):
        loops = [
            f"{name}:{fn.name}"
            for name, tree in trees.items()
            for fn in self._functions(tree)
            for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.While))
            and self._mentions(node, "perf_counter")
        ]
        assert loops == ["harness.py:timed"]
        clocks = [
            name for name, tree in trees.items()
            if self._mentions(tree, "perf_counter")
        ]
        assert clocks == ["harness.py"]

    def test_one_argument_parser_per_role(self, trees):
        parsers = [
            name for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and self._mentions(node.func, "ArgumentParser")
        ]
        assert parsers == ["check_regression.py", "harness.py", "run_experiments.py"]

    def test_nothing_for_pytest_to_collect(self, trees):
        offenders = [
            f"{name}:{fn.name}"
            for name, tree in trees.items()
            for fn in self._functions(tree)
            if fn.name.startswith("test_")
            or "benchmark" in [a.arg for a in fn.args.args]
        ]
        assert offenders == []
        assert not (self.BENCH / "conftest.py").exists()
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert "bench_*.py" not in pyproject and "benchmark" not in pyproject

    def test_path_bootstrap_lives_in_the_harness(self):
        holders = [
            path.name for path in sorted(self.BENCH.glob("*.py"))
            if "sys.path.insert" in path.read_text()
        ]
        assert holders == ["harness.py"]

    def test_every_bench_module_is_one_registered_experiment(self, trees):
        benches = {name[:-3] for name in trees if name.startswith("bench_")}
        for name in benches:
            defined = {
                node.name for node in trees[f"{name}.py"].body
                if isinstance(node, ast.FunctionDef)
            }
            assert {"run", "report"} <= defined, name
        runner = (self.BENCH / "run_experiments.py").read_text()
        registry = dict(
            re.findall(r'^    "(E\d+)": \("(bench_\w+)"', runner, re.M)
        )
        assert list(registry) == [f"E{n}" for n in range(1, 28)]
        assert sorted(registry.values()) == sorted(benches)  # one home each


# ----------------------------------------------------------------------
# Zero traffic: the audit scan
# ----------------------------------------------------------------------
#: where traffic comes from: a test calling a function is not a reason to keep it
SCANNED = ("src", "benchmarks", "examples")


def _terminal(node):
    """``f`` of ``f`` / ``obj.f`` — all the scan knows about a name."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _dict_keys(node):
    """Keys of a dict display / ``dict(k=...)``; ``None`` if neither, a
    ``None`` member if some key cannot be read off the source."""
    if isinstance(node, ast.Dict):
        return {
            k.value if isinstance(k, ast.Constant) else None for k in node.keys
        }
    if isinstance(node, ast.Call) and _terminal(node.func) == "dict":
        return {k.arg for k in node.keywords} | ({None} if node.args else set())
    return None


def _local_dicts(scope):
    """name -> keys, for names bound once in ``scope`` to a dict display
    and never touched through an attribute or a subscript."""
    keys, spoiled = {}, set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                found = _dict_keys(node.value)
                if _terminal(target) in keys or found is None or None in found:
                    spoiled.add(_terminal(target))
                keys[_terminal(target)] = found
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            spoiled.add(_terminal(node.value))
    return {name: k for name, k in keys.items() if name not in spoiled}


def zero_traffic(root=REPO_ROOT):
    """The audit: ``(functions, parameters, modules)`` of ``src/``, the
    first two with no traffic from ``src/``, ``benchmarks/`` or ``examples/``
    (``tests/`` is not traffic), as ``path:line Owner.name`` /
    ``path:line Owner.name(param=)``.

    Name-based (DESIGN.md, *Zero traffic*, measures), so it errs towards
    "used": a public top-level class, function or method is referenced
    when its name is read (a name, an attribute, an identifier-shaped
    string) outside a same-named definition, an ``__init__`` re-export
    and ``__all__``; a defaulted parameter is set when a call of that
    name (for an ``__init__``: of the class, a subclass, ``super()``, or
    ``cls`` inside either) passes the keyword, enough positionals, or a
    ``**`` that can hold it.

    Exempt, because their traffic is not a call the scan can see or is
    the point of them: estimator hyperparameters (``__init__`` of an
    ``Estimator`` subclass — what ``get_params`` enumerates and the
    searches set by name), everything in ``repro.data`` (generator
    knobs are the library's fixtures), an injectable ``clock=`` seam,
    ``representation=`` (``"dense"`` selects the reference interpreter
    the parity tests compare against) and a number-literal default (it
    parametrises arithmetic and selects no path). The ``lang/dsl.py``
    builtins (the DSL's operator surface) and the modules the module pass
    reports are not scanned further.
    """
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for top in SCANNED
        for path in sorted((root / top).rglob("*.py"))
    }
    functions, bases = [], {}
    for rel, tree in trees.items():
        if not rel.startswith("src/"):
            continue
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, [_terminal(b) for b in node.bases])
                members += [(node, child) for child in node.body]
            functions += [
                (rel, owner, fn) for owner, fn in members
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
    children = {}
    for name, parents in bases.items():
        for parent in parents:
            children.setdefault(parent, []).append(name)

    def lineage(name, table):
        seen, todo = set(), [name]
        while todo:
            new = {n for n in table.get(todo.pop(), ()) if n} - seen
            seen |= new
            todo += new
        return seen

    mentions = {}    # name -> {name of the function it is read in}
    calls = {}       # callee -> [(positionals, keywords, ** spreads)]
    spelled = set()  # every key any dict display spells

    def visit(node, rel, inside, kwarg, dicts, exported, klass):
        for child in ast.iter_child_nodes(node):
            here, spread, local = inside, kwarg, dicts
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                here = child.name
                spread = child.args.kwarg.arg if child.args.kwarg else None
                local = _local_dicts(child)
            listing = exported or (
                isinstance(child, ast.Assign)
                and any(_terminal(t) == "__all__" for t in child.targets)
            )
            spelled.update(_dict_keys(child) or ())
            read = []
            if isinstance(child, (ast.Name, ast.Attribute)):
                read = [_terminal(child)]
            elif isinstance(child, ast.Constant) and not listing:
                if isinstance(child.value, str) and child.value.isidentifier():
                    read = [child.value]
            elif isinstance(child, ast.ImportFrom):
                if not rel.endswith("__init__.py"):
                    read = [alias.name for alias in child.names]
            elif isinstance(child, ast.ClassDef) and child.keywords:
                calls.setdefault("__init_subclass__", []).append(
                    (0, {k.arg for k in child.keywords}, [])
                )
            elif isinstance(child, ast.Call):
                args, callee = list(child.args), _terminal(child.func)
                if callee == "partial" and args:
                    callee = _terminal(args.pop(0))
                callee = f"cls@{klass}" if callee == "cls" else callee
                starred = any(isinstance(a, ast.Starred) for a in args)
                calls.setdefault(callee, []).append((
                    float("inf") if starred else len(args),
                    {k.arg for k in child.keywords if k.arg},
                    # the enclosing def's own **kwargs: that def's name,
                    # followed to its callers; a local dict display: its
                    # keys; anything else: None, an open dict
                    [
                        inside if kwarg and _terminal(k.value) == kwarg
                        else dicts.get(_terminal(k.value))
                        for k in child.keywords if not k.arg
                    ],
                ))
            for name in read:
                mentions.setdefault(name, set()).add(inside)
            within = child.name if isinstance(child, ast.ClassDef) else klass
            visit(child, rel, here, spread, local, listing, within)

    for rel, tree in trees.items():
        visit(tree, rel, None, None, _local_dicts(tree), False, None)

    def reaches(callees, param, position, seen=frozenset()):
        """Does a call of ``callees`` set ``param``? An open ``**`` may
        hold any key some dict display in the trees spells."""
        for callee in callees - seen:
            for positionals, keywords, spreads in calls.get(callee, ()):
                if param in keywords:
                    return True
                if position is not None and positionals > position:
                    return True
                for spread in spreads:
                    if spread is None:
                        found = param in spelled
                    elif isinstance(spread, str):
                        found = reaches({spread}, param, None, seen | callees)
                    else:
                        found = param in spread
                    if found:
                        return True
        return False

    dead_functions, dead_parameters = [], []
    for rel, owner, fn in functions:
        where = f"{rel}:{fn.lineno} " + (f"{owner.name}." if owner else "")
        read_in = mentions.get(fn.name, set()) - {fn.name}
        if not fn.name.startswith("_") and not read_in:
            dead_functions.append(where + fn.name)
        marks = {
            _terminal(d.func if isinstance(d, ast.Call) else d)
            for d in fn.decorator_list
        }
        if marks & {"property", "setter"} or isinstance(fn, ast.ClassDef):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        bound = owner is not None and "staticmethod" not in marks
        first = len(positional) - len(fn.args.defaults)
        defaulted = [
            (arg.arg, index - bound, default) for index, (arg, default)
            in enumerate(zip(positional[first:], fn.args.defaults), first)
        ] + [
            (arg.arg, None, default)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        callees, hyper = {fn.name}, False
        if owner is not None and fn.name == "__init__":
            family = {owner.name} | lineage(owner.name, children)
            callees |= family | {"__init__"} | {f"cls@{c}" for c in family}
            hyper = "Estimator" in lineage(owner.name, bases)
        for param, position, default in defaulted:
            if isinstance(default, ast.UnaryOp):
                default = default.operand
            if (
                hyper
                or param in ("clock", "representation")
                or type(getattr(default, "value", None)) in (int, float)
            ):
                continue
            if not reaches(callees, param, position):
                dead_parameters.append(f"{where}{fn.name}({param}=)")
    # modules a bench or an example reaches: imports (lazy ones too) followed
    # through re-exports to the defining module, and ``pkg.attr`` reads
    files = {r[4:-3].replace("/", ".").removesuffix(".__init__"): r
             for r in trees if r.startswith("src/")}
    pkgs = {m for m, r in files.items() if r.endswith("__init__.py")}

    def source(mod, node):  # the absolute module an ImportFrom names
        base = mod.rsplit(".", node.level - (mod in pkgs))[0] if node.level else ""
        return ".".join(filter(None, (base, node.module)))

    forwards = {m: {a.asname or a.name: (source(m, n), a.name)
                    for n in trees[files[m]].body if isinstance(n, ast.ImportFrom)
                    for a in n.names} for m in pkgs}

    def home(mod, name):
        sub, forward = f"{mod}.{name}", forwards.get(mod, {}).get(name)
        return sub if sub in files else home(*forward) if forward else mod

    def edges(mod, tree):  # a package's own top-level imports are not edges
        bound, skip = {}, tree.body if mod in forwards else ()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n not in skip:
                bound |= {a.asname or a.name: home(source(mod, n), a.name)
                          for a in n.names}
            elif isinstance(n, ast.Import):
                bound |= {a.asname or a.name: a.name for a in n.names}
        return set(bound.values()) | {
            home(bound[_terminal(n.value)], n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and _terminal(n.value) in bound
        }

    seen, todo = set(), set().union(*(edges(None, t) for r, t in trees.items()
                                      if r.startswith(("benchmarks/", "examples/"))))
    while todo := (todo - seen) & files.keys():
        seen.add(mod := todo.pop())
        todo |= edges(mod, trees[files[mod]]) | {mod.rpartition(".")[0]}
    unreached = sorted(files.keys() - seen)
    quiet = (*(f"{files[m]}:" for m in unreached), "src/repro/lang/dsl.py:",
             "src/repro/data/")
    return (
        [entry for entry in dead_functions if not entry.startswith(quiet)],
        [entry for entry in dead_parameters if not entry.startswith(quiet)],
        unreached,
    )


class TestZeroTraffic:
    """Nothing under ``src/`` is unreachable and every optional subsystem
    has one way in (DESIGN.md, Configuration): the audit of PR 24, kept
    as a test so the surface cannot regrow."""

    #: what only tests reach and stays, each with the reason it stays
    ALLOWED = {
        "ShardedServer.route":
            "the pure failover replay the sharding tests hold _place to",
        "ChangeStream.drop_next":
            "the lost-in-transit seam behind DeltaConsumer's ledger identity",
        "InDBLinearRegression.fit(parallel=)":
            "parallel= on a training front door: every driver reaches the "
            "pool the same way (DESIGN.md, Parallel dispatch)",
        "full_budget_baseline(parallel=)": "as above",
        "successive_halving(parallel=)": "as above",
        "random_search(parallel=)": "as above",
        "SimulatedCluster.__init__(parallel=)": "as above",
        "ParallelContext.__init__(task_timeout=)": "straggler recovery: safety code",
        "ModelServer.predict(deadline_at=)":
            "set positionally, through getattr(shard.server, door) in "
            "ShardedServer._serve_on",
        "ModelServer.predict_many(deadline_at=)": "as above",
        "ModelServer.predict(deadline_ms=)":
            "the two-door contract: the batch door's half is traffic, and "
            "the request context (ROADMAP item 2) carries it",
        "ModelServer.predict_many(deadline_ms=)": "as above",
        "ShardedServer.predict(deadline_ms=)": "as above",
        "ShardedServer.predict_many(deadline_ms=)": "as above",
        "ShardedServer.predict(tenant=)": "as above (predict_many(tenants=))",
        "plan_representations(force=)":
            "'dense' is the reference the planner parity tests compare "
            "against, like the exempt representation=",
        "run_sql(optimize=)":
            "False is the unpushed reference the pushdown tests compare against",
    }

    #: modules only ``tests/`` reach, each with the reason it stays
    UNREACHED = {
        "repro.indb.scoring": "the oracle compile_linear_scorer is pinned to",
        "repro.compiler.sparsity": "SystemML's sparsity propagation (pillar 3)",
        "repro.algorithms.decomposition": "PCA as a SystemML-style DSL script",
    }

    @pytest.fixture(scope="class")
    def audit(self):
        return zero_traffic()

    def test_every_module_is_reached_from_a_bench_or_an_example(self, audit):
        assert audit[2] == sorted(self.UNREACHED)

    def unlisted(self, entries):
        return [e for e in entries if e.split(" ", 1)[1] not in self.ALLOWED]

    def test_every_public_function_is_referenced(self, audit):
        assert self.unlisted(audit[0]) == []

    def test_every_defaulted_parameter_is_set_by_a_caller(self, audit):
        assert self.unlisted(audit[1]) == []
        # an entry the scan no longer flags has no business on the list
        flagged = {entry.split(" ", 1)[1] for entry in audit[0] + audit[1]}
        assert set(self.ALLOWED) <= flagged
        assert len(self.ALLOWED) <= 25 and all(self.ALLOWED.values())

    def test_every_environment_read_is_named_in_ci(self):
        """Three variables, each set by a CI job: anything else that
        shapes a run is an object entered with ``with ..._scope(obj)``."""
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        read = set()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text())
            constants = {
                _terminal(node.targets[0]): node.value.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
            }
            gets = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _terminal(node.func.value) == "environ"
            ]
            touches = [
                node for node in ast.walk(tree)
                if _terminal(node) in ("environ", "getenv", "putenv")
            ]
            assert len(touches) == len(gets), (
                f"{path}: reach the environment by os.environ.get(NAME) only"
            )
            for call in gets:
                name = call.args[0]
                read.add(
                    name.value if isinstance(name, ast.Constant)
                    else constants[name.id]
                )
        assert read == {"REPRO_TRACE", "REPRO_CHAOS_SEED", "REPRO_NUM_THREADS"}
        assert all(name in ci for name in read)

    def test_every_fault_site_is_registered(self):
        """Each ``fault_point(`` / ``site=`` / ``FAULT_SITE`` literal in
        ``src/`` is a row of ``repro.resilience.SITES``."""
        from repro.resilience import SITES

        spelled = set()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                literals = []
                if isinstance(node, ast.Call):
                    literals = [k.value for k in node.keywords if k.arg == "site"]
                    if _terminal(node.func) == "fault_point":
                        literals += node.args[:1]
                elif isinstance(node, ast.Assign):
                    if _terminal(node.targets[0]) == "FAULT_SITE":
                        literals = [node.value]
                for literal in literals:
                    if isinstance(literal, ast.Constant):
                        spelled.add(literal.value)
                    elif isinstance(literal, ast.JoinedStr):
                        spelled.add(literal.values[0].value + "*")
        assert len(spelled) == 29 and spelled == set(SITES)
        kinds = {kind for kind, _ in SITES.values()}
        assert kinds == {
            "retry", "failover", "lineage recompute", "fallback recompute",
            "tolerated drop",
        }
        assert all(
            issubclass(error, repro.errors.ReproError)
            for _, error in SITES.values()
        )

    @pytest.mark.parametrize(
        "module, scope", [("compiler/feedback.py", "feedback_scope")]
    )
    def test_a_store_is_installed_by_its_scope_and_nothing_else(
        self, module, scope
    ):
        tree = ast.parse((REPO_ROOT / "src/repro" / module).read_text())
        installers = [
            fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Global) for node in ast.walk(fn))
        ]
        assert installers == [scope]
