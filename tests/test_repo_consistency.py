"""Repository-consistency checks: exports, docs, and experiment index."""

import ast
import importlib
import inspect
import pathlib
import re
import runpy

import pytest

import repro
from repro.runtime.parallel import ParallelContext, resolve_context

# .../repo/src/repro/__init__.py -> .../repo
REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
#: ``benchmarks/tasks.py``: tag -> one row of the table of experiment runs
TASKS = runpy.run_path(str(REPO_ROOT / "benchmarks" / "tasks.py"))["TASKS"]

SUBPACKAGES = (
    "algorithms compiler compression data distributed factorized feateng "
    "indb lang lifecycle ml runtime selection serving sparse storage"
).split()


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
DOC_LINES = {"EXPERIMENTS.md": 2713, "DESIGN.md": 1205, "README.md": 582}


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
        design_ids = set(re.findall(r"\| (E\d+) \|", design))
        assert design_ids <= set(TASKS)

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
    Serving and Sharded serving), per row or, for bookkeeping, per call;
    the door-parametrized tests check that both doors reach it."""

    SERVER = REPO_ROOT / "src/repro/serving/server.py"
    FABRIC = REPO_ROOT / "src/repro/serving/fabric.py"

    @pytest.mark.parametrize("step", [
        'fault_point("serving.admission"', "routes_to_canary(", ".tobytes()",
        "cache.get(", "cache.put(", ".submit(", ".wait(",
        'inc("deadline_exceeded")', 'inc("requests"',
    ])
    def test_server_steps_written_once(self, step):
        text = self.SERVER.read_text()
        assert text.count(step) == 1, step
        assert text.index("finally:") < text.index('inc("requests"')

    def test_one_public_server_and_no_control_plane_below_it(self):
        from repro import serving

        servers = [name for name in serving.__all__ if "Server" in name]
        assert servers == ["ShardedServer"]
        executor = serving.ShardedServer(None, 1).shard("shard-0").server
        removed = ("set_promotion_gate promote _gates set_canary "
                   "clear_canary start __enter__ __exit__").split()
        assert [name for name in removed if hasattr(executor, name)] == []

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
        assert self._functions_holding(r"quotas\.admit\(") == ["_admit"]
        sites = re.findall(r'site="(fabric\.\w+)"', self.FABRIC.read_text())
        assert sites == ["fabric.route", "fabric.score"]
        assert set(self._functions_holding(r"\bshard=")) == {"_attributed"}


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
        """Everything else goes through ``dispatch``; this one hands
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
        assert sites == ["cla.matvec"]

    def test_deleted_knobs_and_records_stay_deleted(self):
        """The engine's surface; that nothing unused grows back beside it
        is ``benchmarks/traffic.py``'s measurement, not a list of names
        kept here."""
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
        (door,) = self._hits(r"def set_parallel\b")
        assert door.startswith("src/repro/compression/matrix.py:")

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
        assert list(TASKS) == [f"E{n}" for n in range(1, 28)]
        assert sorted(t.module for t in TASKS.values()) == sorted(benches)


def _terminal(node):
    """``f`` of ``f`` / ``obj.f``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


class TestOneWayIn:
    """Every optional subsystem has one way in (DESIGN.md, Configuration):
    what shapes a run is an environment variable CI names, a registered
    fault site, or a store entered with its scope. Whether ``src/`` code
    and options are reached at all is measured, not guessed, by
    ``benchmarks/traffic.py`` in its own CI job (DESIGN.md, *Zero
    traffic*)."""

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
        assert len(spelled) == 25 and spelled == set(SITES)
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
