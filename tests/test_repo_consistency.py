"""Repository-consistency checks.

A guard here pins a surface: what a package exports or imports, the
environment reads and fault sites ``src/`` spells, or a match between a
document and the code it names. A finished refactor's call-site counts
are not kept here; the tests of the behaviour it kept, and
``benchmarks/traffic.py`` for code no run reaches, cover it."""

import ast
import importlib
import pathlib
import re
import runpy

import pytest

import repro

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
DOC_LINES = {"EXPERIMENTS.md": 1198, "DESIGN.md": 1203, "README.md": 582}
#: the same for this file
OWN_LINES = 600


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

    def test_this_file_stays_inside_its_budget(self):
        """A guard that only restates a finished refactor's call-site
        count belongs with the tests of that behaviour, not here."""
        assert len(pathlib.Path(__file__).read_text().splitlines()) <= OWN_LINES


#: the documents whose references into the code must resolve
REFERENCING_DOCS = (
    "EXPERIMENTS.md", "DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md",
)
#: a repository path to a Python file, with an optional ``::Name::name`` tail
CODE_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples)/[\w./-]*?\.py)((?:::\w+)*)"
)
#: a ``file.py:<line>`` citation
LINE_CITATION = re.compile(r"[\w./-]+\.py:\d+")


def _names_defined(path: pathlib.Path) -> set[str]:
    """Every def, class and assignment target in ``path``, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return names


@pytest.mark.parametrize("doc", REFERENCING_DOCS)
class TestDocReferences:
    """What a document cites in the code exists, and is cited by name."""

    def test_cited_paths_and_names_resolve(self, doc):
        """Each backticked ``src|tests|benchmarks|examples/….py`` is a
        file, and each ``path.py::Name`` a def, class or assignment in it
        (fenced blocks are command transcripts and are not read)."""
        text = re.sub(r"```.*?```", "", (REPO_ROOT / doc).read_text(), flags=re.S)
        unresolved = []
        for span in re.findall(r"`([^`]+)`", text):
            for path, tail in CODE_PATH.findall(span):
                if not (REPO_ROOT / path).is_file():
                    unresolved.append(path)
                elif tail:
                    missing = set(tail.split("::")[1:]) - _names_defined(
                        REPO_ROOT / path
                    )
                    unresolved += [f"{path}::{name}" for name in sorted(missing)]
        assert unresolved == []

    def test_no_citation_carries_a_line_number(self, doc):
        assert LINE_CITATION.findall((REPO_ROOT / doc).read_text()) == []


class TestOneTrainingCore:
    """``repro.ml`` is the training core every provider builds on
    (DESIGN.md, Training core), so it imports no provider package."""

    def test_ml_imports_no_provider_package(self):
        provider = re.compile(
            r"^\s*(from|import) \S*\b(algorithms|factorized|indb|runtime"
            r"|distributed|incremental)\b"
        )
        hits = [
            f"{path.relative_to(REPO_ROOT)}: {line.strip()}"
            for path in sorted((REPO_ROOT / "src/repro/ml").rglob("*.py"))
            for line in path.read_text().splitlines()
            if provider.search(line)
        ]
        assert hits == []


class TestOneRequestPath:
    """``repro.serving`` exports one server, and a shard's executor has
    no control plane of its own (DESIGN.md, Sharded serving)."""

    def test_one_public_server_and_no_control_plane_below_it(self):
        from repro import serving

        servers = [name for name in serving.__all__ if "Server" in name]
        assert servers == ["ShardedServer"]
        executor = serving.ShardedServer(None, 1).shard("shard-0").server
        removed = ("set_promotion_gate promote _gates set_canary "
                   "clear_canary start __enter__ __exit__").split()
        assert [name for name in removed if hasattr(executor, name)] == []


class TestOneOperandContract:
    """``repro/operand.py`` is what every representation imports to
    declare itself (DESIGN.md, Representations), so it is a leaf; and
    a representation class is imported only inside its own package."""

    #: class -> the package that declares it
    HOMES = {
        "CompressedMatrix": "src/repro/compression/",
        "CSRMatrix": "src/repro/sparse/",
        "NormalizedMatrix": "src/repro/factorized/",
    }

    def test_no_module_outside_its_package_names_a_representation_class(self):
        """Neither imported nor ``isinstance``-checked: the executor, the
        planner and the stores tell operands apart by ``Operand.kind``.
        (``factorized/``'s own front doors check their own class.)"""
        strangers = [
            f"{path.relative_to(REPO_ROOT)}: {line.strip()}"
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            for line in path.read_text().splitlines()
            for name, home in self.HOMES.items()
            if re.search(rf"\b{name}\b", line)
            and re.search(r"import|isinstance", line)
            and not str(path.relative_to(REPO_ROOT)).startswith(home)
        ]
        assert strangers == []

    def test_the_contract_module_is_a_leaf(self):
        tree = ast.parse((REPO_ROOT / "src/repro/operand.py").read_text())
        imported = {
            ("." * node.level + (node.module or ""))
            if isinstance(node, ast.ImportFrom) else node.names[0].name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
        assert imported == {"__future__", "numpy", ".errors"}


class TestOneBenchHarness:
    """Every experiment E1-E27 is one ``benchmarks/bench_<x>.py`` with
    ``run`` + ``report`` and one row of ``benchmarks/tasks.py``.
    ``benchmarks/e2e/`` (E28) is the whole-loop harness and not in scope."""

    def test_every_bench_module_is_one_registered_experiment(self):
        benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        for path in benches:
            defined = {
                node.name for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)
            }
            assert {"run", "report"} <= defined, path.name
        assert list(TASKS) == [f"E{n}" for n in range(1, 28)]
        assert sorted(t.module for t in TASKS.values()) == [p.stem for p in benches]


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
