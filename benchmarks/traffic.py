#!/usr/bin/env python3
"""Traffic: what under ``src/`` no bench, loop run or example executes.

Run it from anywhere; it takes no arguments::

    python benchmarks/traffic.py

Each run in :func:`runs` (the examples, the E28 workloads, the experiment
runner plain and traced, and the ``bench-regression`` legs of ``tasks.py``
as CI runs them) goes in a fresh interpreter under a ``sys.settrace`` +
``threading.settrace`` hook that returns ``None``, so it sees call events
only, and records every code object under ``src/repro/``. The union of
the runs is held against what the source declares:

* a top-level or class-member ``def`` ran when its code object (first
  line: its first decorator) was recorded; a ``class`` ran when one of
  its members ran, an instance of it (or of a subclass) reached an
  ``__init__`` or was the ``self`` of a method of a class ``src/``
  subclasses (an inherited method names the subclass that ran it), or
  it was the ``cls`` of a call (a classmethod, ``__new__``, a
  NamedTuple constructor), and a base class when a subclass ran. An
  exception class with no ``__init__`` of its own is constructed in C,
  out of the tracer's sight;
* an *option* -- a parameter whose default is ``None``, a bool or a
  string -- was set when a traced call bound it to anything else (the
  call event's ``f_locals`` against the default). A ``def`` leaves the
  watch list once all its options have been seen set.

Whatever did not run or was never set is an error unless
``traffic_exempt.json`` (beside this file) covers it, and so is an
exemption that covers nothing or gives no reason. An entry covers the
names it matches as an ``fnmatch`` pattern, their members and their
options. A run that trips an ``assert`` under the tracer (a timing
bound) is rerun under ``python -O`` and the two traces are united; the
report names each such run. Exits 0 when nothing is left over, 1
otherwise, and writes the whole report, with everything the runs
recorded, to ``traffic-report.json`` at the repository root.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXEMPT = Path(__file__).resolve().with_name("traffic_exempt.json")
REPORT = ROOT / "traffic-report.json"

#: a child interpreter: load this file, trace ``argv[3:]`` into ``argv[2]``
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['trace_child'](*sys.argv[2:])"


def runs(scratch: Path) -> list[tuple[str, list[str], dict]]:
    """``(label, script and arguments, environment)`` of every traced run."""
    from tasks import TASKS  # not at the top: a traced child never needs it

    e2e = "benchmarks/e2e/run.py"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    workloads = [w["name"] for w in declared]

    def loop(workload, seed, trace):
        return (
            f"e2e {workload} seed {seed} trace {trace}",
            [e2e, "--workload", workload, "--seed", str(seed),
             "--seconds", "2", "--trace", str(trace)],
            {},
        )

    return [
        *(
            (f"example {path.name}", [f"examples/{path.name}"], {})
            for path in sorted((ROOT / "examples").glob("*.py"))
        ),
        *(loop(w, 2017, trace) for w in workloads for trace in (0, 1)),
        *(loop(w, 4242, 0) for w in workloads if w != "serve_hot"),
        ("run_experiments", ["benchmarks/run_experiments.py"], {}),
        (
            "run_experiments traced",
            ["benchmarks/run_experiments.py", "--report",
             str(scratch / "obs-report.json")],
            {"REPRO_TRACE": "1"},
        ),
        *(
            (f"{t.tag} {t.module}.py",
             [f"benchmarks/{t.module}.py", "--quick", *t.leg.args.split(),
              "--out", str(scratch / f"{t.tag}-candidate.json")],
             {"REPRO_CHAOS_SEED": t.leg.chaos_seed} if t.leg.chaos_seed else {})
            for t in TASKS.values() if t.leg is not None
        ),
    ]


def _options_of(args: ast.arguments) -> dict:
    """Parameter -> default, for defaults that are ``None``, a bool or a str."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return {
        arg.arg: default.value
        for arg, default in pairs
        if isinstance(default, ast.Constant)
        and (default.value is None or isinstance(default.value, (bool, str)))
    }


def declarations() -> list[tuple]:
    """``(name, code key, members or None, options, lines, bases)`` per
    top-level ``def`` / ``class`` under ``src/repro``; a class's members
    nest the same way. A code key is ``(path, first line, name)``, as a
    code object reads; ``lines`` counts the source lines from there to the
    end. ``bases`` names the ``src/repro`` classes a class derives from:
    a base a module declares itself is that class, any other base every
    module-level class of that name (empty for a function)."""
    trees = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        trees.append((rel, module, ast.parse(path.read_text())))
    classes = {}
    for _, module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).add(f"{module}.{node.name}")

    def bases(node, module):
        named = set()
        for base in node.bases:
            base = base.value if isinstance(base, ast.Subscript) else base
            bare = getattr(base, "id", getattr(base, "attr", None))
            namesakes = classes.get(bare, set())
            local = f"{module}.{bare}"
            named |= {local} if local in namesakes else namesakes
        return sorted(named)

    def visit(body, rel, prefix, module):
        found = []
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            first = node.decorator_list[0] if node.decorator_list else node
            key = (rel, first.lineno, node.name)
            name = f"{prefix}.{node.name}"
            lines = node.end_lineno - first.lineno + 1
            if isinstance(node, ast.ClassDef):
                members = visit(node.body, rel, name, module)
                found.append((name, key, members, {}, lines, bases(node, module)))
            else:
                found.append((name, key, None, _options_of(node.args), lines, []))
        return found

    declared = []
    for rel, module, tree in trees:
        declared += visit(tree.body, rel, module, module)
    return declared


def _flatten(declared):
    for entry in declared:
        yield entry
        if entry[2] is not None:
            yield from _flatten(entry[2])


def trace_child(out: str, script: str, *args: str) -> None:
    """Run ``script`` as ``__main__`` under the tracer; write what ran to
    ``out`` (also when the script fails) and exit with its status."""
    declared = list(_flatten(declarations()))
    options = {key: opts for _, key, _, opts, _, _ in declared if opts}
    derived = {base for *_, bases in declared for base in bases}
    inheritable = {m[1] for name, _, members, *_ in declared
                 if name in derived for m in members}
    prefix = str(SRC) + os.sep
    files, state = {}, {}
    ran, bound, built = set(), set(), set()

    def first_sight(code):
        rel = files.get(code.co_filename, 0)
        if rel == 0:
            real = os.path.realpath(code.co_filename)
            rel = files[code.co_filename] = (
                Path(real).relative_to(ROOT).as_posix()
                if real.startswith(prefix) else None
            )
        key = None if rel is None else (rel, code.co_firstlineno, code.co_name)
        # where a class shows up: the instance an ``__init__`` (ours, a
        # dataclass's or the stdlib's) receives, the ``self`` a method of
        # one of our subclassed classes receives, or the class one of our
        # classmethods, a ``__new__`` or a NamedTuple constructor receives
        # (not a decorator's or an ``__init_subclass__``: those see every
        # class as it is defined)
        first = code.co_varnames[0] if code.co_argcount else None
        if code.co_name == "__init_subclass__" or not (
            code.co_name == "__init__"
            or (first == "cls" and (key or code.co_name == "__new__"))
            or first == "_cls"
            or (first == "self" and key in inheritable)
        ):
            first = None
        if key is not None:
            ran.add(key)
        pending = dict(options.get(key, ()))
        return (key, pending, first) if pending or first else 0

    def tracer(frame, event, arg):
        code = frame.f_code
        entry = state.get(code)
        if entry is None:
            entry = state[code] = first_sight(code)
        if entry:
            key, pending, first = entry
            local = frame.f_locals
            if first:
                value = local.get(first)
                built.update(
                    value.__mro__ if isinstance(value, type) else type(value).__mro__
                )
            for name, default in tuple(pending.items()):
                value = local.get(name, default)
                if value is not default and (
                    type(value) is not type(default) or value != default
                ):
                    pending.pop(name, None)
                    bound.add((*key, name))
            if not pending and not first:
                state[code] = 0

    sys.argv = [script, *args]
    sys.path[0] = str(Path(script).resolve().parent)
    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as stop:
        status = stop.code
    finally:
        sys.settrace(None)
        threading.settrace(None)

        def name(c):
            return f"{c.__module__}.{c.__qualname__}"

        def ours(c):
            return c.__module__.startswith("repro")

        loaded = {
            value for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro")
            for value in vars(module).values()
            if isinstance(value, type) and ours(value)
        }
        Path(out).write_text(json.dumps({
            "ran": sorted(ran),
            "set": sorted(bound),
            "built": sorted({name(c) for c in list(built) if ours(c)}),
            # (class, ancestor): a base is in use when a subclass ran
            "bases": sorted({
                (name(c), name(base)) for c in loaded
                for base in c.__mro__[1:] if ours(base)
            }),
        }))
    raise SystemExit(status)


def _traced(command, env, out: Path, optimize: bool):
    argv = [sys.executable, *(["-O"] if optimize else []), "-c", CHILD,
            str(Path(__file__).resolve()), str(out), *command]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    trace = json.loads(out.read_text()) if out.exists() else None
    return proc, trace


def collect(scratch: Path) -> tuple[dict, list[dict]]:
    """Run everything traced; the union of the traces and one note per run."""
    base = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    base["PYTHONPATH"] = str(SRC.parent)
    union = {"ran": set(), "set": set(), "built": set(), "bases": set()}
    notes = []
    plan = runs(scratch)
    for number, (label, command, extra) in enumerate(plan, 1):
        env = {**base, **extra}
        traces, note = [], {"run": label, "command": command, "env": extra}
        for optimize in (False, True):
            out = scratch / f"trace-{number}-{int(optimize)}.json"
            proc, trace = _traced(command, env, out, optimize)
            traces.append(trace)
            if proc.returncode == 0 or "AssertionError" not in proc.stderr:
                break
            note["assert_tripped"] = proc.stderr.strip().splitlines()[-1]
        note["exit"] = proc.returncode
        note["rerun_under_O"] = optimize
        if proc.returncode != 0:
            note["stderr_tail"] = proc.stderr.strip().splitlines()[-15:]
        for trace in filter(None, traces):
            for field, items in trace.items():
                union[field] |= {tuple(i) if isinstance(i, list) else i for i in items}
        notes.append(note)
        verdict = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
        print(f"[{number:>2}/{len(plan)}] {label}: {verdict}"
              + ("  (rerun under -O)" if optimize else ""), flush=True)
    return union, notes


def covers(pattern: str, item: str) -> bool:
    """``item`` is what ``pattern`` matches, or a member or option of it."""
    return any(
        fnmatch.fnmatchcase(item, p) for p in (pattern, f"{pattern}.*", f"{pattern}(*")
    )


def judge(union: dict, exempt: dict) -> dict:
    """Unexecuted defs, unset options and stale exemptions."""
    ran, bound, built = union["ran"], union["set"], union["built"]
    declared = declarations()

    def own(entry):
        name, key, members, *_ = entry
        if members is None:
            return key in ran
        return name in built or any(own(m) for m in members)

    classes = {e[0] for e in _flatten(declared) if e[2] is not None and own(e)}
    inherited = {base for sub, base in union["bases"] if sub in classes}

    def did_run(entry):
        return own(entry) or (entry[2] is not None and entry[0] in inherited)

    unexecuted, unset = [], []

    def walk(declared):
        for entry in declared:
            name, key, members, options, lines, _ = entry
            where = f"{key[0]}:{key[1]}"
            if not did_run(entry):
                unexecuted.append((where, name, lines))
            elif members is not None:
                walk(members)
            else:
                unset.extend(
                    (where, f"{name}({param}=)") for param in options
                    if (*key, param) not in bound
                )

    walk(declared)
    patterns = {
        pattern: category
        for category, body in exempt.items()
        for pattern in body["entries"]
    }

    def category(item):
        return next((c for p, c in patterns.items() if covers(p, item)), None)

    flagged = [(w, n) for w, n, _ in unexecuted] + unset
    used = {p for p in patterns for _, item in flagged if covers(p, item)}
    return {
        "unexecuted": [
            {"where": w, "name": n, "lines": lines, "exempt": category(n)}
            for w, n, lines in unexecuted
        ],
        "unset_options": [
            {"where": w, "name": n, "exempt": category(n)} for w, n in unset
        ],
        "stale_exemptions": sorted(set(patterns) - used),
    }


def summary(report: dict, exempt: dict) -> str:
    """Per exemption category: its entries, the unexecuted defs it covers
    with their ``src/`` lines, and the unset options it covers."""
    entries = {c: len(body["entries"]) for c, body in exempt.items()}
    entries |= {None: 0, "total": sum(entries.values())}
    table = [f"\n{'exemption category':<50}{'entries':>8}{'defs':>6}"
             f"{'lines':>7}{'options':>8}"]
    for category, count in entries.items():
        defs = [r for r in report["unexecuted"] if category in ("total", r["exempt"])]
        unset = [r for r in report["unset_options"]
                 if category in ("total", r["exempt"])]
        table.append(
            f"{category or '(not exempt)':<50}{count:>8}{len(defs):>6}"
            f"{sum(r['lines'] for r in defs):>7}{len(unset):>8}"
        )
    return "\n".join(table)


def main() -> int:
    exempt = json.loads(EXEMPT.read_text())
    missing = [c for c, body in exempt.items() if not body.get("reason")]
    blank = [pattern for body in exempt.values()
             for pattern, why in body["entries"].items() if not why.strip()]
    with tempfile.TemporaryDirectory(prefix="traffic-") as scratch:
        union, notes = collect(Path(scratch))
    verdict = judge(union, exempt)
    failed = [n["run"] for n in notes if n["exit"] != 0]
    report = {
        "runs": notes,
        "needed_O": [n["run"] for n in notes if n["rerun_under_O"]],
        "failed_runs": failed,
        "categories_without_reason": missing,
        "entries_without_reason": blank,
        **verdict,
        "recorded": {field: sorted(items) for field, items in union.items()},
    }
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    problems = 0
    for section in ("unexecuted", "unset_options"):
        rows = report[section]
        loose = [r for r in rows if r["exempt"] is None]
        problems += len(loose)
        print(f"\n{section}: {len(rows)} ({len(rows) - len(loose)} exempt)")
        for row in loose:
            print(f"  NOT EXEMPT  {row['where']}  {row['name']}")
    for pattern in report["stale_exemptions"]:
        print(f"  STALE EXEMPTION  {pattern} covers nothing that was left unrun")
    for category in missing:
        print(f"  CATEGORY WITHOUT A REASON  {category}")
    for pattern in blank:
        print(f"  EXEMPTION WITHOUT A REASON  {pattern}")
    for label in report["needed_O"]:
        print(f"  rerun under -O (an assert tripped under the tracer): {label}")
    for label in failed:
        print(f"  RUN FAILED  {label}")
    problems += len(report["stale_exemptions"]) + len(missing) + len(blank)
    problems += len(failed)
    print(summary(report, exempt))
    print(f"\nwrote {REPORT.relative_to(ROOT)}; "
          + ("clean" if problems == 0 else f"{problems} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
