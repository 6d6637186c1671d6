"""The traffic audit's tracer (``benchmarks/traffic.py``), on a tiny run.

A class whose only code that runs is a method it inherits still counts
as run: the tracer reads the receiver of a method of a class ``src/``
subclasses.
"""

import os
import pathlib
import sys

import repro

BENCHMARKS = pathlib.Path(repro.__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import traffic  # noqa: E402

sys.path.remove(str(BENCHMARKS))

SCRIPT = """\
from repro.storage import Table, agg, group_by

table = Table.from_columns({"g": [0, 0, 1], "v": [1.0, 2.0, 3.0]})
group_by(table, ["g"], [agg("max", "v")])
"""


def test_an_inherited_method_names_the_subclass_that_ran_it(tmp_path):
    script = tmp_path / "max_only.py"
    script.write_text(SCRIPT)
    env = {**os.environ, "PYTHONPATH": str(traffic.SRC.parent)}
    proc, trace = traffic._traced(
        [str(script)], env, tmp_path / "trace.json", optimize=False
    )
    assert proc.returncode == 0, proc.stderr
    built = set(trace["built"])
    # Max defines no method of its own: _ExtremumAggregate.apply ran it
    assert "repro.storage.aggregates.Max" in built
    assert "repro.storage.aggregates.Min" not in built
