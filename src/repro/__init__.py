"""repro: data management in machine learning.

Reproduction of the techniques surveyed by the SIGMOD 2017 tutorial
"Data Management in Machine Learning: Challenges, Techniques, and
Systems" (Kumar, Boehm, Yang). See DESIGN.md for the system inventory
and EXPERIMENTS.md for the experiment index.

Subpackages:

* ``repro.storage``      — column-store relational engine substrate
* ``repro.indb``         — in-RDBMS ML (MADlib / Bismarck UDA architecture)
* ``repro.lang``         — declarative linear-algebra DSL
* ``repro.compiler``     — rewrites, CSE, mmchain, fusion, cost model
* ``repro.runtime``      — plan executor, blocked matrices, buffer pool
* ``repro.compression``  — compressed linear algebra (OLE/RLE/DDC)
* ``repro.factorized``   — learning over normalized data (Orion/Morpheus/Hamlet)
* ``repro.ml``           — ML algorithm library (GLMs, k-means, Naive Bayes)
* ``repro.selection``    — model-selection management (grid, halving, warm start)
* ``repro.feateng``      — feature-engineering management (Columbus)
* ``repro.lifecycle``    — model registry and experiment tracking
* ``repro.data``         — synthetic workload generators
* ``repro.sparse``       — CSR sparse linear-algebra substrate
* ``repro.algorithms``   — algorithm scripts authored in the DSL
* ``repro.distributed``  — simulated data-parallel / parameter-server training
* ``repro.materialize``  — lineage-aware materialization store
* ``repro.incremental``  — change streams + F-IVM aggregate maintenance
* ``repro.obs``          — unified tracing + metrics (spans, registry, reports)
* ``repro.resilience``   — fault injection, retry/recovery, checkpoint/restore
* ``repro.serving``      — online inference (micro-batching, cache, canary)
"""

__version__ = "1.0.0"

from . import (
    algorithms,
    compiler,
    compression,
    data,
    distributed,
    errors,
    factorized,
    feateng,
    incremental,
    indb,
    lang,
    lifecycle,
    materialize,
    ml,
    obs,
    resilience,
    runtime,
    selection,
    serving,
    sparse,
    storage,
)

__all__ = [
    "__version__",
    "algorithms",
    "compiler",
    "compression",
    "data",
    "distributed",
    "errors",
    "factorized",
    "feateng",
    "incremental",
    "indb",
    "lang",
    "lifecycle",
    "materialize",
    "ml",
    "obs",
    "resilience",
    "runtime",
    "selection",
    "serving",
    "sparse",
    "storage",
]
