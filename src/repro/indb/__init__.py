"""In-RDBMS machine learning (MADlib / Bismarck).

Training runs *inside* the relational substrate via user-defined
aggregates: IGD/BGD for GLMs (:mod:`.gradient`), one-scan normal
equations and high-level estimators (:mod:`.glm`), and Naive Bayes as
pure GROUP BY aggregation (:mod:`.naive_bayes_sql`).
"""

from .glm import InDBLinearRegression, InDBLogisticRegression
from .gradient import (
    SHUFFLE_POLICIES,
    IGDResult,
    IGDState,
    IGDTransition,
    train_bgd,
    train_igd,
)
from .kmeans_uda import (
    InDBKMeansResult,
    KMeansAssignUDA,
    train_kmeans_indb,
)
from .naive_bayes_sql import SQLNaiveBayes
from .uda import UDA, GramUDA, run_uda

__all__ = [
    "SHUFFLE_POLICIES",
    "UDA",
    "GramUDA",
    "IGDResult",
    "IGDState",
    "IGDTransition",
    "InDBKMeansResult",
    "InDBLinearRegression",
    "InDBLogisticRegression",
    "KMeansAssignUDA",
    "SQLNaiveBayes",
    "run_uda",
    "train_bgd",
    "train_igd",
    "train_kmeans_indb",
]
