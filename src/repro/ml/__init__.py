"""ML algorithm library: the workloads the data-management layers serve.

GLMs (linear/logistic) with closed-form and batch-gradient solvers;
k-means; Naive Bayes; plus losses, optimizers, preprocessing, and
metrics. The algorithms are written in the vectorized style that
declarative ML compilers target, so the same models run directly on
numpy, on the compiled DSL, over normalized (factorized) data, and
inside the relational engine.
"""

from .base import Classifier, Estimator, Regressor, as_pm_one, check_X, check_X_y
from .kmeans import KMeans
from .linreg import LinearRegression, Moments
from .logreg import LogisticRegression
from .losses import LogisticLoss, Loss, SquaredLoss, sigmoid
from .metrics import accuracy_score, r2_score
from .naive_bayes import CategoricalNB
from .optim import OptimResult, gradient_descent
from .preprocessing import StandardScaler, train_test_split

__all__ = [
    "CategoricalNB",
    "Classifier",
    "Estimator",
    "KMeans",
    "LinearRegression",
    "LogisticLoss",
    "LogisticRegression",
    "Loss",
    "Moments",
    "OptimResult",
    "Regressor",
    "SquaredLoss",
    "StandardScaler",
    "accuracy_score",
    "as_pm_one",
    "check_X",
    "check_X_y",
    "gradient_descent",
    "r2_score",
    "sigmoid",
    "train_test_split",
]
