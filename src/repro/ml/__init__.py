"""ML algorithm library: the workloads the data-management layers serve.

GLMs (linear/logistic) with batch, stochastic, and closed-form solvers;
k-means; Naive Bayes; plus losses, optimizers, preprocessing, and
metrics. The algorithms are written in the vectorized style that
declarative ML compilers target, so the same models run directly on
numpy, on the compiled DSL, over normalized (factorized) data, and
inside the relational engine.
"""

from .base import Classifier, Estimator, Regressor, as_pm_one, check_X, check_X_y
from .kmeans import KMeans
from .linreg import LinearRegression, Moments, Ridge
from .logreg import LogisticRegression
from .losses import LogisticLoss, Loss, SquaredLoss, sigmoid
from .metrics import accuracy_score, r2_score
from .naive_bayes import CategoricalNB, GaussianNB
from .optim import OptimResult, gradient_descent, sgd
from .preprocessing import (
    FeatureHasher,
    KBinsDiscretizer,
    MinMaxScaler,
    OneHotEncoder,
    StandardScaler,
    add_intercept,
    train_test_split,
)

__all__ = [
    "CategoricalNB",
    "Classifier",
    "Estimator",
    "FeatureHasher",
    "GaussianNB",
    "KBinsDiscretizer",
    "KMeans",
    "LinearRegression",
    "LogisticLoss",
    "LogisticRegression",
    "Loss",
    "MinMaxScaler",
    "Moments",
    "OneHotEncoder",
    "OptimResult",
    "Regressor",
    "Ridge",
    "SquaredLoss",
    "StandardScaler",
    "accuracy_score",
    "add_intercept",
    "as_pm_one",
    "check_X",
    "check_X_y",
    "gradient_descent",
    "r2_score",
    "sgd",
    "sigmoid",
    "train_test_split",
]
