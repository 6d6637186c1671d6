"""Safe, pickle-free model serialization.

Models are stored as JSON: the estimator class (validated against a
registry of known classes — loading never imports or executes arbitrary
code), its hyperparameters, and its fitted state (trailing-underscore
attributes). Numpy arrays are embedded as base64 with dtype/shape so the
round trip is bit-exact.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from ..errors import LifecycleError

FORMAT_VERSION = 1


def _known_classes() -> dict[str, type]:
    """Estimator classes eligible for (de)serialization."""
    from .. import factorized, indb, ml, runtime

    classes = [
        ml.KMeans,
        ml.LinearRegression,
        ml.LogisticRegression,
        ml.StandardScaler,
        # the linear models trained where the data lives
        factorized.FactorizedLinearRegression,
        factorized.FactorizedLogisticRegression,
        indb.InDBLinearRegression,
        indb.InDBLogisticRegression,
        runtime.OutOfCoreLinearRegression,
    ]
    return {cls.__name__: cls for cls in classes}


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return {
                "__kind__": "object_array",
                "values": [_encode_value(v) for v in value.tolist()],
            }
        return {
            "__kind__": "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return {
            "__kind__": "list" if isinstance(value, list) else "tuple",
            "values": [_encode_value(v) for v in value],
        }
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise LifecycleError(
        f"cannot serialize value of type {type(value).__name__}"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__kind__" in value:
        kind = value["__kind__"]
        if kind == "ndarray":
            raw = base64.b64decode(value["data"])
            return np.frombuffer(raw, dtype=np.dtype(value["dtype"])).reshape(
                value["shape"]
            ).copy()
        if kind == "object_array":
            return np.array(
                [_decode_value(v) for v in value["values"]], dtype=object
            )
        if kind in ("list", "tuple"):
            items = [_decode_value(v) for v in value["values"]]
            return items if kind == "list" else tuple(items)
        raise LifecycleError(f"unknown encoded kind {kind!r}")
    return value


# ----------------------------------------------------------------------
# Model (de)serialization
# ----------------------------------------------------------------------
def dumps_model(model: Any) -> str:
    """Serialize a fitted (or unfitted) estimator to a JSON string."""
    classes = _known_classes()
    name = type(model).__name__
    if name not in classes or type(model) is not classes[name]:
        raise LifecycleError(
            f"{name} is not a serializable estimator; known: {sorted(classes)}"
        )
    state = {
        attr: _encode_value(value)
        for attr, value in vars(model).items()
        if attr.endswith("_") and not attr.startswith("_")
        # optimizer traces are diagnostics, not model state
        and attr not in ("optim_result_", "result_")
    }
    payload = {
        "format_version": FORMAT_VERSION,
        "class": name,
        "params": {k: _encode_value(v) for k, v in model.get_params().items()},
        "state": state,
    }
    return json.dumps(payload)


def loads_model(text: str) -> Any:
    """Reconstruct an estimator from :func:`dumps_model` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LifecycleError(f"malformed model JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise LifecycleError(
            f"model JSON is a {type(payload).__name__}, not an object"
        )
    if payload.get("format_version") != FORMAT_VERSION:
        raise LifecycleError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    classes = _known_classes()
    name = payload.get("class")
    if name not in classes:
        raise LifecycleError(f"unknown model class {name!r}")
    params = {k: _decode_value(v) for k, v in payload["params"].items()}
    retired = sorted(set(params) - set(classes[name]._param_names()))
    if retired:
        raise LifecycleError(
            f"{name} no longer has the parameter(s) {retired} this entry "
            "was saved with"
        )
    model = classes[name](**params)
    for attr, value in payload["state"].items():
        setattr(model, attr, _decode_value(value))
    return model
