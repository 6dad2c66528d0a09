"""JSON encodings for matrices, observables and nondisturbing channels.

Complex matrices travel as ``{"rows": n, "cols": m, "data": [[re, im], ...]}``
with the entries row-major and every complex number a two-element array
of IEEE-754 doubles.  Structural problems raise :class:`SchemaError`
(malformed document); semantic problems surface as the value types'
``ValueError`` (violated invariant).
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from .objects import Context, Observable
from .channels import NDChannel

__all__ = [
    "SchemaError",
    "matrix_to_json",
    "matrix_from_json",
    "observable_to_json",
    "observable_from_json",
    "nd_channel_to_json",
    "nd_channel_from_json",
]


class SchemaError(ValueError):
    """A JSON document does not have the expected shape."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _is_int(value) -> bool:
    """True for a JSON integer; ``bool`` subclasses ``int`` but is refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_to_json(m) -> dict[str, Any]:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": np.ascontiguousarray(arr).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj, path: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not _is_int(rows) or not _is_int(cols) or rows < 1 or cols < 1:
        raise SchemaError(path, "rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            path, f"data must hold {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    # The set checks pass every list of exact JSON types at C speed; only a
    # list they reject, such as one holding a bool or a subclass of float,
    # is walked entry by entry to name the first bad one.
    if not (
        set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        for idx, pair in enumerate(data):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise SchemaError(f"{path}.data[{idx}]", "entries must be [re, im] numbers")
    try:
        matrix = np.array(data, dtype=float).view(complex).reshape(rows, cols)
    except OverflowError:
        raise SchemaError(path, "contains an integer too large for a double") from None
    if not np.all(np.isfinite(matrix)):
        raise SchemaError(path, "contains non-finite entries")
    matrix.setflags(write=False)
    return matrix


def observable_to_json(obs: Observable) -> dict[str, Any]:
    return {
        "outcomes": [
            {"label": label, "effect": matrix_to_json(effect)}
            for label, effect in zip(obs.labels, obs.effects)
        ]
    }


def observable_from_json(obj, path: str = "observable") -> Observable:
    if not isinstance(obj, dict) or "outcomes" not in obj:
        raise SchemaError(path, "expected an object with an 'outcomes' list")
    outcomes = obj["outcomes"]
    if not isinstance(outcomes, list) or not outcomes:
        raise SchemaError(f"{path}.outcomes", "must be a non-empty list")
    labels, effects = [], []
    for idx, entry in enumerate(outcomes):
        where = f"{path}.outcomes[{idx}]"
        if not isinstance(entry, dict) or "label" not in entry or "effect" not in entry:
            raise SchemaError(where, "expected an object with 'label' and 'effect'")
        if not isinstance(entry["label"], str):
            raise SchemaError(where, "label must be a string")
        labels.append(entry["label"])
        effects.append(matrix_from_json(entry["effect"], f"{where}.effect"))
    return Observable(tuple(labels), effects)


def nd_channel_to_json(nd: NDChannel) -> dict[str, Any]:
    return {
        "context": matrix_to_json(nd.context.basis),
        "table": [[matrix_to_json(b) for b in row] for row in nd.table],
    }


def nd_channel_from_json(obj, path: str = "channel") -> NDChannel:
    if not isinstance(obj, dict) or "context" not in obj or "table" not in obj:
        raise SchemaError(path, "expected an object with 'context' and 'table'")
    basis = matrix_from_json(obj["context"], f"{path}.context")
    table_obj = obj["table"]
    if not isinstance(table_obj, list) or not table_obj:
        raise SchemaError(f"{path}.table", "must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(table_obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}.table[{i}]", "must be a non-empty list")
        if len(row) != len(table_obj[0]):
            raise SchemaError(
                f"{path}.table[{i}]",
                f"must hold {len(table_obj[0])} Kraus operators, as row 0 does",
            )
        rows.append(
            [matrix_from_json(b, f"{path}.table[{i}][{k}]") for k, b in enumerate(row)]
        )
    return NDChannel(Context(basis), rows)
