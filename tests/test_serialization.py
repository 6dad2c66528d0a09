import json

import numpy as np
import pytest

from nondisturbing.linalg import max_abs, random_povm
from nondisturbing.objects import (
    Context,
    Observable,
)
from nondisturbing.channels import random_nd_channel
from nondisturbing.serialization import (
    SchemaError,
    matrix_from_json,
    matrix_to_json,
    nd_channel_from_json,
    nd_channel_to_json,
    observable_from_json,
    observable_to_json,
)


def test_matrix_round_trip_preserves_entries():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    doc = matrix_to_json(m)
    assert doc["rows"] == 3 and doc["cols"] == 2
    back = matrix_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back, m)


def test_matrix_rejects_malformed_documents():
    with pytest.raises(SchemaError, match="missing key"):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(SchemaError, match="positive integers"):
        matrix_from_json({"rows": 0, "cols": 2, "data": []})
    with pytest.raises(SchemaError, match="must hold 4 entries"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(SchemaError, match=r"data\[1\]"):
        matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], "no"]})
    with pytest.raises(SchemaError, match="non-finite"):
        matrix_from_json(
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        )


def test_observable_round_trip():
    obs = Observable.from_matrices(random_povm(3, 3, 2), ["a", "b", "c"])
    doc = json.loads(json.dumps(observable_to_json(obs)))
    back = observable_from_json(doc)
    assert back.labels == obs.labels
    assert max_abs(back.effects - obs.effects) == 0.0


def test_observable_schema_and_invariant_errors_are_distinct():
    with pytest.raises(SchemaError, match="outcomes"):
        observable_from_json({"not": "an observable"})
    half = matrix_to_json(np.eye(2) / 2)
    with pytest.raises(ValueError, match="sum to the identity") as err:
        observable_from_json({"outcomes": [{"label": "0", "effect": half}]})
    assert not isinstance(err.value, SchemaError)


def test_nd_channel_round_trip():
    nd = random_nd_channel(Context.random(2, 4), 3, 2, 5)
    doc = json.loads(json.dumps(nd_channel_to_json(nd)))
    back = nd_channel_from_json(doc)
    assert max_abs(back.context.basis - nd.context.basis) == 0.0
    for row, other in zip(nd.table, back.table):
        for a, b in zip(row, other):
            assert np.array_equal(a, b)


def test_nd_channel_schema_errors_carry_paths():
    with pytest.raises(SchemaError, match="channel"):
        nd_channel_from_json({"table": []})
    doc = nd_channel_to_json(random_nd_channel(Context.standard(2), 2, 1, 6))
    doc["table"][1] = []
    with pytest.raises(SchemaError, match=r"table\[1\]"):
        nd_channel_from_json(doc)
