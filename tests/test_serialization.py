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
    obs = Observable(["a", "b", "c"], random_povm(3, 3, 2))
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
    ragged = nd_channel_to_json(random_nd_channel(Context.standard(2), 2, 2, 6))
    ragged["table"][0] = ragged["table"][0][:1]
    with pytest.raises(SchemaError, match=r"channel\.table\[1\]: must hold 1 Kraus operators"):
        nd_channel_from_json(ragged)


# The per-entry codec that matrix_to_json and matrix_from_json replace with
# whole-array conversions; they must behave exactly like it.
def _per_entry_to_json(m):
    arr = np.asarray(m, dtype=complex)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }


def _per_entry_from_json(obj, path="matrix"):
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    values = []
    for idx, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise SchemaError(f"{path}.data[{idx}]", "entries must be [re, im] numbers")
        values.append(complex(pair[0], pair[1]))
    matrix = np.array(values, dtype=complex).reshape(rows, cols)
    if not np.all(np.isfinite(matrix)):
        raise SchemaError(path, "contains non-finite entries")
    return matrix


def _outcome(decode, doc):
    try:
        matrix = decode(doc, "m")
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return matrix.shape, matrix.view(float).tobytes()  # bytes keep the sign of a zero


@pytest.mark.parametrize("bad", [
    True, False, "1.0", None, [0.0], {"re": 1.0},
], ids=["true", "false", "string", "null", "list", "object"])
@pytest.mark.parametrize("where", ["entry", "component"])
def test_matrix_from_json_rejects_each_malformed_entry_as_the_per_entry_loop(bad, where):
    data = [[1.0, 0.0], [0, -2], [0.5, 0.25], [3.0, 4.0]]
    data[2] = bad if where == "entry" else [0.5, bad]
    doc = {"rows": 2, "cols": 2, "data": data}
    expected = _outcome(_per_entry_from_json, doc)
    assert expected == (SchemaError, "m.data[2]: entries must be [re, im] numbers")
    assert _outcome(matrix_from_json, doc) == expected


@pytest.mark.parametrize("data", [
    [[1.0, 0.0], [0.0, 1.0, 2.0]],
    [[1.0, 0.0], (0.0, 1.0)],
    [[1.0, 0.0], 2.0],
    [[1.0, 0.0], [True, 0.0]],
    json.loads("[[1.0, 0.0], [NaN, 0.0]]"),
    json.loads("[[Infinity, 0.0], [0.0, 1.0]]"),
    [[1.0, 0.0], [2**70 + 1, -(2**53 + 1)]],
    [[np.float64(1.0), 0.0], [0.0, 1.0]],
    [[-0.0, -0.0], [0.0, -0.0]],
], ids=["three-element-pair", "tuple-entry", "number-entry", "bool", "nan", "infinity",
        "large-ints", "float-subclass", "signed-zeros"])
def test_matrix_from_json_matches_the_per_entry_loop(data):
    doc = {"rows": 1, "cols": 2, "data": data}
    assert _outcome(matrix_from_json, doc) == _outcome(_per_entry_from_json, doc)


def test_matrix_from_json_rejects_an_integer_too_large_for_a_double():
    # The per-entry loop above raises OverflowError here; a document must
    # only ever fail as a SchemaError.
    doc = {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [10**400, 0]]}
    with pytest.raises(SchemaError, match="m: contains an integer too large for a double"):
        matrix_from_json(doc, "m")


def test_matrix_to_json_matches_the_per_entry_encoding():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0], m[1, 2] = complex(-0.0, -0.0), complex(0.0, -0.0)
    for value in (m, m.T, m[:, ::2], m.real, m.astype(np.complex64), np.asfortranarray(m)):
        doc = matrix_to_json(value)
        assert json.dumps(doc) == json.dumps(_per_entry_to_json(value))
        assert all(type(v) is float for pair in doc["data"] for v in pair)


def test_signed_zeros_round_trip():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    doc = json.loads(json.dumps(matrix_to_json(m)))
    assert doc["data"][:3] == [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
    back = matrix_from_json(doc)
    assert back.view(float).tobytes() == m.view(float).tobytes()
