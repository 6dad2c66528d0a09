"""The CLI's exit-code contract under malformed scenario documents.

Each mutant replaces one node of a valid document (a dict value or a list
item, at any depth) with an awkward JSON value, or deletes it, and runs the
document through ``cli.main``.  Whatever the mutant, the CLI must exit with
a documented code: 0 or 1 with a report that parses, 2 or 3 with exactly one
error line and no traceback.
"""

import json
import random

import numpy as np
import pytest

from nondisturbing.channels import random_nd_channel
from nondisturbing.cli import main
from nondisturbing.linalg import random_density, random_kraus_channel, random_povm
from nondisturbing.objects import Context, Observable, sharp_observable
from nondisturbing.serialization import matrix_to_json, nd_channel_to_json, observable_to_json

ALL_REQUESTS = ["instrument", "observable", "post_probe", "remeasure"]

# Replacement values.  No integer here may build a valid model of a huge
# size: 10**400 is refused at once, where n = 10**5 would allocate gigabytes.
DELETE = object()
REPLACEMENTS = [
    None, True, False, 0, -1, 10**400, 1e308, float("nan"), float("inf"), "", [], {},
    [[1.0, 0.0], [1.0]], DELETE,
]

MUTANTS_PER_DOCUMENT = 75
ERROR_PREFIXES = ("error:", "parse error:", "usage error:", "validation error:")


def _nd_document():
    rng = np.random.default_rng(5)
    context = Context.random(2, rng)
    return {
        "dimH": 2,
        "dimK": 2,
        "eta": matrix_to_json(random_density(2, rng)),
        "probe": observable_to_json(Observable.from_matrices(random_povm(2, 2, rng))),
        "channel": {"kind": "nd", **nd_channel_to_json(random_nd_channel(context, 2, 1, rng))},
        "inputs": [matrix_to_json(random_density(2, rng))],
        "requests": ALL_REQUESTS,
        "tol": 1e-9,
        "seed": 1,
    }


def _kraus_document():
    (kraus,) = random_kraus_channel(4, 1, 6)
    return {
        "dimH": 2,
        "dimK": 2,
        "eta": matrix_to_json(np.eye(2) / 2),
        "probe": observable_to_json(sharp_observable(2)),
        "channel": {"kind": "kraus", "kraus": [matrix_to_json(kraus)]},
        "requests": ["instrument"],
    }


DOCUMENTS = {
    "swap-example": lambda: {
        "example": {"name": "swap", "n": 2, "probe": observable_to_json(sharp_observable(2))},
        "requests": ALL_REQUESTS,
    },
    "fourier-example": lambda: {
        "example": {"name": "fourier", "n": 2, "m": 3, "probe": "sharp"},
        "tol": 1e-9,
    },
    "nd": _nd_document,
    "kraus": _kraus_document,
}


def _node_paths(value, path=()):
    """The path of every dict value and list item below ``value``, in document order."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _mutated(document, path, replacement):
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return json.dumps(copy)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_mutated_document_exits_with_a_documented_code(tmp_path, capsys, name):
    document = DOCUMENTS[name]()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    capsys.readouterr()

    mutants = [(p, r) for p in _node_paths(document) for r in range(len(REPLACEMENTS))]
    sample = random.Random(f"cli-contract-{name}").sample(mutants, MUTANTS_PER_DOCUMENT)
    broken = []
    for node, index in sample:
        path.write_text(_mutated(document, node, REPLACEMENTS[index]), encoding="utf-8")
        where = f"{'.'.join(map(str, node))} <- {REPLACEMENTS[index]!r:.20}"
        try:
            code = main(["run", str(path)])
        except Exception as exc:  # any escape breaks the contract
            capsys.readouterr()
            broken.append(f"{where}: raised {type(exc).__name__}: {exc}")
            continue
        out, err = capsys.readouterr()
        if code in (0, 1):
            try:
                json.loads(out)
            except ValueError:
                broken.append(f"{where}: exit {code} with a report that does not parse")
        elif code in (2, 3):
            lines = err.splitlines()
            if len(lines) != 1 or not lines[0].startswith(ERROR_PREFIXES) or "Traceback" in err:
                broken.append(f"{where}: exit {code} with stderr {err!r}")
        else:
            broken.append(f"{where}: undocumented exit code {code}")
    assert not broken, "\n".join(broken)
