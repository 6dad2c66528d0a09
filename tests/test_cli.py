import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nondisturbing.cli
import nondisturbing.models
from nondisturbing.cli import _emit_report, main
from nondisturbing.linalg import max_abs, random_kraus_channel
from nondisturbing.channels import random_nd_channel
from nondisturbing.objects import Context, sharp_observable
from nondisturbing.serialization import (
    matrix_from_json,
    matrix_to_json,
    nd_channel_to_json,
    observable_to_json,
)
from nondisturbing.scenario import run_scenario, scenario_from_json
from nondisturbing.serialization import SchemaError


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def _swap_scenario(n=2, requests=None):
    doc = {"example": {"name": "swap", "n": n, "probe": "sharp"}}
    if requests is not None:
        doc["requests"] = requests
    return doc


def _kraus_scenario(requests):
    kraus = random_kraus_channel(4, 2, 3)
    return {
        "dimH": 2,
        "dimK": 2,
        "eta": matrix_to_json(np.eye(2) / 2),
        "probe": observable_to_json(sharp_observable(2)),
        "channel": {"kind": "kraus", "kraus": [matrix_to_json(k) for k in kraus]},
        "requests": requests,
    }


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def test_scenario_requires_exactly_one_channel_source():
    with pytest.raises(SchemaError, match="exactly one"):
        scenario_from_json({})
    both = _kraus_scenario(["instrument"])
    both["example"] = {"name": "swap", "n": 2}
    with pytest.raises(SchemaError, match="exactly one"):
        scenario_from_json(both)


def test_scenario_rejects_unknown_requests():
    doc = _swap_scenario(requests=["spectrum"])
    with pytest.raises(SchemaError, match="unknown requests"):
        scenario_from_json(doc)


def test_scenario_validates_example_dimension_consistency():
    doc = _swap_scenario()
    doc["dimH"] = 3
    with pytest.raises(ValueError, match="conflicts"):
        scenario_from_json(doc)


def test_scenario_default_inputs_and_requests():
    scn = scenario_from_json(_swap_scenario())
    assert scn.requests == ("instrument", "observable")
    assert len(scn.inputs) == 2
    assert abs(np.trace(scn.inputs[0].matrix).real - 1.0) < 1e-12


def test_scenario_inputs_must_match_base_dimension():
    doc = _swap_scenario()
    doc["inputs"] = [matrix_to_json(np.eye(3) / 3)]
    with pytest.raises(ValueError, match="dimension"):
        scenario_from_json(doc)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_swap_report_contains_atomic_observable_and_passes():
    scn = scenario_from_json(_swap_scenario(requests=["instrument", "observable"]))
    report = run_scenario(scn)
    assert report["pass"] is True
    assert all(value <= 1e-10 for value in report["residuals"].values())
    effects = {
        entry["outcome"]: matrix_from_json(entry["matrix"])
        for entry in report["results"]["observable"]
    }
    assert max_abs(effects["0"] - np.diag([1.0, 0.0])) <= 1e-12
    assert max_abs(effects["1"] - np.diag([0.0, 1.0])) <= 1e-12


def test_report_round_trips_through_json():
    scn = scenario_from_json(
        _swap_scenario(requests=["instrument", "observable", "post_probe", "remeasure"])
    )
    report = run_scenario(scn)
    assert json.loads(json.dumps(report)) == report


def test_report_residuals_are_non_negative_and_pass_is_consistent():
    scn = scenario_from_json(_swap_scenario(requests=["instrument"]))
    report = run_scenario(scn)
    assert all(v >= 0.0 for v in report["residuals"].values())
    assert report["pass"] == all(report["checks"].values())
    assert set(report["checks"]) == set(report["residuals"])


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_run_exits_zero_on_passing_scenario(tmp_path, capsys):
    path = _write(tmp_path, "swap.json", _swap_scenario())
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True


# Both commands that read a JSON file, as argv prefixes completed by the path.
READERS = {"run": ["run"], "example-probe": ["example", "swap", "--n", "2", "--probe"]}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_exits_two_on_malformed_json(tmp_path, capsys, reader):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(READERS[reader] + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON (line 1, column 2)")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_exits_two_on_missing_file(tmp_path, capsys, reader):
    path = tmp_path / "missing.json"
    assert main(READERS[reader] + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


# Both commands that write a report, as argv prefixes completed by ``-o path``.
WRITERS = {"run": ["run"], "example": ["example", "swap", "--n", "2"]}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_exits_two_on_unwritable_report_path(tmp_path, capsys, monkeypatch, writer, target):
    def unreachable(scenario):
        raise AssertionError("the scenario ran before the report path was checked")

    monkeypatch.setattr(nondisturbing.cli, "run_scenario", unreachable)
    argv = list(WRITERS[writer])
    if writer == "run":
        argv.append(_write(tmp_path, "swap.json", _swap_scenario()))
    path = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
    assert main(argv + ["-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-report"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_run_leaves_the_report_path_as_it_was(
    tmp_path, capsys, monkeypatch, writer, existing
):
    def failing(scenario):
        raise ValueError("planted failure")

    monkeypatch.setattr(nondisturbing.cli, "run_scenario", failing)
    argv = list(WRITERS[writer])
    if writer == "run":
        argv.append(_write(tmp_path, "swap.json", _swap_scenario()))
    path = tmp_path / "report.json"
    before = b'{"old": "report"}\n'
    if existing:
        path.write_bytes(before)
    assert main(argv + ["-o", str(path)]) == 3
    assert capsys.readouterr().err == "validation error: planted failure\n"
    assert path.read_bytes() == before if existing else not path.exists()


def test_report_path_is_checked_without_truncation(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100000)
    assert main(["example", "swap", "--n", "2", "-o", str(path)]) == 0
    assert main(["example", "swap", "--n", "2"]) == 0
    assert path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_run_exits_two_on_schema_violation(tmp_path, capsys):
    doc = _swap_scenario()
    doc["requests"] = "instrument"
    path = _write(tmp_path, "bad_requests.json", doc)
    assert main(["run", path]) == 2
    assert "requests" in capsys.readouterr().err


def _one_dim_probe_scenario(field):
    effect = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]], field: True}
    probe = {"outcomes": [{"label": "0", "effect": effect}]}
    return {"example": {"name": "swap", "n": 1, "probe": probe}}


# A JSON boolean in an integer field, with the parse error it must give.
# ``bool`` subclasses ``int`` in Python, so a plain isinstance check lets it in.
BOOLEAN_FIELDS = {
    "rows": (_one_dim_probe_scenario("rows"), "rows and cols must be positive integers"),
    "cols": (_one_dim_probe_scenario("cols"), "rows and cols must be positive integers"),
    "dimH": ({**_kraus_scenario(["instrument"]), "dimH": True}, "dimH: must be an integer"),
    "dimK": ({**_kraus_scenario(["instrument"]), "dimK": True}, "dimK: must be an integer"),
    "seed": ({**_swap_scenario(), "seed": True}, "seed: must be an integer"),
    "n": ({"example": {"name": "swap", "n": True}}, "example.n: "),
    "m": ({"example": {"name": "fourier", "n": 1, "m": True}}, "example.m: "),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
def test_run_exits_two_on_boolean_in_integer_field(tmp_path, capsys, field):
    document, message = BOOLEAN_FIELDS[field]
    path = _write(tmp_path, f"bool_{field}.json", document)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert message in err


def test_run_exits_two_on_an_integer_too_large_for_a_double(tmp_path, capsys):
    effect = {"rows": 1, "cols": 1, "data": [[10**400, 0]]}
    probe = {"outcomes": [{"label": "0", "effect": effect}]}
    path = _write(tmp_path, "overflow.json", {"example": {"name": "swap", "n": 1, "probe": probe}})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "contains an integer too large for a double" in err


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("key", ["dimH", "dimK"])
def test_run_exits_two_on_non_integer_example_dimension(tmp_path, capsys, key, value):
    document = {"example": {"name": "swap", "n": 1}, key: value}
    path = _write(tmp_path, f"example_{key}.json", document)
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {key}: ")


def _nd_scenario():
    channel = random_nd_channel(Context.standard(2), 2, 1, 5)
    return {**_kraus_scenario(["instrument"]), "channel": {"kind": "nd", **nd_channel_to_json(channel)}}


# A document whose dimH or dimK disagrees with its model, with the error it must give.
DIMENSION_MISMATCHES = {
    "example": ({"example": {"name": "swap", "n": 1}, "dimH": 2},
                "dimH = 2 conflicts with the model's dimension 1"),
    "nd": ({**_nd_scenario(), "dimH": 3}, "dimH = 3 conflicts with the model's dimension 2"),
    "kraus": ({**_kraus_scenario(["instrument"]), "dimK": 1},
              "dimK = 1 conflicts with the model's dimension 2"),
}


def test_run_exits_three_on_example_dimension_mismatch(tmp_path, capsys):
    for kind, (document, message) in DIMENSION_MISMATCHES.items():
        path = _write(tmp_path, f"{kind}_mismatch.json", document)
        assert main(["run", path]) == 3
        assert message in capsys.readouterr().err


def test_wrong_closed_form_is_reported_not_raised(monkeypatch, capsys):
    original = nondisturbing.models.pair_overlap_kernel
    monkeypatch.setattr(
        nondisturbing.models, "pair_overlap_kernel", lambda *args: 3 * original(*args)
    )
    assert main(["example", "swap", "--n", "3"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert not checks["instrument.state0.outcome0.closed_vs_direct"]
    assert main(["verify", "--trials", "3"]) == 1
    summary = capsys.readouterr().out
    assert summary.startswith("verification seed=42 trials=3 ")
    failed = {line.split()[0] for line in summary.splitlines() if line.endswith(" FAIL")}
    assert failed == {"fourier-family", "measured-instrument", "unitary-specialization"}
    assert summary.endswith("overall FAIL (10/13 families)\n")


def test_run_exits_three_when_closed_form_needs_nd_channel(tmp_path, capsys):
    path = _write(tmp_path, "kraus.json", _kraus_scenario(["observable"]))
    assert main(["run", path]) == 3
    assert "nondisturbing" in capsys.readouterr().err


def test_run_exits_three_on_invalid_state(tmp_path, capsys):
    doc = _swap_scenario()
    doc["inputs"] = [matrix_to_json(np.eye(2))]  # trace 2
    path = _write(tmp_path, "bad_state.json", doc)
    assert main(["run", path]) == 3


def test_run_exits_three_on_trace_decreasing_kraus_family(tmp_path, capsys):
    doc = _kraus_scenario(["instrument"])
    doc["channel"]["kraus"] = [matrix_to_json(0.5 * np.eye(4))]
    path = _write(tmp_path, "kraus_lossy.json", doc)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "completeness" in err


def test_kraus_channel_instrument_request_passes(tmp_path):
    path = _write(tmp_path, "kraus_ok.json", _kraus_scenario(["instrument"]))
    assert main(["run", path]) == 0


def test_example_subcommand_swap(tmp_path, capsys):
    out = str(tmp_path / "swap_report.json")
    assert main(["example", "swap", "--n", "2", "-o", out]) == 0
    report = json.loads((tmp_path / "swap_report.json").read_text())
    assert set(report["results"]) == {
        "instrument", "observable", "post_probe", "remeasure"
    }


def test_example_subcommand_fourier_requires_m(capsys):
    assert main(["example", "fourier", "--n", "2"]) == 2
    assert "requires --m" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["3", "1"])
def test_example_swap_refuses_m(capsys, m):
    assert main(["example", "swap", "--n", "2", "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --m is fourier-only")


def test_swap_example_document_refuses_m(tmp_path, capsys):
    doc = {"example": {"name": "swap", "n": 2, "m": 3}}
    with pytest.raises(SchemaError) as info:
        scenario_from_json(doc)
    assert info.value.path == "example.m"
    assert main(["run", _write(tmp_path, "swap_m.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("parse error: example.m: ")


def test_example_builds_its_document_and_parses_it_as_run_does(tmp_path, monkeypatch):
    probe = observable_to_json(sharp_observable(2))
    documents = []

    def recording(document):
        documents.append(document)
        return scenario_from_json(document)

    monkeypatch.setattr(nondisturbing.cli, "scenario_from_json", recording)
    out = str(tmp_path / "report.json")
    assert main(["example", "fourier", "--n", "1", "--m", "2", "--tol", "1e-8", "-o", out]) == 0
    assert main(["example", "swap", "--n", "2", "--probe", _write(tmp_path, "probe.json", probe),
                 "-o", out]) == 0
    requests = ["instrument", "observable", "post_probe", "remeasure"]
    assert documents == [
        {"example": {"name": "fourier", "n": 1, "m": 2}, "requests": requests, "tol": 1e-8},
        {"example": {"name": "swap", "n": 2, "probe": probe}, "requests": requests, "tol": 1e-10},
    ]


# A --probe file that holds no object is refused under its own name; a
# malformed object is refused by the document parser, under example.probe.
@pytest.mark.parametrize("probe, message", [
    ([1, 2], "probe: expected an object with an 'outcomes' list"),
    ("sharp", "probe: expected an object with an 'outcomes' list"),
    ({"outcomes": []}, "example.probe.outcomes: must be a non-empty list"),
    ({"label": "0"}, "example.probe: expected an object with an 'outcomes' list"),
], ids=["list", "string", "no-outcomes", "object-without-outcomes"])
def test_example_refuses_a_malformed_probe_file(tmp_path, capsys, probe, message):
    path = _write(tmp_path, "probe.json", probe)
    assert main(["example", "swap", "--n", "2", "--probe", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("spec, field, lowest", [
    ({"name": "swap", "n": 0}, "n", 1),
    ({"name": "swap", "n": -1}, "n", 1),
    ({"name": "fourier", "n": 0, "m": 3}, "n", 1),
    ({"name": "fourier", "n": 3, "m": 1}, "m", 2),
    ({"name": "fourier", "n": 3, "m": -2}, "m", 2),
], ids=["swap-n-0", "swap-n-minus-1", "fourier-n-0", "fourier-m-1", "fourier-m-minus-2"])
def test_run_refuses_an_out_of_range_example_dimension(tmp_path, capsys, spec, field, lowest):
    path = _write(tmp_path, "example.json", {"example": spec})
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: example.{field}: ")
    assert captured.err.endswith(f"must be an integer >= {lowest}\n")


@pytest.mark.parametrize("argv, flag", [
    (["example", "swap", "--n", "0"], "--n"),
    (["example", "swap", "--n", "-1"], "--n"),
    (["example", "fourier", "--n", "0", "--m", "3"], "--n"),
    (["example", "fourier", "--n", "3", "--m", "0"], "--m"),
    (["example", "fourier", "--n", "3", "--m", "-2"], "--m"),
    (["verify", "--seed", "-1"], "--seed"),
    (["example", "fourier", "--n", "1", "--m", "1"], "--m"),
])
def test_out_of_range_dimension_or_seed_is_usage_error(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lowest = {"--n": 1, "--m": 2, "--seed": 0}[flag]
    assert captured.err == f"usage error: {flag} must be >= {lowest}\n"


def test_smallest_dimension_and_seed_are_accepted(capsys):
    assert main(["example", "swap", "--n", "1"]) == 0
    assert main(["example", "fourier", "--n", "1", "--m", "2"]) == 0
    assert main(["verify", "--seed", "0", "--trials", "1"]) == 0


def test_example_subcommand_fourier_rejects_non_coprime(capsys):
    assert main(["example", "fourier", "--n", "2", "--m", "2"]) == 3
    assert "gcd" in capsys.readouterr().err


def test_example_subcommand_fourier_passes(tmp_path):
    out = str(tmp_path / "fourier_report.json")
    assert main(["example", "fourier", "--n", "2", "--m", "3", "-o", out]) == 0


def test_example_subcommand_accepts_probe_file(tmp_path):
    from nondisturbing.linalg import random_povm
    from nondisturbing.objects import Observable

    probe = Observable.from_matrices(random_povm(2, 2, 17))
    probe_path = _write(tmp_path, "probe.json", observable_to_json(probe))
    out = str(tmp_path / "report.json")
    assert main(["example", "swap", "--n", "2", "--probe", probe_path, "-o", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True


def _swap3_report():
    doc = _swap_scenario(3, ["instrument", "observable", "post_probe", "remeasure"])
    return run_scenario(scenario_from_json(doc))


def _written(report, tmp_path):
    path = tmp_path / "report.json"
    _emit_report(report, str(path))
    return path.read_text(encoding="utf-8")


def test_report_writer_matches_json_dumps_byte_for_byte(tmp_path):
    report = _swap3_report()
    assert report["seed"] is None
    assert _written(report, tmp_path) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_report_writer_matches_json_dumps_on_edge_values(tmp_path):
    report = _swap3_report()
    residual = sorted(report["residuals"])[0]
    entry = report["results"]["instrument"][0]
    data = entry["matrix"]["data"]
    for k, value in enumerate([float("nan"), float("inf"), float("-inf"), -0.0]):
        report["residuals"][f"{residual}.edge{k}"] = value
        data[k] = [value, -value]
    entry["outcome"] = 'é "q"\n[a, b]'
    report["residuals"]['ключ "q"\n[,]'] = 1e-300
    report["results"]["empty"] = []
    report["empty"] = {}
    report["nested"] = [
        [], {}, [1, True, None, "s"], [[0.5, 0.25, 0.125]], [[np.float64(0.1), 0.2]],
        [[0.5, 1]], [[True, 0.5]], [["s", None]],
    ]
    assert _written(report, tmp_path) == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{1: 0.5}, {"x": np.int64(3)}, {"x": (1.0, 2.0)}])
def test_report_writer_refuses_what_a_report_never_holds(tmp_path, bad):
    report = _swap3_report()
    report["extra"] = bad
    with pytest.raises(TypeError):
        _written(report, tmp_path)


def test_run_tolerance_override_can_force_failure(tmp_path):
    doc = {"example": {"name": "fourier", "n": 2, "m": 3}}
    path = _write(tmp_path, "fourier.json", doc)
    out = str(tmp_path / "report.json")
    assert main(["run", path, "-o", out, "--tol", "1e-300"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False
    assert report["tolerance"] == 1e-300
    # residuals are still included in the failing report
    assert report["residuals"]
    assert max(report["residuals"].values()) > 0.0


def test_scenario_seed_is_echoed_in_report():
    doc = _swap_scenario(requests=["instrument"])
    doc["seed"] = 123
    report = run_scenario(scenario_from_json(doc))
    assert report["seed"] == 123


def test_load_scenario_reads_files(tmp_path):
    from nondisturbing.scenario import load_scenario

    path = _write(tmp_path, "swap.json", _swap_scenario())
    scenario = load_scenario(path)
    assert scenario.model.dim_base == 2
    assert run_scenario(scenario)["pass"] is True


def test_verify_usage_errors(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    assert main(["verify", "--max-dim", "1"]) == 2
    assert main(["verify", "--tol", "0"]) == 2


def _tolerance_argv(where, value, tmp_path):
    if where == "verify":
        return ["verify", "--trials", "1", "--tol", value]
    if where == "run":
        return ["run", _write(tmp_path, "swap.json", _swap_scenario()), "--tol", value]
    if where == "example":
        return ["example", "swap", "--n", "2", "--tol", value]
    doc = _swap_scenario()
    doc["tol"] = float(value)  # json.dumps writes NaN and Infinity, json.load reads them
    return ["run", _write(tmp_path, "tol.json", doc)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("where", ["verify", "run", "example", "scenario"])
def test_non_finite_tolerance_exits_two(tmp_path, capsys, where, value):
    assert main(_tolerance_argv(where, value, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive finite number" in captured.err


def test_scenario_tolerance_beyond_float_range_exits_two(tmp_path, capsys):
    doc = _swap_scenario()
    doc["tol"] = 10**400  # a JSON integer that no float can hold
    assert main(["run", _write(tmp_path, "tol.json", doc)]) == 2
    assert "tol: must be a positive finite number" in capsys.readouterr().err


def test_tolerance_flag_rejects_non_numbers(capsys):
    assert main(["example", "swap", "--n", "2", "--tol", "tight"]) == 2
    assert "invalid float value: 'tight'" in capsys.readouterr().err


def test_verify_small_run_passes_and_is_deterministic(capsys):
    assert main(["verify", "--seed", "7", "--trials", "3", "--max-dim", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "7", "--trials", "3", "--max-dim", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "overall pass" in first
    from nondisturbing.verify import FAMILY_NAMES

    for family in FAMILY_NAMES:
        assert family in first
    assert first.count("trials=3 max-residual") == len(FAMILY_NAMES)


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def _run_module(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("module", ["nondisturbing.cli", "nondisturbing"])
def test_module_entry_points_run_the_cli(module):
    proc = _run_module(module, "verify", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("overall pass")
    bad = _run_module(module, "bogus")
    assert bad.returncode == 2
    assert bad.stdout == ""
