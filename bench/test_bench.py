"""Tests of the benchmark itself: generators, gates, guards and metric names.

Run from the repository root with ``python3 -m pytest -q bench``.  The
package is imported from ``src/``; a few tests run real workload
iterations or the benchmark command, so the module takes about 30 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def modules():
    return run.import_package()


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- generators -------------------------------------------------------------------


def test_scenario_generator_is_byte_identical_for_equal_seeds():
    assert workloads.gen_scenario(7).text == workloads.gen_scenario(7).text
    assert workloads.gen_scenario(7).text != workloads.gen_scenario(8).text


def test_kraus_generator_is_byte_identical_for_equal_seeds():
    a, b, c = workloads.gen_kraus(7), workloads.gen_kraus(7), workloads.gen_kraus(8)
    for name in ("basis", "table"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for x, y in zip(a.kraus + a.perturbed, b.kraus + b.perturbed):
        assert x.tobytes() == y.tobytes()
    assert a.kraus[0].tobytes() != c.kraus[0].tobytes()


def test_generated_kraus_family_is_a_channel():
    inputs = workloads.gen_kraus(3)
    total = sum(s.conj().T @ s for s in inputs.kraus)
    assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-12


# -- gates ------------------------------------------------------------------------


def test_tampered_scenario_report_fails(modules, tmp_path):
    workload = workloads.build("scenario-nd12", 5, tmp_path, modules)
    rc, text = workload.run()
    assert workload.check((rc, text)) == []

    report = json.loads(text)
    name = sorted(report["residuals"])[0]
    report["residuals"][name] = 1e-3
    assert workload.check((rc, json.dumps(report)))

    report = json.loads(text)
    report["results"]["observable"][2]["matrix"]["data"][5][0] += 1e-6
    assert workload.check((rc, json.dumps(report)))

    report = json.loads(text)
    report["results"]["post_probe"].pop()
    assert workload.check((rc, json.dumps(report)))


def test_tampered_kraus_outcome_fails(modules, tmp_path):
    workload = workloads.build("kraus-import-n16", 5, tmp_path, modules)
    outcome = workload.run()
    assert workload.check(outcome) == []

    table = outcome.table.copy()
    table[3, 1, 2, 2] += 1e-6
    assert workload.check(workloads.KrausOutcome(table, outcome.by_elements, outcome.rejected))

    by_elements = [p.copy() for p in outcome.by_elements]
    by_elements[0][0, 0, 1] += 1e-6
    assert workload.check(workloads.KrausOutcome(outcome.table, by_elements, outcome.rejected))

    assert workload.check(workloads.KrausOutcome(outcome.table, outcome.by_elements, None))


def test_tampered_verify_summary_fails(modules, tmp_path):
    workload = workloads.build("verify-t40", 5, tmp_path, modules)
    rc, text = workload.run()
    assert workload.check((rc, text)) == []
    assert workload.check((rc, text)) == []  # a second, identical iteration passes

    lines = text.splitlines()
    name = lines[3].split()[0]
    lines[3] = f"{name}  trials={workloads.VERIFY_TRIALS} max-residual=0.001 pass"
    tampered = "\n".join(lines) + "\n"
    assert workloads.check_verify(rc, tampered, None)
    assert workload.check((rc, tampered))  # also differs from the first iteration


def test_swap_gate_checks_effects():
    n = workloads.SWAP_N
    eye = np.eye(n)

    def entries(count, matrix=np.zeros((n, n))):
        return [{"input": 0, "outcome": "0", "matrix": workloads.matrix_json(matrix)}] * count

    report = {
        "pass": True,
        "tolerance": workloads.SWAP_TOL,
        "residuals": {"r": 0.0},
        "results": {
            "instrument": entries(2 * n),
            "observable": [
                {"input": None, "outcome": str(x), "matrix": workloads.matrix_json(np.outer(eye[x], eye[x]))}
                for x in range(n)
            ],
            "post_probe": entries(2 * n),
            "remeasure": entries(2 * n),
        },
    }
    assert workloads.check_swap(0, json.dumps(report)) == []
    report["results"]["observable"][4]["matrix"] = workloads.matrix_json(np.outer(eye[5], eye[5]))
    assert workloads.check_swap(0, json.dumps(report))


# -- guards against a run that does nothing ------------------------------------------


@pytest.mark.parametrize("rc", [0, 1])
def test_empty_output_fails_every_gate(rc):
    inputs = workloads.gen_scenario(1)
    assert workloads.check_verify(rc, "", None)
    assert workloads.check_swap(rc, "")
    assert workloads.check_scenario(rc, "", inputs)
    assert workloads.check_swap(rc, "{}")
    assert workloads.check_kraus(workloads.KrausOutcome(None, [], None), workloads.gen_kraus(1))


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _command("--workload", "swap-n10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()


# -- tracer -----------------------------------------------------------------------


def test_distinct_channel_count_survives_id_reuse():
    trc = tracer.Tracer()
    for _ in range(3):
        tracer.HOOKS["channels.as_operation"](trc, (object(),), {}, None)
    assert len(trc.distinct["channels.as_operation"]) == 3


def test_einsum_flop_of_a_matrix_product():
    a, b = np.ones((2, 3)), np.ones((3, 4))
    assert tracer.einsum_flop("ij,jk->ik", (a, b), False) == 2 * 3 * 4 * 2  # a multiply and an add per index point


# -- metric names -------------------------------------------------------------------


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_specs_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WHY)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_printed_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    args = ("--workload", "kraus-import-n16", "--seed", "2", "--seconds", "1")
    untraced = _last_json(_command(*args, "--trace", "0"))
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    first = _last_json(_command(*args, "--trace", "1"))
    second = _last_json(_command(*args, "--trace", "1"))
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for name, entry in first["metrics"].items():
        assert entry["unit"] == second["metrics"][name]["unit"]
        if entry["unit"] != "s" and name != "trace.overhead_ratio":  # counts repeat exactly
            assert entry["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["channels.errors"]["value"] == 1  # the rejected family
