"""Run JSON-described measurement-model scenarios and emit JSON reports.

A scenario names a model (explicitly, or through the built-in "swap" /
"fourier" families), input states, and requested outputs.  The runner
evaluates every requested closed form, recomputes it along an
independent oracle path where one exists, and reports the residuals;
the report passes when every residual stays within the tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import max_abs
from .objects import KrausOperation, State
from .channels import NDChannel
from .models import (
    MeasurementModel,
    measured_instrument_direct,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_direct,
    post_probe_instrument_nd,
    post_probe_observable,
    remeasure_apparatus,
    remeasured_effect_by_substitution,
)
from . import catalog
from .serialization import (
    SchemaError,
    matrix_from_json,
    matrix_to_json,
    nd_channel_from_json,
    observable_from_json,
)

__all__ = ["Scenario", "scenario_from_json", "run_scenario", "load_scenario"]

KNOWN_REQUESTS = ("instrument", "observable", "post_probe", "remeasure")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed scenario: model, input states, requested outputs, tolerance."""

    model: MeasurementModel
    inputs: tuple[State, ...]
    requests: tuple[str, ...]
    tolerance: float = 1e-10
    seed: int | None = None


def _default_inputs(dim: int) -> tuple[State, ...]:
    mixed = np.eye(dim, dtype=complex) / dim
    pure = np.zeros((dim, dim), dtype=complex)
    pure[0, 0] = 1.0
    return (State(mixed), State(pure))


def _parse_requests(obj: Any, nondisturbing: bool) -> tuple[str, ...]:
    if obj is None:
        return ("instrument", "observable") if nondisturbing else ("instrument",)
    if not isinstance(obj, list) or not all(isinstance(r, str) for r in obj):
        raise SchemaError("requests", "must be a list of strings")
    unknown = sorted(set(obj) - set(KNOWN_REQUESTS))
    if unknown:
        raise SchemaError("requests", f"unknown requests {unknown}; known: {list(KNOWN_REQUESTS)}")
    if not obj:
        raise SchemaError("requests", "must not be empty")
    return tuple(dict.fromkeys(obj))


def _parse_example(obj: Any) -> MeasurementModel:
    if not isinstance(obj, dict) or "name" not in obj:
        raise SchemaError("example", "expected an object with a 'name'")
    name = obj["name"]
    if name not in ("swap", "fourier"):
        raise SchemaError("example.name", f"unknown family {name!r}; known: swap, fourier")
    if "n" not in obj or not isinstance(obj["n"], int):
        raise SchemaError("example.n", "base dimension 'n' must be an integer")
    n = obj["n"]
    probe_spec = obj.get("probe", "sharp")
    if name == "swap":
        dim_probe = n
    else:
        if "m" not in obj or not isinstance(obj["m"], int):
            raise SchemaError("example.m", "probe dimension 'm' must be an integer")
        dim_probe = obj["m"]
    if probe_spec == "sharp":
        meter = None
    elif isinstance(probe_spec, dict):
        meter = observable_from_json(probe_spec, "example.probe")
    else:
        raise SchemaError("example.probe", "must be 'sharp' or an observable object")
    if name == "swap":
        return catalog.swap_model(n, meter)
    return catalog.fourier_model(n, dim_probe, meter)


def scenario_from_json(obj: Any) -> Scenario:
    """Parse and validate a scenario document.

    Structural problems raise :class:`SchemaError`; violated model
    invariants raise ``ValueError`` from the value types themselves.
    """
    if not isinstance(obj, dict):
        raise SchemaError("scenario", f"expected an object, got {type(obj).__name__}")
    has_channel = "channel" in obj
    has_example = "example" in obj
    if has_channel == has_example:
        raise SchemaError("scenario", "exactly one of 'channel' or 'example' is required")

    tolerance = obj.get("tol", 1e-10)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or tolerance <= 0:
        raise SchemaError("tol", "must be a positive number")
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise SchemaError("seed", "must be an integer when present")

    if has_example:
        model = _parse_example(obj["example"])
        for key, value in (("dimH", model.dim_base), ("dimK", model.dim_probe)):
            if key in obj and obj[key] != value:
                raise ValueError(
                    f"{key} = {obj[key]} conflicts with the example's dimension {value}"
                )
    else:
        for key in ("dimH", "dimK", "eta", "probe"):
            if key not in obj:
                raise SchemaError("scenario", f"missing key {key!r}")
        if not isinstance(obj["dimH"], int) or not isinstance(obj["dimK"], int):
            raise SchemaError("scenario", "dimH and dimK must be integers")
        dim_base, dim_probe = obj["dimH"], obj["dimK"]
        eta = State(matrix_from_json(obj["eta"], "eta"))
        meter = observable_from_json(obj["probe"], "probe")
        channel_obj = obj["channel"]
        if not isinstance(channel_obj, dict) or "kind" not in channel_obj:
            raise SchemaError("channel", "expected an object with a 'kind'")
        kind = channel_obj["kind"]
        if kind == "nd":
            channel: KrausOperation | NDChannel = nd_channel_from_json(channel_obj, "channel")
        elif kind == "kraus":
            if "kraus" not in channel_obj or not isinstance(channel_obj["kraus"], list):
                raise SchemaError("channel.kraus", "must be a list of matrices")
            kraus = tuple(
                matrix_from_json(k, f"channel.kraus[{i}]")
                for i, k in enumerate(channel_obj["kraus"])
            )
            channel = KrausOperation(kraus)
        else:
            raise SchemaError("channel.kind", f"unknown kind {kind!r}; known: nd, kraus")
        model = MeasurementModel(dim_base, dim_probe, eta, channel, meter)

    inputs_obj = obj.get("inputs")
    if inputs_obj is None:
        inputs = _default_inputs(model.dim_base)
    else:
        if not isinstance(inputs_obj, list) or not inputs_obj:
            raise SchemaError("inputs", "must be a non-empty list of states")
        inputs = tuple(
            State(matrix_from_json(entry, f"inputs[{i}]"))
            for i, entry in enumerate(inputs_obj)
        )
        for i, state in enumerate(inputs):
            if state.dim != model.dim_base:
                raise ValueError(
                    f"inputs[{i}] has dimension {state.dim}, expected {model.dim_base}"
                )

    requests = _parse_requests(obj.get("requests"), model.is_nondisturbing)
    return Scenario(model, inputs, requests, float(tolerance), seed)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_json(json.load(handle))


def _psd_defect(matrix: np.ndarray) -> float:
    return max(0.0, -float(np.linalg.eigvalsh(matrix)[0]))


def _run_instrument(mm: MeasurementModel, inputs, results, residuals) -> dict[int, dict[str, np.ndarray]]:
    produced: dict[int, dict[str, np.ndarray]] = {}
    entries = []
    for i, rho in enumerate(inputs):
        produced[i] = {}
        traces = []
        for x in mm.meter.labels:
            direct = measured_instrument_direct(mm, x, rho).matrix
            if mm.is_nondisturbing:
                closed = measured_instrument_nd(mm, x, rho).matrix
                residuals[f"instrument.state{i}.outcome{x}.closed_vs_direct"] = max_abs(
                    closed - direct
                )
                out = closed
            else:
                out = direct
            produced[i][x] = out
            residuals[f"instrument.state{i}.outcome{x}.psd_defect"] = _psd_defect(out)
            traces.append(float(np.trace(out).real))
            entries.append({"input": i, "outcome": x, "matrix": matrix_to_json(out)})
        residuals[f"instrument.state{i}.probability_sum"] = abs(sum(traces) - 1.0)
        residuals[f"instrument.state{i}.probability_min"] = max(0.0, -min(traces))
    results["instrument"] = entries
    return produced


def _run_observable(mm: MeasurementModel, inputs, results, residuals) -> None:
    obs = measured_observable_nd(mm)
    mats = [obs.effect_matrix(x) for x in obs.labels]
    residuals["observable.completeness"] = max_abs(sum(mats) - np.eye(mm.dim_base))
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            worst = max(worst, max_abs(mats[a] @ mats[b] - mats[b] @ mats[a]))
    residuals["observable.commutators"] = worst
    for i, rho in enumerate(inputs):
        defect = 0.0
        for x in obs.labels:
            direct = measured_instrument_direct(mm, x, rho).matrix
            paired = float(np.trace(rho.matrix @ obs.effect_matrix(x)).real)
            defect = max(defect, abs(paired - float(np.trace(direct).real)))
        residuals[f"observable.state{i}.pairing"] = defect
    results["observable"] = [
        {"input": None, "outcome": x, "matrix": matrix_to_json(obs.effect_matrix(x))}
        for x in obs.labels
    ]


def _run_post_probe(mm: MeasurementModel, inputs, results, residuals) -> None:
    entries = []
    sigma = mm.probe_state
    for i, rho in enumerate(inputs):
        obs = post_probe_observable(mm, rho)
        mats = [obs.effect_matrix(x) for x in obs.labels]
        residuals[f"post_probe.state{i}.completeness"] = max_abs(
            sum(mats) - np.eye(mm.dim_probe)
        )
        for x in obs.labels:
            closed = post_probe_instrument_nd(mm, rho, x, sigma).matrix
            direct = post_probe_instrument_direct(mm, rho, x, sigma).matrix
            residuals[f"post_probe.state{i}.outcome{x}.closed_vs_direct"] = max_abs(
                closed - direct
            )
            paired = float(np.trace(sigma.matrix @ obs.effect_matrix(x)).real)
            residuals[f"post_probe.state{i}.outcome{x}.duality"] = abs(
                paired - float(np.trace(closed).real)
            )
            entries.append(
                {"input": i, "outcome": x, "matrix": matrix_to_json(obs.effect_matrix(x))}
            )
    results["post_probe"] = entries


def _run_remeasure(mm: MeasurementModel, inputs, results, residuals) -> None:
    family = remeasure_apparatus(mm)
    entries = []
    for i, rho in enumerate(inputs):
        for x in family.labels:
            closed = family.effect(rho, x)
            oracle = remeasured_effect_by_substitution(mm, rho, x)
            residuals[f"remeasure.state{i}.outcome{x}.closed_vs_substitution"] = max_abs(
                closed - oracle
            )
            entries.append({"input": i, "outcome": x, "matrix": matrix_to_json(closed)})
    results["remeasure"] = entries


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Evaluate every requested output and assemble the report document."""
    mm = scenario.model
    results: dict[str, Any] = {}
    residuals: dict[str, float] = {}
    for request in scenario.requests:
        if request == "instrument":
            _run_instrument(mm, scenario.inputs, results, residuals)
        elif request == "observable":
            _run_observable(mm, scenario.inputs, results, residuals)
        elif request == "post_probe":
            _run_post_probe(mm, scenario.inputs, results, residuals)
        elif request == "remeasure":
            _run_remeasure(mm, scenario.inputs, results, residuals)
    checks = {name: value <= scenario.tolerance for name, value in residuals.items()}
    return {
        "pass": all(checks.values()),
        "tolerance": scenario.tolerance,
        "seed": scenario.seed,
        "results": results,
        "residuals": residuals,
        "checks": checks,
    }
