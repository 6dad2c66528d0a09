"""Run JSON-described measurement-model scenarios and emit JSON reports.

A scenario names a model (explicitly, or through the built-in "swap" /
"fourier" families), input states, and requested outputs.  The runner
evaluates every requested closed form, recomputes it along an
independent oracle path where one exists, and reports the residuals;
the report passes when every residual stays within the tolerance.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .linalg import fold_max, max_abs
from .objects import KrausOperation, State
from .channels import NDChannel
from .models import (
    DirectOracle,
    MeasurementModel,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_nd,
    post_probe_observable,
    remeasured_effect,
)
from . import catalog
from .serialization import (
    SchemaError,
    _is_int,
    matrix_from_json,
    matrix_to_json,
    nd_channel_from_json,
    observable_from_json,
)

__all__ = ["Scenario", "scenario_from_json", "run_scenario", "load_scenario", "evaluate"]

# The report tolerance of a document without "tol", and of ``example`` without ``--tol``.
DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed scenario: model, input states, requested outputs, tolerance."""

    model: MeasurementModel
    inputs: tuple[State, ...]
    requests: tuple[str, ...]
    tolerance: float
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
    n, m = obj.get("n"), obj.get("m")
    if not _is_int(n) or n < 1:
        raise SchemaError("example.n", "base dimension 'n' must be an integer >= 1")
    if name == "swap" and "m" in obj:
        raise SchemaError("example.m", "swap takes no 'm'; its probe dimension is 'n'")
    if name == "fourier" and (not _is_int(m) or m < 2):
        raise SchemaError("example.m", "probe dimension 'm' must be an integer >= 2")
    probe_spec = obj.get("probe", "sharp")
    if probe_spec == "sharp":
        meter = None
    elif isinstance(probe_spec, dict):
        meter = observable_from_json(probe_spec, "example.probe")
    else:
        raise SchemaError("example.probe", "must be 'sharp' or an observable object")
    return catalog.swap_model(n, meter) if name == "swap" else catalog.fourier_model(n, m, meter)


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

    tolerance = obj.get("tol", DEFAULT_TOLERANCE)
    number = isinstance(tolerance, (int, float)) and not isinstance(tolerance, bool)
    # The upper bound also refuses a JSON integer too large for a float.
    if not (number and 0 < tolerance <= sys.float_info.max):
        raise SchemaError("tol", "must be a positive finite number")
    seed = obj.get("seed")
    if seed is not None and not _is_int(seed):
        raise SchemaError("seed", "must be an integer when present")

    if has_example:
        model = _parse_example(obj["example"])
    else:
        for key in ("dimH", "dimK", "eta", "probe"):
            if key not in obj:
                raise SchemaError("scenario", f"missing key {key!r}")
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
        model = MeasurementModel(eta, channel, meter)
    for key, value in (("dimH", model.dim_base), ("dimK", model.dim_probe)):
        given = obj.get(key, value)
        if not _is_int(given):
            raise SchemaError(key, "must be an integer")
        if given != value:
            raise ValueError(f"{key} = {given} conflicts with the model's dimension {value}")

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


def _psd_defects(stack: np.ndarray) -> list[float]:
    # Per matrix: the larger of its Hermiticity defect (eigvalsh reads one
    # triangle only) and its most negative eigenvalue.  eigvalsh raises on NaN
    # entries, so such a matrix is zeroed for it and gets a NaN defect instead.
    finite = np.isfinite(stack).all(axis=(1, 2))
    lowest = np.linalg.eigvalsh(np.where(finite[:, None, None], stack, 0))[:, 0]
    asymmetry = np.abs(stack - np.conj(np.swapaxes(stack, 1, 2))).max(axis=(1, 2))
    return [
        max(0.0, -low, asym) if ok else float("nan")
        for ok, low, asym in zip(finite.tolist(), lowest.tolist(), asymmetry.tolist())
    ]


# A check takes (model, inputs, probe input sigma, oracle), where ``oracle``
# is the model's :class:`DirectOracle`, shared by every check of one
# evaluation, and returns its produced (input, outcome, matrix) entries and
# named residuals.


def _check_instrument(mm: MeasurementModel, inputs, sigma, oracle):
    produced, residuals = [], {}
    for i, rho in enumerate(inputs):
        direct = oracle.instrument(rho)
        outs = measured_instrument_nd(mm, rho) if mm.is_nondisturbing else direct
        traces = []
        for x, out, brute, defect in zip(mm.meter.labels, outs, direct, _psd_defects(outs),
                                         strict=True):
            if mm.is_nondisturbing:
                residuals[f"instrument.state{i}.outcome{x}.closed_vs_direct"] = max_abs(
                    out - brute
                )
            residuals[f"instrument.state{i}.outcome{x}.psd_defect"] = defect
            traces.append(float(np.trace(out).real))
            produced.append((i, x, out))
        residuals[f"instrument.state{i}.probability_sum"] = abs(sum(traces) - 1.0)
        residuals[f"instrument.state{i}.probability_min"] = fold_max(0.0, *(-t for t in traces))
    return produced, residuals


def _check_observable(mm: MeasurementModel, inputs, sigma, oracle):
    mats = measured_observable_nd(mm)
    residuals = {"observable.completeness": max_abs(sum(mats) - np.eye(mm.dim_base))}
    for x, defect in zip(mm.meter.labels, _psd_defects(mats), strict=True):
        residuals[f"observable.outcome{x}.psd_defect"] = defect
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            worst = fold_max(worst, max_abs(mats[a] @ mats[b] - mats[b] @ mats[a]))
    residuals["observable.commutators"] = worst
    for i, rho in enumerate(inputs):
        defect = 0.0
        for effect, out in zip(mats, oracle.instrument(rho), strict=True):
            paired = float(np.trace(rho.matrix @ effect).real)
            defect = fold_max(defect, abs(paired - float(np.trace(out).real)))
        residuals[f"observable.state{i}.pairing"] = defect
    return [(None, x, effect) for x, effect in zip(mm.meter.labels, mats)], residuals


def _check_post_probe(mm: MeasurementModel, inputs, sigma, oracle):
    produced, residuals = [], {}
    for i, rho in enumerate(inputs):
        mats = post_probe_observable(mm, rho)
        residuals[f"post_probe.state{i}.completeness"] = max_abs(
            sum(mats) - np.eye(mm.dim_probe)
        )
        closed = post_probe_instrument_nd(mm, rho, sigma)
        direct = oracle.post_probe(rho, sigma)
        for x, effect, defect, out, brute in zip(mm.meter.labels, mats, _psd_defects(mats),
                                                 closed, direct, strict=True):
            residuals[f"post_probe.state{i}.outcome{x}.psd_defect"] = defect
            residuals[f"post_probe.state{i}.outcome{x}.closed_vs_direct"] = max_abs(
                out - brute
            )
            paired = float(np.trace(sigma.matrix @ effect).real)
            residuals[f"post_probe.state{i}.outcome{x}.duality"] = abs(
                paired - float(np.trace(out).real)
            )
            produced.append((i, x, effect))
    return produced, residuals


def _check_remeasure(mm: MeasurementModel, inputs, sigma, oracle):
    produced, residuals = [], {}
    for i, rho in enumerate(inputs):
        closed = remeasured_effect(mm, rho)
        direct = oracle.remeasure(rho)
        for x, out, brute in zip(mm.meter.labels, closed, direct, strict=True):
            residuals[f"remeasure.state{i}.outcome{x}.closed_vs_two_round"] = max_abs(
                out - brute
            )
            produced.append((i, x, out))
    return produced, residuals


_CHECKS = {
    "instrument": _check_instrument,
    "observable": _check_observable,
    "post_probe": _check_post_probe,
    "remeasure": _check_remeasure,
}

KNOWN_REQUESTS = tuple(_CHECKS)


def evaluate(mm: MeasurementModel, inputs: Sequence[State], requests: Sequence[str],
             sigma: State | None = None) -> tuple[dict[str, list], dict[str, float]]:
    """Run the named checks of ``requests`` on ``inputs``.

    Returns the produced ``(input, outcome, matrix)`` entries per request
    (``input`` is ``None`` for the input-independent observable) and the
    named residuals.  ``sigma`` is the probe input of the post-interaction
    instrument; it defaults to the model's probe state.  The checks share
    one :class:`DirectOracle`, so the composite channel is applied once per
    distinct (input, probe input) pair and the two-round oracle's first
    round once.
    """
    sigma = mm.probe_state if sigma is None else sigma
    oracle = DirectOracle(mm)
    produced, residuals = {}, {}
    for request in requests:
        produced[request], named = _CHECKS[request](mm, inputs, sigma, oracle)
        residuals.update(named)
    return produced, residuals


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Evaluate every requested output and assemble the report document."""
    produced, residuals = evaluate(scenario.model, scenario.inputs, scenario.requests)
    results = {
        request: [
            {"input": i, "outcome": x, "matrix": matrix_to_json(matrix)}
            for i, x, matrix in entries
        ]
        for request, entries in produced.items()
    }
    checks = {name: value <= scenario.tolerance for name, value in residuals.items()}
    return {
        "pass": all(checks.values()),
        "tolerance": scenario.tolerance,
        "seed": scenario.seed,
        "results": results,
        "residuals": residuals,
        "checks": checks,
    }
