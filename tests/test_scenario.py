"""The scenario check registry: residual names, shared oracle work, and the
one check that both the scenario runner and ``verify`` run."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nondisturbing.scenario
from nondisturbing.channels import random_nd_channel
from nondisturbing.linalg import (
    DEFAULT_ATOL,
    hermitian_part,
    max_abs,
    random_density,
    random_kraus_channel,
    random_povm,
    random_unitary,
)
from nondisturbing.models import (
    MeasurementModel,
    measured_instrument_direct,
    measured_instrument_nd,
    post_probe_instrument_direct,
    post_probe_instrument_nd,
    random_model,
    remeasured_effect,
    remeasured_effect_two_round,
)
from nondisturbing.objects import Context, KrausOperation, Observable, State, sharp_observable
from nondisturbing.scenario import evaluate, run_scenario, scenario_from_json
from nondisturbing.serialization import matrix_to_json, nd_channel_to_json, observable_to_json
from nondisturbing.verify import run_verification

ALL_REQUESTS = ["instrument", "observable", "post_probe", "remeasure"]


def _nd_document(n, dk, outcomes, seed):
    nd = random_nd_channel(Context.random(n, seed), dk, 2, seed + 1)
    meter = Observable.from_matrices(random_povm(dk, outcomes, seed + 2))
    return {
        "dimH": n,
        "dimK": dk,
        "eta": matrix_to_json(random_density(dk, seed + 3)),
        "probe": observable_to_json(meter),
        "channel": {"kind": "nd", **nd_channel_to_json(nd)},
        "inputs": [matrix_to_json(random_density(n, seed + 4 + i)) for i in range(2)],
        "requests": ALL_REQUESTS,
    }


def test_nd_scenario_residual_names():
    report = run_scenario(scenario_from_json(_nd_document(2, 2, 2, 10)))
    assert set(report["residuals"]) == {
        "instrument.state0.outcome0.closed_vs_direct",
        "instrument.state0.outcome0.psd_defect",
        "instrument.state0.outcome1.closed_vs_direct",
        "instrument.state0.outcome1.psd_defect",
        "instrument.state0.probability_sum",
        "instrument.state0.probability_min",
        "instrument.state1.outcome0.closed_vs_direct",
        "instrument.state1.outcome0.psd_defect",
        "instrument.state1.outcome1.closed_vs_direct",
        "instrument.state1.outcome1.psd_defect",
        "instrument.state1.probability_sum",
        "instrument.state1.probability_min",
        "observable.completeness",
        "observable.commutators",
        "observable.outcome0.psd_defect",
        "observable.outcome1.psd_defect",
        "observable.state0.pairing",
        "observable.state1.pairing",
        "post_probe.state0.completeness",
        "post_probe.state0.outcome0.closed_vs_direct",
        "post_probe.state0.outcome0.duality",
        "post_probe.state0.outcome0.psd_defect",
        "post_probe.state0.outcome1.closed_vs_direct",
        "post_probe.state0.outcome1.duality",
        "post_probe.state0.outcome1.psd_defect",
        "post_probe.state1.completeness",
        "post_probe.state1.outcome0.closed_vs_direct",
        "post_probe.state1.outcome0.duality",
        "post_probe.state1.outcome0.psd_defect",
        "post_probe.state1.outcome1.closed_vs_direct",
        "post_probe.state1.outcome1.duality",
        "post_probe.state1.outcome1.psd_defect",
        "remeasure.state0.outcome0.closed_vs_two_round",
        "remeasure.state0.outcome1.closed_vs_two_round",
        "remeasure.state1.outcome0.closed_vs_two_round",
        "remeasure.state1.outcome1.closed_vs_two_round",
    }
    assert report["pass"]


def test_kraus_scenario_residual_names():
    document = {
        "dimH": 2,
        "dimK": 2,
        "eta": matrix_to_json(np.eye(2) / 2),
        "probe": observable_to_json(sharp_observable(2)),
        "channel": {
            "kind": "kraus",
            "kraus": [matrix_to_json(k) for k in random_kraus_channel(4, 2, 3)],
        },
        "requests": ["instrument"],
    }
    report = run_scenario(scenario_from_json(document))
    assert set(report["residuals"]) == {
        "instrument.state0.outcome0.psd_defect",
        "instrument.state0.outcome1.psd_defect",
        "instrument.state0.probability_sum",
        "instrument.state0.probability_min",
        "instrument.state1.outcome0.psd_defect",
        "instrument.state1.outcome1.psd_defect",
        "instrument.state1.probability_sum",
        "instrument.state1.probability_min",
    }
    assert report["pass"]


def test_run_builds_one_composite_operation_and_one_direct_output_per_pair(monkeypatch):
    scenario = scenario_from_json(_nd_document(2, 2, 3, 20))
    built = []
    original_init = KrausOperation.__post_init__

    def counting_init(self):
        built.append(self)
        original_init(self)

    applied = []
    original_apply = KrausOperation.apply_matrix

    def counting_apply(self, m):
        applied.append(m.tobytes())
        return original_apply(self, m)

    monkeypatch.setattr(KrausOperation, "__post_init__", counting_init)
    monkeypatch.setattr(KrausOperation, "apply_matrix", counting_apply)
    report = run_scenario(scenario)
    assert report["pass"]
    assert len(built) == 1
    # One output per input, shared by the three one-round oracles, then the
    # two-round oracle's first round once and its second round per input.
    assert len(applied) == 2 * 2 + 1
    assert len(set(applied)) == len(applied)


def _counting_applications(monkeypatch) -> list[int]:
    applied = []
    original = KrausOperation.apply_matrix

    def counting(self, m):
        applied.append(m.shape[0])
        return original(self, m)

    monkeypatch.setattr(KrausOperation, "apply_matrix", counting)
    return applied


@pytest.mark.parametrize("count", [1, 3])
def test_evaluate_applies_the_channel_once_per_distinct_input(monkeypatch, count):
    mm = random_model(3, 2, 3, 2, 50, context=Context.random(3, 51))
    inputs = tuple(State(random_density(3, 52 + i)) for i in range(count))
    applied = _counting_applications(monkeypatch)
    evaluate(mm, inputs, ALL_REQUESTS)
    # The measured-instrument and post-probe oracles share each input's
    # output; the two-round oracle adds its first round once and its second
    # round per input.
    assert applied == [6] * (2 * count + 1)
    applied.clear()
    evaluate(mm, inputs, ALL_REQUESTS, State(random_density(2, 60)))
    # Another probe input is another composite input.
    assert applied == [6] * (3 * count + 1)


def test_oracle_keys_its_outputs_by_input_value(monkeypatch):
    mm = random_model(3, 2, 3, 2, 53, context=Context.random(3, 54))
    rho = random_density(3, 55)
    inputs = (State(np.eye(3) / 3), State(rho), State(rho.copy()))
    applied = _counting_applications(monkeypatch)
    evaluate(mm, inputs, ALL_REQUESTS)
    # Two distinct inputs, each applied once and then once more for the
    # second round; the first round's I/n is the first input by value.
    assert applied == [6] * (2 * 2)


def test_shared_oracle_outputs_are_the_standalone_oracles_bit_for_bit():
    mm = random_model(3, 2, 3, 2, 70, context=Context.random(3, 71))
    inputs = (State(random_density(3, 72)), State(random_density(3, 73)))
    for sigma in (mm.probe_state, State(random_density(2, 74))):
        _, residuals = evaluate(mm, inputs, ALL_REQUESTS, sigma)
        for i, rho in enumerate(inputs):
            pairs = [
                ("instrument", "closed_vs_direct",
                 measured_instrument_nd(mm, rho), measured_instrument_direct(mm, rho)),
                ("post_probe", "closed_vs_direct",
                 post_probe_instrument_nd(mm, rho, sigma), post_probe_instrument_direct(mm, rho, sigma)),
                ("remeasure", "closed_vs_two_round",
                 remeasured_effect(mm, rho), remeasured_effect_two_round(mm, rho)),
            ]
            for request, name, closed, oracle in pairs:
                for x, out, brute in zip(mm.meter.labels, closed, oracle, strict=True):
                    assert residuals[f"{request}.state{i}.outcome{x}.{name}"] == max_abs(out - brute)


def test_scenario_and_verify_run_the_same_instrument_check(monkeypatch):
    class Shifted(nondisturbing.scenario.DirectOracle):
        def instrument(self, rho):
            outs = super().instrument(rho)
            return outs + 1e-3 * np.eye(outs.shape[-1])

    monkeypatch.setattr(nondisturbing.scenario, "DirectOracle", Shifted)
    report = run_scenario(scenario_from_json(_nd_document(2, 2, 2, 30)))
    assert not report["pass"]
    assert not report["checks"]["instrument.state0.outcome0.closed_vs_direct"]
    results, ok = run_verification(seed=42, trials=2, max_dim=3, tol=1e-9)
    assert not ok
    assert [r.name for r in results if not r.passed(1e-9)] == ["measured-instrument"]


def test_nan_closed_forms_give_nan_folded_residuals(monkeypatch):
    original_instrument = nondisturbing.scenario.measured_instrument_nd
    original_observable = nondisturbing.scenario.measured_observable_nd

    def nan_instrument(mm, rho):
        return np.full_like(original_instrument(mm, rho), np.nan)

    def nan_observable(mm):
        return np.full_like(original_observable(mm), np.nan)

    monkeypatch.setattr(nondisturbing.scenario, "measured_instrument_nd", nan_instrument)
    monkeypatch.setattr(nondisturbing.scenario, "measured_observable_nd", nan_observable)
    scenario = scenario_from_json(_nd_document(2, 2, 3, 40))
    _, residuals = evaluate(scenario.model, scenario.inputs, ("instrument", "observable"))
    folded = ["observable.commutators", "observable.state0.pairing",
              "observable.state1.pairing", "instrument.state0.probability_min",
              "instrument.state1.probability_min"]
    assert all(np.isnan(residuals[name]) for name in folded)


def _pure_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return State(np.outer(psi, psi.conj()))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    dk=st.integers(1, 4),
    meter_kind=st.sampled_from(["single outcome", "zero effect", "near singular"]),
    kraus_count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_degenerate_meters_with_rank_one_eta_pass_every_check(n, dk, meter_kind, kraus_count, seed):
    rng = np.random.default_rng(seed)
    nd = random_nd_channel(Context.random(n, rng), dk, kraus_count, rng)
    if meter_kind == "single outcome":
        effects = [np.eye(dk)]
    elif meter_kind == "zero effect":
        effects = [np.zeros((dk, dk)), *random_povm(dk, 2, rng)]
    else:
        # One eigenvalue in [-DEFAULT_ATOL/2, 0), which Observable accepts and
        # every square root clips to 0.
        depth = rng.uniform(0.01, 1.0) * DEFAULT_ATOL / 2
        v = random_unitary(dk, rng)
        low = hermitian_part((v * [-depth, *rng.uniform(0, 1, dk - 1)]) @ v.conj().T)
        effects = [low, np.eye(dk) - low]
    mm = MeasurementModel(_pure_state(dk, rng), nd, Observable.from_matrices(effects))
    inputs = (State(random_density(n, rng)), _pure_state(n, rng))
    _, residuals = evaluate(mm, inputs, ALL_REQUESTS, _pure_state(dk, rng))
    assert residuals
    assert {name: r for name, r in residuals.items() if not r <= 1e-9} == {}
    if meter_kind == "near singular":
        assert np.linalg.eigvalsh(mm.meter.effects[0])[0] < 0
        closed = {name: r for name, r in residuals.items() if ".closed_vs_" in name}
        assert closed
        assert {name: r for name, r in closed.items() if not r <= 1e-14} == {}


def test_near_singular_meter_is_clipped_alike_by_closed_forms_and_oracles():
    # The first effect has eigenvalue -DEFAULT_ATOL/2, which Observable
    # accepts; both square-root paths clip it to 0.
    v = random_unitary(3, 31)
    low = hermitian_part((v * [-DEFAULT_ATOL / 2, 0.3, 0.6]) @ v.conj().T)
    meter = Observable.from_matrices([low, np.eye(3) - low])
    assert np.linalg.eigvalsh(meter.effects[0])[0] < 0
    nd = random_nd_channel(Context.random(2, 32), 3, 2, 33)
    mm = MeasurementModel(State(random_density(3, 34)), nd, meter)
    inputs = (State(random_density(2, 35)), State(random_density(2, 36)))
    _, residuals = evaluate(mm, inputs, ALL_REQUESTS, State(random_density(3, 37)))
    closed = {name: r for name, r in residuals.items() if ".closed_vs_" in name}
    assert closed
    assert max(closed.values()) <= 1e-14
    assert max(residuals.values()) <= DEFAULT_ATOL
