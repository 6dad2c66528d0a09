"""The scenario check registry: residual names, shared oracle work, and the
one check that both the scenario runner and ``verify`` run."""

import types

import numpy as np
from hypothesis import given, settings, strategies as st

import nondisturbing.scenario
from nondisturbing.channels import random_nd_channel
from nondisturbing.linalg import random_density, random_kraus_channel, random_povm
from nondisturbing.models import MeasurementModel
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
        "observable.state0.pairing",
        "observable.state1.pairing",
        "post_probe.state0.completeness",
        "post_probe.state0.outcome0.closed_vs_direct",
        "post_probe.state0.outcome0.duality",
        "post_probe.state0.outcome1.closed_vs_direct",
        "post_probe.state0.outcome1.duality",
        "post_probe.state1.completeness",
        "post_probe.state1.outcome0.closed_vs_direct",
        "post_probe.state1.outcome0.duality",
        "post_probe.state1.outcome1.closed_vs_direct",
        "post_probe.state1.outcome1.duality",
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

    direct_calls = []
    original_direct = nondisturbing.scenario.measured_instrument_direct

    def counting_direct(mm, rho):
        direct_calls.append(id(rho))
        return original_direct(mm, rho)

    monkeypatch.setattr(KrausOperation, "__post_init__", counting_init)
    monkeypatch.setattr(nondisturbing.scenario, "measured_instrument_direct", counting_direct)
    report = run_scenario(scenario)
    assert report["pass"]
    assert len(built) == 1
    assert len(direct_calls) == 2
    assert len(set(direct_calls)) == 2


def test_scenario_and_verify_run_the_same_instrument_check(monkeypatch):
    original = nondisturbing.scenario.measured_instrument_direct

    def shifted(mm, rho):
        outs = original(mm, rho)
        return outs + 1e-3 * np.eye(outs.shape[-1])

    monkeypatch.setattr(nondisturbing.scenario, "measured_instrument_direct", shifted)
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
        obs = original_observable(mm)
        return types.SimpleNamespace(labels=obs.labels, effects=np.full_like(obs.effects, np.nan))

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
    meter_kind=st.sampled_from(["single outcome", "zero effect"]),
    kraus_count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_degenerate_meters_with_rank_one_eta_pass_every_check(n, dk, meter_kind, kraus_count, seed):
    rng = np.random.default_rng(seed)
    nd = random_nd_channel(Context.random(n, rng), dk, kraus_count, rng)
    if meter_kind == "single outcome":
        effects = [np.eye(dk)]
    else:
        effects = [np.zeros((dk, dk)), *random_povm(dk, 2, rng)]
    mm = MeasurementModel(n, dk, _pure_state(dk, rng), nd, Observable.from_matrices(effects))
    inputs = (State(random_density(n, rng)), _pure_state(n, rng))
    _, residuals = evaluate(mm, inputs, ALL_REQUESTS, _pure_state(dk, rng))
    assert residuals
    assert {name: r for name, r in residuals.items() if not r <= 1e-9} == {}
