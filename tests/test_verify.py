"""The verification battery: NaN residuals fail their family, and the
battery runs at larger dimensions."""

import types

import numpy as np
import pytest

import nondisturbing.scenario
import nondisturbing.verify
from nondisturbing.verify import FAMILY_NAMES, run_verification


def _nan_like(matrix):
    return np.full_like(matrix, np.nan)


def _nan_observable(original):
    def patched(mm):
        obs = original(mm)
        return types.SimpleNamespace(
            labels=obs.labels,
            effects=_nan_like(obs.effects),
            effect_matrix=lambda x: _nan_like(obs.effect_matrix(x)),
        )
    return patched


def _nan_array(original):
    def patched(*args):
        return _nan_like(original(*args))
    return patched


# (closed form, module whose binding is replaced, NaN wrapper, families that
# must fail); the scenario bindings drive the three model families.
CASES = [
    ("measured_instrument_nd", nondisturbing.scenario, _nan_array,
     {"measured-instrument"}),
    ("measured_observable_nd", nondisturbing.scenario, _nan_observable,
     {"measured-instrument"}),
    ("post_probe_instrument_nd", nondisturbing.scenario, _nan_array, {"post-probe"}),
    ("remeasured_effect", nondisturbing.scenario, _nan_array, {"remeasurement"}),
    ("measured_instrument_nd", nondisturbing.verify, _nan_array,
     {"fourier-family", "unitary-specialization"}),
    ("measured_observable_nd", nondisturbing.verify, _nan_observable,
     {"fourier-family", "swap-family", "unitary-specialization"}),
    ("post_probe_instrument_nd", nondisturbing.verify, _nan_array,
     {"unitary-specialization"}),
    ("remeasured_effect", nondisturbing.verify, _nan_array, {"remeasurement"}),
]


@pytest.mark.parametrize(
    "name, module, wrap, failing", CASES,
    ids=[f"{module.__name__.rsplit('.', 1)[1]}.{name}" for name, module, _, _ in CASES],
)
def test_nan_closed_form_fails_its_family(monkeypatch, name, module, wrap, failing):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    results, ok = run_verification(seed=42, trials=2, max_dim=3, tol=1e-9)
    assert not ok
    assert {r.name for r in results if not r.passed(1e-9)} == failing
    assert all(np.isnan(r.max_residual) for r in results if r.name in failing)


def test_battery_passes_at_max_dim_eight():
    results, ok = run_verification(seed=42, trials=2, max_dim=8, tol=1e-9)
    assert ok
    assert [r.name for r in results] == list(FAMILY_NAMES)
