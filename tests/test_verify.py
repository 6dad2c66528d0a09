"""The verification battery: NaN residuals fail their family, the battery
runs at larger dimensions, and its fixed classification instance has a
unitary probe trace."""

import numpy as np
import pytest

import nondisturbing.scenario
import nondisturbing.verify
from nondisturbing.linalg import is_unitary, partial_trace
from nondisturbing.objects import Context
from nondisturbing.probes import reduced_trace_flags
from nondisturbing.verify import FAMILY_NAMES, run_verification


def _nan_array(original):
    def patched(*args):
        return np.full_like(original(*args), np.nan)
    return patched


# (closed form, module whose binding is replaced, families that must fail);
# the scenario bindings drive the three model families.
CASES = [
    ("measured_instrument_nd", nondisturbing.scenario, {"measured-instrument"}),
    ("measured_observable_nd", nondisturbing.scenario, {"measured-instrument"}),
    ("post_probe_instrument_nd", nondisturbing.scenario, {"post-probe"}),
    ("post_probe_observable", nondisturbing.scenario, {"post-probe"}),
    ("remeasured_effect", nondisturbing.scenario, {"remeasurement"}),
    ("measured_instrument_nd", nondisturbing.verify,
     {"fourier-family", "unitary-specialization"}),
    ("measured_observable_nd", nondisturbing.verify,
     {"fourier-family", "swap-family", "unitary-specialization"}),
    ("post_probe_instrument_nd", nondisturbing.verify, {"unitary-specialization"}),
    ("post_probe_observable", nondisturbing.verify, {"unitary-specialization"}),
    ("remeasured_effect", nondisturbing.verify, {"remeasurement"}),
]


@pytest.mark.parametrize(
    "name, module, failing", CASES,
    ids=[f"{module.__name__.rsplit('.', 1)[1]}.{name}" for name, module, _ in CASES],
)
def test_nan_closed_form_fails_its_family(monkeypatch, name, module, failing):
    monkeypatch.setattr(module, name, _nan_array(getattr(module, name)))
    results, ok = run_verification(seed=42, trials=2, max_dim=3, tol=1e-9)
    assert not ok
    assert {r.name for r in results if not r.passed(1e-9)} == failing
    assert all(np.isnan(r.max_residual) for r in results if r.name in failing)


def test_battery_passes_at_max_dim_eight():
    results, ok = run_verification(seed=42, trials=2, max_dim=8, tol=1e-9)
    assert ok
    assert [r.name for r in results] == list(FAMILY_NAMES)


@pytest.mark.parametrize("n, dk", [(2, 2), (3, 4), (4, 3)])
def test_rotating_corner_has_a_unitary_probe_trace(n, dk):
    context = Context.random(n, 10 * n + dk)
    decomp = nondisturbing.verify._rotating_corner(context, dk)
    traced = partial_trace(decomp.assemble(), n, dk, "right")
    assert reduced_trace_flags(decomp).unitary
    assert is_unitary(traced)
    assert nondisturbing.verify._reduced_mismatches(decomp, decomp.assemble()) == 0
