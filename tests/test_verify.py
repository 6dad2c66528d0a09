"""The verification battery: NaN residuals fail their family, the battery
runs at larger dimensions, its fixed classification instance has a
unitary probe trace, and the worker pool gives the in-process results."""

import multiprocessing
import os

import numpy as np
import pytest

import nondisturbing.scenario
import nondisturbing.verify
from nondisturbing import cli
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


def _force_workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(nondisturbing.verify, "_worker_count", lambda: count)


@pytest.mark.parametrize("seed, trials", [(0, 2), (1, 3), (42, 2)])
def test_pool_and_in_process_runs_give_equal_results(monkeypatch, seed, trials):
    _force_workers(monkeypatch, 2)
    pooled = run_verification(seed=seed, trials=trials, max_dim=4, tol=1e-9)
    assert multiprocessing.active_children() == []
    _force_workers(monkeypatch, 1)
    assert run_verification(seed=seed, trials=trials, max_dim=4, tol=1e-9) == pooled


def _boom(rng, trials, max_dim):
    raise ValueError("boom")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_family_raises_in_the_caller(monkeypatch, capsys, workers):
    _force_workers(monkeypatch, workers)
    monkeypatch.setitem(nondisturbing.verify._FAMILIES, "post-probe", _boom)
    with pytest.raises(ValueError, match="^boom$"):
        run_verification(seed=42, trials=2, max_dim=3, tol=1e-9)
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "--trials", "2"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: boom\n"
    assert multiprocessing.active_children() == []


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert nondisturbing.verify._worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert nondisturbing.verify._worker_count() == len(FAMILY_NAMES)


def test_a_daemonic_worker_runs_the_families_in_process():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(nondisturbing.verify._worker_count) == 1
