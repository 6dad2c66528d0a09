"""Seeded randomized verification battery covering every closed form.

Each family is a check of one random instance: it evaluates a closed
form and an independent oracle path and returns its worst residual.
:func:`_run_family` draws ``trials`` instances and keeps the worst; an
instance that raises fails its family with the error recorded, and the
other families still run.  The measured-instrument, post-probe and
remeasurement families run the scenario checks of
:func:`nondisturbing.scenario.evaluate`.  Family seeds are derived from
the base seed and a stable hash of the family name, so adding a family
never perturbs the instances any other family sees, and a fixed seed
reproduces the summary byte for byte.

The families share no state, so :func:`run_verification` runs them in
worker processes, one per available CPU (at most one per family),
started with ``fork`` and joined before it returns; without ``fork``,
or when called from a daemonic worker, it runs them in the calling
process.  A family's result does not depend on the process it runs in,
so the summary does not depend on the CPU count; ``taskset -c 0`` gives
a single-process run.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    _adjoint,
    fold_max,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
    partial_trace,
    random_density,
    random_effect,
    random_hermitian,
    random_povm,
    random_projection,
    random_unitaries,
)
from .objects import Context, Observable, State
from .probes import (
    ProbeDecomposition,
    classify,
    closed_form_partial_traces,
    commutator_defect,
    conjugate,
    extract_probes,
    extract_probes_by_matrix_elements,
    order_leq_via_probes,
    reduced_trace_flags,
)
from .channels import NDChannel, nd_channel_from_kraus, random_nd_channel, apply_product, reduced_product_outputs
from .models import (
    DirectOracle,
    MeasurementModel,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_nd,
    post_probe_observable,
    random_model,
    remeasured_effect,
)
from .scenario import evaluate
from . import catalog

__all__ = ["FamilyResult", "run_verification", "format_summary", "FAMILY_NAMES"]


@dataclass(frozen=True)
class FamilyResult:
    """A family's worst residual, or the error of the instance that raised."""

    name: str
    trials: int
    max_residual: float
    error: str | None = None

    def passed(self, tol: float) -> bool:
        return self.error is None and self.max_residual <= tol


def _family_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("ascii"))])
    )


def _dims(rng: np.random.Generator, max_dim: int) -> tuple[int, int]:
    return int(rng.integers(2, max_dim + 1)), int(rng.integers(2, max_dim + 1))


def _random_context(rng: np.random.Generator, dim: int) -> Context:
    if rng.integers(0, 2):
        return Context.random(dim, rng)
    return Context.standard(dim)


def _random_decomposition(
    rng: np.random.Generator, max_dim: int
) -> ProbeDecomposition:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    probes = tuple(random_hermitian(dk, rng) + 1j * random_hermitian(dk, rng)
                   for _ in range(n))
    return ProbeDecomposition(context, probes)


def _check_probe_round_trip(rng, max_dim) -> float:
    decomp = _random_decomposition(rng, max_dim)
    full = decomp.assemble()
    context, dk = decomp.context, decomp.dim_probe
    recovered = extract_probes(full, context, dk)
    first, second = (
        extract_probes_by_matrix_elements(full, context, dk, probe_basis)
        for probe_basis in random_unitaries(dk, 2, rng)
    )
    return fold_max(
        max_abs(decomp.probes - recovered.probes),
        max_abs(recovered.assemble() - full),
        max_abs(first.probes - second.probes),
        max_abs(first.probes - recovered.probes),
        float(_rejection_mismatches(full, context, dk)),
    )


def _rejection_mismatches(full: np.ndarray, context: Context, dk: int) -> int:
    """Mismatches on ``full + 1e-6 (S (x) I)``, with ``S`` the cyclic shift.

    The shift commutes with the atoms only of a context that diagonalises
    it, such as the Fourier basis, which the battery never draws: the
    commutator test must reject the sum, and its defect must exceed
    rounding.  It takes no random draw.
    """
    n = context.dim
    shifted = full + 1e-6 * kron(np.roll(np.eye(n), 1, axis=0), np.eye(dk))
    mismatches = int(commutator_defect(shifted, context, dk) <= DEFAULT_ATOL)
    try:
        extract_probes(shifted, context, dk)
    except ValueError:
        return mismatches
    return mismatches + 1


def _check_reduced_traces(rng, max_dim) -> float:
    decomp = _random_decomposition(rng, max_dim)
    full = decomp.assemble()
    n, dk = decomp.dim_base, decomp.dim_probe
    over_base, over_probe = closed_form_partial_traces(decomp)
    atoms = decomp.context.atoms
    return fold_max(
        max_abs(over_base - partial_trace(full, n, dk, "left")),
        max_abs(over_probe - partial_trace(full, n, dk, "right")),
        max_abs(over_probe @ atoms - atoms @ over_probe),
    )


def _classification_instances(rng, dk: int, flag: str, positive: bool, count: int):
    """Probe tuples that do (or robustly do not) satisfy a structural flag."""
    probes = []
    if flag == "self_adjoint":
        probes = [random_hermitian(dk, rng) for _ in range(count)]
        if not positive:
            probes[int(rng.integers(0, count))] += 0.5j * np.eye(dk)
    elif flag == "unitary":
        probes = list(random_unitaries(dk, count, rng))
        if not positive:
            probes[int(rng.integers(0, count))] *= 1.5
    elif flag == "projection":
        probes = [random_projection(dk, int(rng.integers(0, dk + 1)), rng)
                  for _ in range(count)]
        if not positive:
            probes[int(rng.integers(0, count))] = (
                0.5 * random_projection(dk, dk, rng)
            )
    elif flag == "effect":
        probes = [random_effect(dk, rng) for _ in range(count)]
        if not positive:
            probes[int(rng.integers(0, count))] += 1.5 * np.eye(dk)
    elif flag == "observable_family":
        if positive:
            probes = random_povm(dk, count, rng)
        else:
            probes = 0.5 * random_povm(dk, count, rng)
    return tuple(probes)


def _direct_flag(full: np.ndarray, n: int, dk: int, flag: str) -> bool:
    """One structural flag, read off the assembled operator itself."""
    if flag == "observable_family":
        return is_effect_matrix(full) and max_abs(
            partial_trace(full, n, dk, "left") - np.eye(dk)
        ) <= DEFAULT_ATOL
    return {
        "self_adjoint": is_hermitian,
        "unitary": is_unitary,
        "projection": is_projection_matrix,
        "effect": is_effect_matrix,
    }[flag](full)


def _reduced_mismatches(decomp: ProbeDecomposition, full: np.ndarray) -> int:
    """How many block-trace flags disagree with the probe-traced operator."""
    reduced = reduced_trace_flags(decomp)
    traced = partial_trace(full, decomp.dim_base, decomp.dim_probe, "right")
    return sum((
        reduced.self_adjoint != is_hermitian(traced),
        reduced.unitary != is_unitary(traced),
        reduced.effect != is_effect_matrix(traced),
        reduced.projection != is_projection_matrix(traced),
    ))


def _rotating_corner(context: Context, dk: int) -> ProbeDecomposition:
    """Blocks ``exp(2 pi i k / n) |0><0|``: every block trace is a phase.

    Its probe trace is unitary, which no random classification instance
    reliably is.  It takes no random draw.
    """
    n = context.dim
    blocks = np.zeros((n, dk, dk), dtype=complex)
    blocks[:, 0, 0] = np.exp(2j * np.pi * np.arange(n) / n)
    return ProbeDecomposition(context, blocks)


def _check_classification(rng, max_dim) -> float:
    """How many flags and orderings of one instance disagree with the operator."""
    flags = ("self_adjoint", "unitary", "projection", "effect", "observable_family")
    dk = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_dim + 1))
    context = _random_context(rng, n)
    flag = flags[int(rng.integers(0, len(flags)))]
    positive = bool(rng.integers(0, 2))
    decomp = ProbeDecomposition(context, _classification_instances(rng, dk, flag, positive, n))
    full = decomp.assemble()
    blockwise = getattr(classify(decomp), flag)
    rotating = _rotating_corner(context, dk)
    base = tuple(random_effect(dk, rng) for _ in range(n))
    bumps = tuple(random_effect(dk, rng) for _ in range(n))
    lower = ProbeDecomposition(context, base)
    upper = ProbeDecomposition(context, tuple(b + p for b, p in zip(base, bumps)))
    ordered = order_leq_via_probes(lower, upper)
    return float(sum((
        blockwise != _direct_flag(full, n, dk, flag),
        blockwise != positive,
        _reduced_mismatches(decomp, full),
        _reduced_mismatches(rotating, rotating.assemble()),
        not ordered,
        not order_leq_via_probes(lower, lower),  # A <= A: the bumps are all strictly positive
        ordered != loewner_leq(lower.assemble(), upper.assemble()),
    )))


def _check_conjugation(rng, max_dim) -> float:
    decomp = _random_decomposition(rng, max_dim)
    full = decomp.assemble()
    n, dk = decomp.dim_base, decomp.dim_probe
    b = random_hermitian(n, rng)
    d = random_hermitian(dk, rng)
    k = int(rng.integers(0, n))
    atom, bk = decomp.context.atoms[k], decomp.probes[k]
    return fold_max(
        max_abs(conjugate(decomp, b, d) - full @ kron(b, d) @ full.conj().T),
        max_abs(conjugate(decomp, atom, np.eye(dk)) - kron(atom, bk @ bk.conj().T)),
    )


def _check_channel_round_trip(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    nd = random_nd_channel(context, dk, int(rng.integers(1, 4)), rng)
    defects = [commutator_defect(s, context, dk) for s in nd.induced_kraus]
    rebuilt = nd_channel_from_kraus(nd.induced_kraus, context, dk)
    # A round trip keeps the Kraus order, so the tables agree entrywise.
    return fold_max(*defects, max_abs(rebuilt.table - nd.table))


def _check_channel_partial_traces(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    nd = random_nd_channel(context, dk, int(rng.integers(1, 4)), rng)
    rho = State(random_density(n, rng))
    eta = State(random_density(dk, rng))
    closed = apply_product(nd, rho, eta)
    direct = nd.apply_matrix(kron(rho.matrix, eta.matrix))
    reduced = reduced_product_outputs(nd, rho, eta)
    weights = _context_weights(context.basis, rho.matrix)
    # sum_i w_i G_i(eta), with G_i(eta) = sum_k B_i^k eta B_i^k*
    mixture = np.einsum("i,ikab,bc,ikdc->ad", weights, nd.table, eta.matrix, nd.table.conj())
    return fold_max(
        max_abs(closed - direct),
        abs(float(np.trace(closed).real) - 1.0),
        -float(np.linalg.eigvalsh((closed + closed.conj().T) / 2)[0]),
        max_abs(reduced.base - partial_trace(direct, n, dk, "right")),
        max_abs(reduced.probe - partial_trace(direct, n, dk, "left")),
        -float(weights.min()),
        abs(float(weights.sum()) - 1.0),
        max_abs(reduced.probe - mixture),
    )


def _check_measured_instrument(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                      rng, context=_random_context(rng, n))
    rho = State(random_density(n, rng))
    return fold_max(*evaluate(mm, (rho,), ("instrument", "observable"))[1].values())


def _check_post_probe(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                      rng, context=_random_context(rng, n))
    rho = State(random_density(n, rng))
    sigma = State(random_density(dk, rng))
    return fold_max(*evaluate(mm, (rho,), ("post_probe",), sigma)[1].values())


def _context_weights(basis: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``<v_i, rho v_i>`` for every context vector; the battery's own copy."""
    return np.real(np.diagonal(basis.conj().T @ rho @ basis))


def _pair_traces(unitaries: np.ndarray, eta: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """``tr(U_i eta U_j* F_x)`` for every outcome ``x`` and pair ``(i, j)``.

    Shape ``(outcomes, n, n)``, with ``unitaries`` stacked ``(n, d, d)``
    and ``effects`` ``(outcomes, d, d)``.
    """
    left = unitaries @ eta
    right = _adjoint(unitaries) @ effects[:, None]
    return np.einsum("iab,xjba->xij", left, right)


def _unitary_model(rng, n: int, dk: int, context: Context) -> tuple[MeasurementModel, np.ndarray]:
    unitaries = random_unitaries(dk, n, rng)
    nd = NDChannel(context, unitaries[:, None])
    eta = State(random_density(dk, rng))
    meter = Observable.from_matrices(random_povm(dk, int(rng.integers(2, 4)), rng))
    return MeasurementModel(eta, nd, meter), unitaries


def _check_unitary_specialization(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    mm, unitaries = _unitary_model(rng, n, dk, context)
    rho = State(random_density(n, rng))
    sigma = State(random_density(dk, rng))
    effects = mm.meter.effects
    basis = context.basis
    overlaps = basis.conj().T @ rho.matrix @ basis
    weights = np.real(np.diagonal(overlaps))
    coeff = _pair_traces(unitaries, mm.probe_state.matrix, effects)
    explicit = basis @ (coeff * overlaps) @ basis.conj().T
    diag = np.real(np.diagonal(coeff, axis1=1, axis2=2))
    explicit_effect = (basis * diag[:, None, :]) @ basis.conj().T
    # sum_i w_i F_x^(1/2) U_i sigma U_i* F_x^(1/2)
    roots = DirectOracle(mm).meter_roots
    mixed = np.tensordot(weights, unitaries @ sigma.matrix @ _adjoint(unitaries), axes=1)
    # sum_i w_i U_i* F_x U_i
    pulled = np.tensordot(weights, _adjoint(unitaries) @ effects[:, None] @ unitaries,
                          axes=(0, 1))
    collapsed = MeasurementModel(State(np.eye(dk, dtype=complex) / dk), mm.channel, mm.meter)
    scale = np.real(np.trace(effects, axis1=1, axis2=2)) / dk
    return fold_max(
        max_abs(explicit - measured_instrument_nd(mm, rho)),
        max_abs(explicit_effect - measured_observable_nd(mm)),
        max_abs(roots @ mixed @ roots - post_probe_instrument_nd(mm, rho, sigma)),
        max_abs(pulled - post_probe_observable(mm, rho)),
        max_abs(measured_observable_nd(collapsed) - scale[:, None, None] * np.eye(n)),
    )


def _check_remeasurement(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                      rng, context=context)
    rho = State(random_density(n, rng))
    checked = evaluate(mm, (rho,), ("remeasure",))[1].values()
    unitary_mm, unitaries = _unitary_model(rng, n, dk, context)
    basis = context.basis
    weights = _context_weights(basis, rho.matrix)
    # sum_j tr(W_ij eta W_ij* F_x) with W_ij = U_i U_j
    twice = unitaries[:, None] @ unitaries[None]
    sandwiches = twice @ unitary_mm.probe_state.matrix @ _adjoint(twice)
    diag = np.real(np.einsum("ijab,xba->xi", sandwiches, unitary_mm.meter.effects))
    explicit = (basis * (diag * weights)[:, None, :]) @ basis.conj().T
    return fold_max(*checked, max_abs(explicit - remeasured_effect(unitary_mm, rho)))


def _check_algebra_closure(rng, max_dim) -> float:
    n, dk = _dims(rng, max_dim)
    context = _random_context(rng, n)
    first = ProbeDecomposition(context, tuple(random_hermitian(dk, rng) for _ in range(n)))
    second = ProbeDecomposition(context, tuple(random_hermitian(dk, rng) for _ in range(n)))
    a, d = first.assemble(), second.assemble()
    coeff = complex(rng.standard_normal(), rng.standard_normal())
    defects = [commutator_defect(c, context, dk) for c in (a @ d, a.conj().T, coeff * a + d)]
    product = extract_probes(a @ d, context, dk)
    return fold_max(*defects, max_abs(product.probes - first.probes @ second.probes))


def _check_swap_family(rng, max_dim) -> float:
    n = int(rng.integers(2, max_dim + 1))
    meter = Observable.from_matrices(random_povm(n, int(rng.integers(2, 4)), rng))
    mm = catalog.swap_model(n, meter)
    nd = mm.nd
    defects = [commutator_defect(s, nd.context, n) for s in nd.induced_kraus]
    recovered = extract_probes(nd.induced_kraus[0], nd.context, n)
    rho = State(random_density(n, rng))
    effects = mm.meter.effects
    return fold_max(
        *defects,
        max_abs(catalog.swap_unitaries(n) - recovered.probes),
        max_abs(catalog.swap_product_output(rho) - apply_product(nd, rho, mm.probe_state)),
        max_abs(catalog.swap_instrument_output(rho, effects)
                - DirectOracle(mm).instrument(rho)),
        max_abs(catalog.swap_observable_effect(effects) - measured_observable_nd(mm)),
    )


def _check_fourier_family(rng, max_dim) -> float:
    pairs = ((2, 3), (2, 5), (3, 5), (4, 5))
    n, m = pairs[int(rng.integers(0, len(pairs)))]
    meter = Observable.from_matrices(random_povm(m, int(rng.integers(2, 4)), rng))
    mm = catalog.fourier_model(n, m, meter)
    nd = mm.nd
    unitaries = catalog.fourier_unitaries(n, m)
    recovered = extract_probes(nd.induced_kraus[0], nd.context, m)
    rho = State(random_density(n, rng))
    effects = mm.meter.effects
    diagonal = catalog.fourier_model(n, m)
    average = np.real(np.trace(diagonal.meter.effects, axis1=1, axis2=2)) / m
    return fold_max(
        max_abs(unitaries - recovered.probes),
        max_abs(catalog.fourier_pair_traces(n, m, effects)
                - _pair_traces(unitaries, mm.probe_state.matrix, effects)),
        max_abs(catalog.fourier_observable_effect(n, m, effects) - measured_observable_nd(mm)),
        max_abs(measured_instrument_nd(mm, rho) - DirectOracle(mm).instrument(rho)),
        max_abs(measured_observable_nd(diagonal) - average[:, None, None] * np.eye(n)),
    )


# Each check draws one instance from ``rng`` and returns its worst residual.
_FAMILIES: dict[str, Callable[[np.random.Generator, int], float]] = {
    "algebra-closure": _check_algebra_closure,
    "channel-partial-traces": _check_channel_partial_traces,
    "channel-round-trip": _check_channel_round_trip,
    "classification": _check_classification,
    "conjugation-identity": _check_conjugation,
    "fourier-family": _check_fourier_family,
    "measured-instrument": _check_measured_instrument,
    "post-probe": _check_post_probe,
    "probe-round-trip": _check_probe_round_trip,
    "reduced-trace-closed-forms": _check_reduced_traces,
    "remeasurement": _check_remeasurement,
    "swap-family": _check_swap_family,
    "unitary-specialization": _check_unitary_specialization,
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def _run_family(job: tuple[int, str, int, int]) -> FamilyResult:
    """Run one family; ``job`` is ``(seed, name, trials, max_dim)``.

    The only loop over trials.  An instance that raises ends its family,
    whose result then names the trial (counted from 0) and the exception.
    """
    seed, name, trials, max_dim = job
    check, rng = _FAMILIES[name], _family_rng(seed, name)
    worst = 0.0
    for trial in range(trials):
        try:
            worst = fold_max(worst, float(check(rng, max_dim)))
        except Exception as exc:
            error = f"trial {trial} raised {type(exc).__name__}: {exc}"
            return FamilyResult(name, trials, math.nan, error)
    return FamilyResult(name, trials, worst)


def _worker_count() -> int:
    """Processes to run the families in: one per available CPU, at most one
    per family, and one where ``fork`` is unavailable or the caller is
    itself a daemonic worker, which may not start children."""
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, len(FAMILY_NAMES))


def run_verification(
    seed: int, trials: int, max_dim: int, tol: float
) -> tuple[list[FamilyResult], bool]:
    """Run every family and return results in fixed (name) order.

    With more than one worker the families are handed out one at a time
    to a ``fork`` pool that is joined before this returns.  A family
    whose instance raised fails with the error in its result, and the
    other families still run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    jobs = [(seed, name, trials, max_dim) for name in FAMILY_NAMES]
    workers = _worker_count()
    if workers == 1:
        results = list(map(_run_family, jobs))
    else:
        import multiprocessing

        # fork, not spawn: a spawned worker re-imports numpy (~0.15 s) and
        # loses any run-time patch of the families, such as the mutants'.
        # Leaving the block terminates and joins the workers, also on error.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_family, jobs, chunksize=1)
            pool.close()
            pool.join()
    return results, all(r.passed(tol) for r in results)


def format_summary(
    results: list[FamilyResult], seed: int, trials: int, max_dim: int, tol: float
) -> str:
    """Fixed-order plain-text summary; byte-identical for equal seeds."""
    width = max(len(r.name) for r in results)
    lines = [f"verification seed={seed} trials={trials} max-dim={max_dim} tol={tol!r}"]
    for r in results:
        status = "pass" if r.passed(tol) else "FAIL"
        lines.append(
            f"{r.name.ljust(width)}  trials={r.trials} "
            f"max-residual={r.max_residual!r} {status}"
        )
        if r.error is not None:
            lines.append(f"  {r.error}")
    good = sum(r.passed(tol) for r in results)
    overall = "pass" if good == len(results) else "FAIL"
    lines.append(f"overall {overall} ({good}/{len(results)} families)")
    return "\n".join(lines) + "\n"
