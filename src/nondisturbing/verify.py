"""Seeded randomized verification battery covering every closed form.

Each family draws random instances, evaluates a closed form and an
independent oracle path, and records the worst residual seen.  The
measured-instrument, post-probe and remeasurement families run the
scenario checks of :func:`nondisturbing.scenario.evaluate`.  Family
seeds are derived from the base seed and a stable hash of the family
name, so adding a family never perturbs the instances any other family
sees, and a fixed seed reproduces the summary byte for byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    fold_max,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
    partial_trace,
    psd_sqrt,
    random_density,
    random_effect,
    random_hermitian,
    random_povm,
    random_projection,
    random_unitary,
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
    MeasurementModel,
    measured_instrument_direct,
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
    name: str
    trials: int
    max_residual: float

    def passed(self, tol: float) -> bool:
        return self.max_residual <= tol


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


def _check_probe_round_trip(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        decomp = _random_decomposition(rng, max_dim)
        full = decomp.assemble()
        n, dk = decomp.dim_base, decomp.dim_probe
        recovered = extract_probes(full, decomp.context, dk)
        for original, back in zip(decomp.probes, recovered.probes):
            worst = fold_max(worst, max_abs(original - back))
        worst = fold_max(worst, max_abs(recovered.assemble() - full))
        first = extract_probes_by_matrix_elements(
            full, decomp.context, dk, random_unitary(dk, rng)
        )
        second = extract_probes_by_matrix_elements(
            full, decomp.context, dk, random_unitary(dk, rng)
        )
        for a, b, c in zip(first.probes, second.probes, recovered.probes):
            worst = fold_max(worst, max_abs(a - b), max_abs(a - c))
    return worst


def _check_reduced_traces(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        decomp = _random_decomposition(rng, max_dim)
        full = decomp.assemble()
        n, dk = decomp.dim_base, decomp.dim_probe
        over_base, over_probe = closed_form_partial_traces(decomp)
        worst = fold_max(worst, max_abs(over_base - partial_trace(full, n, dk, "left")))
        worst = fold_max(worst, max_abs(over_probe - partial_trace(full, n, dk, "right")))
        for atom in decomp.context.atoms:
            worst = fold_max(worst, max_abs(over_probe @ atom - atom @ over_probe))
    return worst


def _classification_instances(rng, dk: int, flag: str, positive: bool, count: int):
    """Probe tuples that do (or robustly do not) satisfy a structural flag."""
    probes = []
    if flag == "self_adjoint":
        probes = [random_hermitian(dk, rng) for _ in range(count)]
        if not positive:
            probes[int(rng.integers(0, count))] += 0.5j * np.eye(dk)
    elif flag == "unitary":
        probes = [random_unitary(dk, rng) for _ in range(count)]
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
            probes = [0.5 * e for e in random_povm(dk, count, rng)]
    return tuple(probes)


def _direct_flags(full: np.ndarray, n: int, dk: int) -> dict[str, bool]:
    effect = is_effect_matrix(full)
    family = effect and max_abs(
        partial_trace(full, n, dk, "left") - np.eye(dk)
    ) <= 1e-9
    return {
        "self_adjoint": is_hermitian(full),
        "unitary": is_unitary(full),
        "projection": is_projection_matrix(full),
        "effect": effect,
        "observable_family": family,
    }


def _check_classification(rng, trials, max_dim) -> float:
    mismatches = 0
    flags = ("self_adjoint", "unitary", "projection", "effect", "observable_family")
    for _ in range(trials):
        dk = int(rng.integers(2, max_dim + 1))
        n = int(rng.integers(2, max_dim + 1))
        context = _random_context(rng, n)
        flag = flags[int(rng.integers(0, len(flags)))]
        positive = bool(rng.integers(0, 2))
        probes = _classification_instances(rng, dk, flag, positive, n)
        decomp = ProbeDecomposition(context, probes)
        full = decomp.assemble()
        blockwise = classify(decomp)
        direct = _direct_flags(full, n, dk)
        if getattr(blockwise, flag) != direct[flag]:
            mismatches += 1
        if getattr(blockwise, flag) != positive:
            mismatches += 1
        reduced = reduced_trace_flags(decomp)
        traced = partial_trace(full, n, dk, "right")
        if reduced.self_adjoint != is_hermitian(traced):
            mismatches += 1
        if reduced.unitary != is_unitary(traced):
            mismatches += 1
        if reduced.effect != is_effect_matrix(traced):
            mismatches += 1
        if reduced.projection != is_projection_matrix(traced):
            mismatches += 1
        base = tuple(random_effect(dk, rng) for _ in range(n))
        bumps = tuple(random_effect(dk, rng) for _ in range(n))
        lower = ProbeDecomposition(context, base)
        upper = ProbeDecomposition(context, tuple(b + p for b, p in zip(base, bumps)))
        if not order_leq_via_probes(lower, upper):
            mismatches += 1
        if order_leq_via_probes(lower, upper) != loewner_leq(
            lower.assemble(), upper.assemble()
        ):
            mismatches += 1
    return float(mismatches)


def _check_conjugation(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        decomp = _random_decomposition(rng, max_dim)
        full = decomp.assemble()
        n, dk = decomp.dim_base, decomp.dim_probe
        b = random_hermitian(n, rng)
        d = random_hermitian(dk, rng)
        closed = conjugate(decomp, b, d)
        direct = full @ kron(b, d) @ full.conj().T
        worst = fold_max(worst, max_abs(closed - direct))
        k = int(rng.integers(0, n))
        atom_case = conjugate(decomp, decomp.context.atoms[k], np.eye(dk))
        bk = decomp.probes[k]
        expected = kron(decomp.context.atoms[k], bk @ bk.conj().T)
        worst = fold_max(worst, max_abs(atom_case - expected))
    return worst


def _check_channel_round_trip(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        context = _random_context(rng, n)
        nd = random_nd_channel(context, dk, int(rng.integers(1, 4)), rng)
        for s in nd.induced_kraus:
            worst = fold_max(worst, commutator_defect(s, context, dk))
        rebuilt = nd_channel_from_kraus(nd.induced_kraus, context, dk)
        # A round trip keeps the Kraus order, so the tables agree entrywise.
        worst = fold_max(worst, max_abs(rebuilt.table - nd.table))
    return worst


def _check_channel_partial_traces(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        context = _random_context(rng, n)
        nd = random_nd_channel(context, dk, int(rng.integers(1, 4)), rng)
        rho = State(random_density(n, rng))
        eta = State(random_density(dk, rng))
        closed = apply_product(nd, rho, eta)
        direct = nd.as_operation().apply_matrix(kron(rho.matrix, eta.matrix))
        worst = fold_max(worst, max_abs(closed - direct))
        worst = fold_max(worst, abs(float(np.trace(closed).real) - 1.0))
        worst = fold_max(worst, -float(np.linalg.eigvalsh(
            (closed + closed.conj().T) / 2)[0]))
        reduced = reduced_product_outputs(nd, rho, eta)
        worst = fold_max(worst, max_abs(reduced.base - partial_trace(direct, n, dk, "right")))
        worst = fold_max(worst, max_abs(reduced.probe - partial_trace(direct, n, dk, "left")))
        weights = context.weights(rho.matrix)
        worst = fold_max(worst, -float(weights.min()))
        worst = fold_max(worst, abs(float(weights.sum()) - 1.0))
        mixture = sum(
            w * nd.probe_channel(i).apply_matrix(eta.matrix)
            for i, w in enumerate(weights)
        )
        worst = fold_max(worst, max_abs(reduced.probe - mixture))
    return worst


def _check_measured_instrument(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                          rng, context=_random_context(rng, n))
        rho = State(random_density(n, rng))
        worst = fold_max(worst, *evaluate(mm, (rho,), ("instrument", "observable"))[1].values())
    return worst


def _check_post_probe(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                          rng, context=_random_context(rng, n))
        rho = State(random_density(n, rng))
        sigma = State(random_density(dk, rng))
        worst = fold_max(worst, *evaluate(mm, (rho,), ("post_probe",), sigma)[1].values())
    return worst


def _unitary_model(rng, n: int, dk: int, context: Context) -> tuple[MeasurementModel, list[np.ndarray]]:
    unitaries = [random_unitary(dk, rng) for _ in range(n)]
    nd = NDChannel(context, tuple((u,) for u in unitaries))
    eta = State(random_density(dk, rng))
    meter = Observable.from_matrices(random_povm(dk, int(rng.integers(2, 4)), rng))
    return MeasurementModel(n, dk, eta, nd, meter), unitaries


def _check_unitary_specialization(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        context = _random_context(rng, n)
        mm, unitaries = _unitary_model(rng, n, dk, context)
        eta = mm.probe_state.matrix
        rho = State(random_density(n, rng))
        sigma = State(random_density(dk, rng))
        basis = context.basis
        weights = context.weights(rho.matrix)
        measured = measured_observable_nd(mm)
        post = post_probe_observable(mm, rho)
        instrument = measured_instrument_nd(mm, rho)
        probe_instrument = post_probe_instrument_nd(mm, rho, sigma)
        for f, out, probe_out, effect, pulled_effect in zip(
            mm.meter.effects, instrument, probe_instrument, measured, post, strict=True
        ):
            coeff = np.array(
                [
                    [np.trace(unitaries[i] @ eta @ unitaries[j].conj().T @ f)
                     for j in range(n)]
                    for i in range(n)
                ]
            )
            overlaps = basis.conj().T @ rho.matrix @ basis
            explicit = basis @ (coeff * overlaps) @ basis.conj().T
            worst = fold_max(worst, max_abs(explicit - out))
            diag = np.array(
                [np.trace(unitaries[i] @ eta @ unitaries[i].conj().T @ f)
                 for i in range(n)]
            )
            explicit_effect = (basis * diag.real) @ basis.conj().T
            worst = fold_max(worst, max_abs(explicit_effect - effect))
            root = psd_sqrt(f)
            sandwiched = sum(
                weights[i] * root @ unitaries[i] @ sigma.matrix
                @ unitaries[i].conj().T @ root
                for i in range(n)
            )
            worst = fold_max(worst, max_abs(sandwiched - probe_out))
            pulled = sum(
                weights[i] * unitaries[i].conj().T @ f @ unitaries[i]
                for i in range(n)
            )
            worst = fold_max(worst, max_abs(pulled - pulled_effect))
        collapsed = MeasurementModel(
            n, dk, State(np.eye(dk, dtype=complex) / dk), mm.channel, mm.meter
        )
        for f, effect in zip(collapsed.meter.effects, measured_observable_nd(collapsed),
                             strict=True):
            scale = float(np.trace(collapsed.probe_state.matrix @ f).real)
            worst = fold_max(worst, max_abs(effect - scale * np.eye(n)))
    return worst


def _check_remeasurement(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        context = _random_context(rng, n)
        mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                          rng, context=context)
        rho = State(random_density(n, rng))
        worst = fold_max(worst, *evaluate(mm, (rho,), ("remeasure",))[1].values())
        unitary_mm, unitaries = _unitary_model(rng, n, dk, context)
        eta = unitary_mm.probe_state.matrix
        weights = context.weights(rho.matrix)
        basis = context.basis
        closed = remeasured_effect(unitary_mm, rho)
        for f, out in zip(unitary_mm.meter.effects, closed, strict=True):
            diag = np.zeros(n)
            for i in range(n):
                for j in range(n):
                    w = unitaries[i] @ unitaries[j]
                    diag[i] += float(np.trace(w @ eta @ w.conj().T @ f).real)
            explicit = (basis * (diag * weights)) @ basis.conj().T
            worst = fold_max(worst, max_abs(explicit - out))
    return worst


def _check_algebra_closure(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n, dk = _dims(rng, max_dim)
        context = _random_context(rng, n)
        first = ProbeDecomposition(
            context, tuple(random_hermitian(dk, rng) for _ in range(n))
        )
        second = ProbeDecomposition(
            context, tuple(random_hermitian(dk, rng) for _ in range(n))
        )
        a, d = first.assemble(), second.assemble()
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        for candidate in (a @ d, a.conj().T, coeff * a + d):
            worst = fold_max(worst, commutator_defect(candidate, context, dk))
        product = extract_probes(a @ d, context, dk)
        for composed, b, c in zip(product.probes, first.probes, second.probes):
            worst = fold_max(worst, max_abs(composed - b @ c))
    return worst


def _check_swap_family(rng, trials, max_dim) -> float:
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        meter = Observable.from_matrices(random_povm(n, int(rng.integers(2, 4)), rng))
        mm = catalog.swap_model(n, meter)
        nd = mm.nd
        worst = fold_max(worst, *(
            commutator_defect(s, nd.context, n) for s in nd.induced_kraus
        ))
        recovered = extract_probes(nd.induced_kraus[0], nd.context, n)
        for v, b in zip(catalog.swap_unitaries(n), recovered.probes):
            worst = fold_max(worst, max_abs(v - b))
        rho = State(random_density(n, rng))
        worst = fold_max(worst, max_abs(
            catalog.swap_product_output(rho)
            - apply_product(nd, rho, mm.probe_state)
        ))
        for f, out, effect in zip(mm.meter.effects, measured_instrument_direct(mm, rho),
                                  measured_observable_nd(mm), strict=True):
            worst = fold_max(worst, max_abs(catalog.swap_instrument_output(rho, f) - out))
            worst = fold_max(worst, max_abs(catalog.swap_observable_effect(f) - effect))
    return worst


def _check_fourier_family(rng, trials, max_dim) -> float:
    worst = 0.0
    pairs = ((2, 3), (2, 5), (3, 5), (4, 5))
    for _ in range(trials):
        n, m = pairs[int(rng.integers(0, len(pairs)))]
        meter = Observable.from_matrices(random_povm(m, int(rng.integers(2, 4)), rng))
        mm = catalog.fourier_model(n, m, meter)
        nd = mm.nd
        unitaries = catalog.fourier_unitaries(n, m)
        recovered = extract_probes(nd.induced_kraus[0], nd.context, m)
        for v, b in zip(unitaries, recovered.probes):
            worst = fold_max(worst, max_abs(v - b))
        eta = mm.probe_state.matrix
        rho = State(random_density(n, rng))
        measured = measured_observable_nd(mm)
        closed = measured_instrument_nd(mm, rho)
        oracle = measured_instrument_direct(mm, rho)
        for f, out, brute, effect in zip(mm.meter.effects, closed, oracle, measured,
                                         strict=True):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    direct = complex(np.trace(
                        unitaries[j - 1] @ eta @ unitaries[k - 1].conj().T @ f
                    ))
                    worst = fold_max(worst, abs(
                        catalog.fourier_pair_trace(j, k, m, f) - direct
                    ))
            worst = fold_max(worst, max_abs(catalog.fourier_observable_effect(n, m, f) - effect))
            worst = fold_max(worst, max_abs(out - brute))
        diagonal = catalog.fourier_model(n, m)
        for f, effect in zip(diagonal.meter.effects, measured_observable_nd(diagonal),
                             strict=True):
            average = float(np.trace(f).real) / m
            worst = fold_max(worst, max_abs(effect - average * np.eye(n)))
    return worst


_FAMILIES: dict[str, Callable] = {
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


def run_verification(
    seed: int, trials: int, max_dim: int, tol: float
) -> tuple[list[FamilyResult], bool]:
    """Run every family and return results in fixed (name) order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    results = []
    for name in FAMILY_NAMES:
        rng = _family_rng(seed, name)
        residual = _FAMILIES[name](rng, trials, max_dim)
        results.append(FamilyResult(name, trials, float(residual)))
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
    good = sum(r.passed(tol) for r in results)
    overall = "pass" if good == len(results) else "FAIL"
    lines.append(f"overall {overall} ({good}/{len(results)} families)")
    return "\n".join(lines) + "\n"
