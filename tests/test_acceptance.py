"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from math import gcd

import numpy as np

from nondisturbing.linalg import (
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
    kron,
    max_abs,
    partial_trace,
    random_density,
    random_effect,
    random_hermitian,
    random_povm,
    random_projection,
    random_unitary,
)
from nondisturbing.objects import Context, Observable, State
from nondisturbing.probes import (
    ProbeDecomposition,
    classify,
    closed_form_partial_traces,
    commutator_defect,
    conjugate,
    extract_probes,
    extract_probes_by_matrix_elements,
)
from nondisturbing.channels import (
    NDChannel,
    apply_product,
    nd_channel_from_kraus,
    random_nd_channel,
    reduced_product_outputs,
)
from nondisturbing.models import (
    DirectOracle,
    MeasurementModel,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_nd,
    post_probe_observable,
    random_model,
    remeasured_effect,
)
from nondisturbing.catalog import (
    fourier_model,
    fourier_observable_effect,
    fourier_pair_traces,
    fourier_unitaries,
    swap_model,
    swap_product_output,
)
from nondisturbing.verify import format_summary, run_verification


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _generic_blocks(rng, dim, count):
    return tuple(
        random_hermitian(dim, rng) + 1j * random_hermitian(dim, rng)
        for _ in range(count)
    )


def test_criterion_01_probe_round_trip():
    rng = np.random.default_rng(420001)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        dk = int(rng.integers(2, 6))
        ctx = Context.random(n, rng) if trial % 2 else Context.standard(n)
        dec = ProbeDecomposition(ctx, _generic_blocks(rng, dk, n))
        full = dec.assemble()
        recovered = extract_probes(full, ctx, dk)
        worst = max(worst, max_abs(recovered.assemble() - full))
        for a, b in zip(dec.probes, recovered.probes):
            worst = max(worst, max_abs(a - b))
        first = extract_probes_by_matrix_elements(full, ctx, dk, random_unitary(dk, rng))
        second = extract_probes_by_matrix_elements(full, ctx, dk, random_unitary(dk, rng))
        for a, b, c in zip(first.probes, second.probes, recovered.probes):
            worst = max(worst, max_abs(a - b), max_abs(a - c))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 2.0
    _report(1, "probe-round-trip", ok,
            f"max residual {worst:.3e}, runtime {elapsed:.2f}s over 200 operators")


def test_criterion_02_partial_trace_closed_forms():
    rng = np.random.default_rng(420002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        ctx = Context.random(n, rng)
        dec = ProbeDecomposition(ctx, _generic_blocks(rng, dk, n))
        full = dec.assemble()
        over_base, over_probe = closed_form_partial_traces(dec)
        worst = max(worst, max_abs(over_base - partial_trace(full, n, dk, "left")))
        worst = max(worst, max_abs(over_probe - partial_trace(full, n, dk, "right")))
        nd = random_nd_channel(ctx, dk, int(rng.integers(1, 4)), rng)
        rho = State(random_density(n, rng))
        eta = State(random_density(dk, rng))
        direct = nd.apply_matrix(kron(rho.matrix, eta.matrix))
        reduced = reduced_product_outputs(nd, rho, eta)
        worst = max(worst, max_abs(reduced.base - partial_trace(direct, n, dk, "right")))
        worst = max(worst, max_abs(reduced.probe - partial_trace(direct, n, dk, "left")))
    _report(2, "partial-trace-closed-forms", worst < 1e-10,
            f"max residual {worst:.3e} over 100 instances")


def _classification_case(rng, ctx, dk, flag, positive):
    n = ctx.dim
    if flag == "self_adjoint":
        blocks = [random_hermitian(dk, rng) for _ in range(n)]
        if not positive:
            blocks[int(rng.integers(0, n))] += 0.5j * np.eye(dk)
    elif flag == "unitary":
        blocks = [random_unitary(dk, rng) for _ in range(n)]
        if not positive:
            blocks[int(rng.integers(0, n))] *= 1.5
    elif flag == "projection":
        blocks = [random_projection(dk, int(rng.integers(0, dk + 1)), rng)
                  for _ in range(n)]
        if not positive:
            blocks[int(rng.integers(0, n))] = 0.5 * np.eye(dk)
    elif flag == "effect":
        blocks = [random_effect(dk, rng) for _ in range(n)]
        if not positive:
            blocks[int(rng.integers(0, n))] += 1.5 * np.eye(dk)
    else:  # observable_family
        blocks = random_povm(dk, n, rng)
        if not positive:
            blocks = [0.5 * e for e in blocks]
    return ProbeDecomposition(ctx, tuple(blocks))


def test_criterion_03_classification_equivalences():
    rng = np.random.default_rng(420003)
    flags = ("self_adjoint", "unitary", "projection", "effect", "observable_family")
    mismatches = 0
    total = 0
    for flag in flags:
        for positive in (True, False):
            for _ in range(100):
                n = int(rng.integers(2, 4))
                dk = int(rng.integers(2, 4))
                ctx = Context.random(n, rng)
                dec = _classification_case(rng, ctx, dk, flag, positive)
                full = dec.assemble()
                blockwise = getattr(classify(dec), flag)
                if flag == "self_adjoint":
                    direct = is_hermitian(full)
                elif flag == "unitary":
                    direct = is_unitary(full)
                elif flag == "projection":
                    direct = is_projection_matrix(full)
                elif flag == "effect":
                    direct = is_effect_matrix(full)
                else:
                    direct = is_effect_matrix(full) and max_abs(
                        partial_trace(full, n, dk, "left") - np.eye(dk)
                    ) <= 1e-9
                total += 1
                if blockwise != direct or blockwise != positive:
                    mismatches += 1
    _report(3, "classification-equivalences", mismatches == 0,
            f"{mismatches} mismatches over {total} instances")


def test_criterion_04_conjugation_identity():
    rng = np.random.default_rng(420004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        ctx = Context.random(n, rng)
        dec = ProbeDecomposition(ctx, _generic_blocks(rng, dk, n))
        full = dec.assemble()
        b = random_hermitian(n, rng)
        d = random_hermitian(dk, rng)
        worst = max(worst, max_abs(
            conjugate(dec, b, d) - full @ kron(b, d) @ full.conj().T
        ))
        k = int(rng.integers(0, n))
        bk = dec.probes[k]
        worst = max(worst, max_abs(
            conjugate(dec, ctx.atoms[k], np.eye(dk))
            - kron(ctx.atoms[k], bk @ bk.conj().T)
        ))
    _report(4, "conjugation-identity", worst < 1e-10,
            f"max residual {worst:.3e} over 100 instances")


def test_criterion_05_nd_channel_equivalence():
    rng = np.random.default_rng(420005)
    worst_table = 0.0
    worst_commutator = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        ctx = Context.random(n, rng)
        nd = random_nd_channel(ctx, dk, int(rng.integers(1, 4)), rng)
        for s in nd.induced_kraus:
            worst_commutator = max(worst_commutator, commutator_defect(s, ctx, dk))
        rebuilt = nd_channel_from_kraus(nd.induced_kraus, ctx, dk)
        worst_table = max(worst_table, max_abs(rebuilt.table_array - nd.table_array))
    ok = worst_table < 1e-10 and worst_commutator <= 1e-10
    _report(5, "nd-channel-equivalence", ok,
            f"table residual {worst_table:.3e}, "
            f"commutator defect {worst_commutator:.3e}")


def test_criterion_06_measured_instrument_and_observable():
    rng = np.random.default_rng(420006)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                          rng, context=Context.random(n, rng))
        rho = State(random_density(n, rng))
        probabilities = []
        for closed, direct in zip(measured_instrument_nd(mm, rho),
                                  DirectOracle(mm).instrument(rho)):
            worst = max(worst, max_abs(closed - direct))
            probabilities.append(float(np.trace(closed).real))
        worst = max(worst, abs(sum(probabilities) - 1.0))
        worst = max(worst, max(0.0, -min(probabilities)))
        mats = measured_observable_nd(mm)
        worst = max(worst, max_abs(sum(mats) - np.eye(n)))
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                worst = max(worst, max_abs(mats[a] @ mats[b] - mats[b] @ mats[a]))
    _report(6, "measured-instrument-observable", worst < 1e-10,
            f"max residual {worst:.3e} over 100 models")


def test_criterion_07_post_interaction_probe():
    rng = np.random.default_rng(420007)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        unitary_rows = bool(rng.integers(0, 2))
        ctx = Context.random(n, rng)
        if unitary_rows:
            nd = NDChannel(ctx, tuple((random_unitary(dk, rng),) for _ in range(n)))
            mm = MeasurementModel(
                State(random_density(dk, rng)), nd,
                Observable.from_matrices(random_povm(dk, 2, rng)),
            )
        else:
            mm = random_model(n, dk, 2, int(rng.integers(1, 4)), rng, context=ctx)
        rho = State(random_density(n, rng))
        sigma = State(random_density(dk, rng))
        instrument = zip(mm.meter.effects, post_probe_observable(mm, rho),
                         post_probe_instrument_nd(mm, rho, sigma),
                         DirectOracle(mm).post_probe(rho, sigma), strict=True)
        for f, effect, closed, direct in instrument:
            worst = max(worst, max_abs(closed - direct))
            paired = float(np.trace(sigma.matrix @ effect).real)
            worst = max(worst, abs(paired - float(np.trace(closed).real)))
            if unitary_rows:
                weights = mm.nd.context.weights(rho.matrix)
                pulled = sum(
                    weights[i] * mm.nd.table[i][0].conj().T @ f @ mm.nd.table[i][0]
                    for i in range(n)
                )
                worst = max(worst, max_abs(effect - pulled))
    _report(7, "post-interaction-probe", worst < 1e-10,
            f"max residual {worst:.3e} over 100 models")


def test_criterion_08_commuting_probe_state_collapse():
    rng = np.random.default_rng(420008)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        ctx = Context.random(n, rng)
        nd = NDChannel(ctx, tuple((random_unitary(dk, rng),) for _ in range(n)))
        eta = State(np.eye(dk, dtype=complex) / dk)
        meter = Observable.from_matrices(random_povm(dk, int(rng.integers(2, 4)), rng))
        mm = MeasurementModel(eta, nd, meter)
        for f, effect in zip(meter.effects, measured_observable_nd(mm), strict=True):
            scale = float(np.trace(eta.matrix @ f).real)
            worst = max(worst, max_abs(effect - scale * np.eye(n)))
    _report(8, "commuting-probe-state-collapse", worst < 1e-10,
            f"max residual {worst:.3e} over 50 models")


def test_criterion_09_swap_family():
    rng = np.random.default_rng(420009)
    worst_sharp = 0.0
    worst_rest = 0.0
    for n in (2, 3):
        mm = swap_model(n)
        obs = measured_observable_nd(mm)
        for i in range(n):
            atom = np.zeros((n, n))
            atom[i, i] = 1.0
            worst_sharp = max(worst_sharp, max_abs(obs[i] - atom))
        for _ in range(20):
            rho = State(random_density(n, rng))
            worst_rest = max(worst_rest, max_abs(
                swap_product_output(rho) - apply_product(mm.nd, rho, mm.probe_state)
            ))
            weights = rng.dirichlet(np.ones(n))
            measurable = State(np.diag(weights).astype(complex))
            out = apply_product(mm.nd, measurable, mm.probe_state)
            expected = np.zeros((n * n, n * n), dtype=complex)
            for i, w in enumerate(weights):
                block = np.zeros((n, n))
                block[i, i] = 1.0
                expected += w * kron(block, block)
            worst_rest = max(worst_rest, max_abs(out - expected))
            for f, instrument in zip(mm.meter.effects, measured_instrument_nd(mm, measurable)):
                diagonal = np.diag(
                    [weights[i] * f[i, i].real for i in range(n)]
                )
                worst_rest = max(worst_rest, max_abs(instrument - diagonal))
    ok = worst_sharp <= 1e-12 and worst_rest < 1e-10
    _report(9, "swap-family", ok,
            f"sharp observable residual {worst_sharp:.3e}, "
            f"closed-form residual {worst_rest:.3e}")


def test_criterion_10_fourier_family():
    rng = np.random.default_rng(420010)
    worst = 0.0
    for n, m in ((2, 3), (2, 5), (4, 5)):
        diagonal = fourier_model(n, m)
        for f, effect in zip(diagonal.meter.effects, measured_observable_nd(diagonal),
                             strict=True):
            average = float(np.trace(f).real) / m
            worst = max(worst, max_abs(effect - average * np.eye(n)))
        meter = Observable.from_matrices(random_povm(m, 3, rng))
        mm = fourier_model(n, m, meter)
        rho = State(random_density(n, rng))
        unitaries = fourier_unitaries(n, m)
        eta = mm.probe_state.matrix
        instrument = zip(meter.effects, measured_observable_nd(mm),
                         measured_instrument_nd(mm, rho), DirectOracle(mm).instrument(rho),
                         strict=True)
        for f, effect, closed, direct in instrument:
            worst = max(worst, max_abs(closed - direct))
            via_phases = fourier_pair_traces(n, m, f)
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    via_probes = complex(np.trace(
                        unitaries[j - 1] @ eta @ unitaries[k - 1].conj().T @ f
                    ))
                    worst = max(worst, abs(via_phases[j - 1, k - 1] - via_probes))
            worst = max(worst, max_abs(fourier_observable_effect(n, m, f) - effect))
    rejected = False
    try:
        fourier_model(2, 2)
    except ValueError as exc:
        rejected = "gcd" in str(exc)
    ok = worst < 1e-9 and rejected and gcd(2, 2) == 2
    _report(10, "fourier-family", ok,
            f"max residual {worst:.3e}, non-coprime rejection {rejected}")


def test_criterion_11_remeasurement():
    rng = np.random.default_rng(420011)
    worst_two_round = 0.0
    worst_unitary = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 4))
        ctx = Context.random(n, rng)
        mm = random_model(n, dk, int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                          rng, context=ctx)
        rho = State(random_density(n, rng))
        for closed, oracle in zip(remeasured_effect(mm, rho),
                                  DirectOracle(mm).remeasure(rho)):
            worst_two_round = max(worst_two_round, max_abs(closed - oracle))
        nd = NDChannel(ctx, tuple((random_unitary(dk, rng),) for _ in range(n)))
        unitary_mm = MeasurementModel(
            State(random_density(dk, rng)), nd,
            Observable.from_matrices(random_povm(dk, 2, rng)),
        )
        eta = unitary_mm.probe_state.matrix
        weights = ctx.weights(rho.matrix)
        for f, closed in zip(unitary_mm.meter.effects, remeasured_effect(unitary_mm, rho)):
            diag = np.zeros(n)
            for i in range(n):
                for j in range(n):
                    w = nd.table[i][0] @ nd.table[j][0]
                    diag[i] += float(np.trace(w @ eta @ w.conj().T @ f).real)
            explicit = (ctx.basis * (diag * weights)) @ ctx.basis.conj().T
            worst_unitary = max(worst_unitary, max_abs(explicit - closed))
    ok = worst_two_round < 1e-10 and worst_unitary < 1e-10
    _report(11, "remeasurement", ok,
            f"two-round residual {worst_two_round:.3e}, "
            f"unitary-form residual {worst_unitary:.3e}")


def test_criterion_12_determinism_and_runtime():
    started = time.perf_counter()
    first_results, first_ok = run_verification(42, 100, 4, 1e-9)
    first = format_summary(first_results, 42, 100, 4, 1e-9)
    second_results, second_ok = run_verification(42, 100, 4, 1e-9)
    second = format_summary(second_results, 42, 100, 4, 1e-9)
    elapsed = time.perf_counter() - started
    ok = (
        first.encode() == second.encode()
        and first_ok
        and second_ok
        and elapsed < 60.0
    )
    _report(12, "verification-determinism", ok,
            f"byte-identical {first == second}, all families pass {first_ok}, "
            f"two full runs in {elapsed:.1f}s")
