import numpy as np
import pytest

from nondisturbing.linalg import (
    is_unitary,
    kron,
    max_abs,
    random_density,
    random_povm,
)
from nondisturbing.objects import Observable, State
from nondisturbing.probes import extract_probes, is_c_nondisturbing
from nondisturbing.channels import apply_product
from nondisturbing.models import (
    DirectOracle,
    measured_instrument_nd,
    measured_observable_nd,
)
from nondisturbing.catalog import (
    fourier_model,
    fourier_observable_effect,
    fourier_pair_traces,
    fourier_unitaries,
    swap_instrument_output,
    swap_model,
    swap_observable_effect,
    swap_product_output,
    swap_unitaries,
)


# ---------------------------------------------------------------------------
# Swap family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_swap_unitaries_are_one_stack_of_the_per_member_swaps(n):
    stack = swap_unitaries(n)
    assert isinstance(stack, np.ndarray) and stack.shape == (n, n, n)
    for i in range(n):
        v = np.eye(n, dtype=complex)
        v[[0, i]] = v[[i, 0]]
        assert np.array_equal(stack[i], v)


def test_swap_unitaries_are_involutions():
    for n in (1, 2, 4):
        for v in swap_unitaries(n):
            assert is_unitary(v, 1e-12)
            assert max_abs(v @ v - np.eye(n)) == 0.0


def test_swap_interaction_is_nondisturbing_and_recovers_unitaries():
    for n in (2, 3):
        mm = swap_model(n)
        nd = mm.nd
        u = nd.induced_kraus[0]
        assert is_unitary(u, 1e-12)
        assert is_c_nondisturbing(u, nd.context, n, 1e-12)
        recovered = extract_probes(u, nd.context, n)
        for v, b in zip(swap_unitaries(n), recovered.probes):
            assert max_abs(v - b) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_swap_with_sharp_meter_measures_the_atoms(n):
    mm = swap_model(n)
    obs = measured_observable_nd(mm)
    for i in range(n):
        atom = np.zeros((n, n))
        atom[i, i] = 1.0
        assert max_abs(obs[i] - atom) <= 1e-12
    # cross-check through the brute-force path
    rho = State(random_density(n, 5))
    for i, direct in enumerate(DirectOracle(mm).instrument(rho)):
        assert abs(np.trace(direct).real - rho.matrix[i, i].real) < 1e-12


def test_swap_channel_output_closed_form():
    n = 3
    mm = swap_model(n)
    rho = State(random_density(n, 6))
    closed = swap_product_output(rho)
    library = apply_product(mm.nd, rho, mm.probe_state)
    assert max_abs(closed - library) < 1e-10
    direct = mm.channel.apply_matrix(
        kron(rho.matrix, mm.probe_state.matrix)
    )
    assert max_abs(closed - direct) < 1e-10


def test_swap_instrument_closed_form_matches_both_paths():
    n = 3
    meter = Observable.from_matrices(random_povm(n, 2, 7))
    mm = swap_model(n, meter)
    rho = State(random_density(n, 8))
    instrument = zip(meter.effects, measured_instrument_nd(mm, rho),
                     DirectOracle(mm).instrument(rho), measured_observable_nd(mm),
                     strict=True)
    for f, out, direct, measured in instrument:
        closed = swap_instrument_output(rho, f)
        assert max_abs(closed - out) < 1e-10
        assert max_abs(closed - direct) < 1e-10
        effect = swap_observable_effect(f)
        assert max_abs(effect - measured) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4])
def test_swap_closed_forms_take_a_stack_of_effects(n):
    meter = Observable.from_matrices(random_povm(n, 3, 20 + n))
    mm = swap_model(n, meter)
    rho = State(random_density(n, 21 + n))
    effects = meter.effects
    outputs = swap_instrument_output(rho, effects)
    effect = swap_observable_effect(effects)
    assert outputs.shape == effect.shape == (3, n, n)
    assert max_abs(outputs - DirectOracle(mm).instrument(rho)) < 1e-10
    assert max_abs(effect - measured_observable_nd(mm)) < 1e-10
    for x, f in enumerate(effects):
        assert np.array_equal(swap_instrument_output(rho, f), outputs[x])
        assert np.array_equal(swap_observable_effect(f), effect[x])
        assert np.array_equal(swap_observable_effect(f), np.diag(np.diagonal(f)))
    # any leading batch axes are kept
    batched = np.stack([effects, effects[::-1]])
    assert swap_instrument_output(rho, batched).shape == (2, 3, n, n)
    assert np.array_equal(swap_observable_effect(batched)[1], effect[::-1])


def test_swap_closed_forms_reject_a_wrong_size_effect():
    rho = State(random_density(3, 5))
    with pytest.raises(ValueError, match="3 x 3"):
        swap_instrument_output(rho, np.eye(2))
    with pytest.raises(ValueError, match="3 x 3"):
        swap_instrument_output(rho, np.ones(3))
    with pytest.raises(ValueError, match="square"):
        swap_observable_effect(np.ones((2, 3)))


def test_swap_on_measurable_input_produces_atom_pairs():
    n = 3
    mm = swap_model(n)
    weights = np.array([0.5, 0.2, 0.3])
    rho = State(np.diag(weights).astype(complex))
    out = apply_product(mm.nd, rho, mm.probe_state)
    expected = np.zeros((n * n, n * n), dtype=complex)
    for i, w in enumerate(weights):
        base = np.zeros((n, n))
        base[i, i] = 1.0
        probe = np.zeros((n, n))
        probe[i, i] = 1.0
        expected += w * kron(base, probe)
    assert max_abs(out - expected) < 1e-12


def test_swap_instrument_on_measurable_input_is_diagonal():
    n = 2
    meter = Observable.from_matrices(random_povm(n, 2, 9))
    mm = swap_model(n, meter)
    weights = np.array([0.7, 0.3])
    rho = State(np.diag(weights).astype(complex))
    for f, out in zip(meter.effects, measured_instrument_nd(mm, rho)):
        expected = np.diag([weights[i] * f[i, i].real for i in range(n)])
        assert max_abs(out - expected) < 1e-12


def test_swap_rejects_wrong_meter_dimension():
    from nondisturbing.objects import sharp_observable

    with pytest.raises(ValueError, match="meter dimension"):
        swap_model(3, sharp_observable(2))
    # The size error, not the default meter's.
    with pytest.raises(ValueError, match="n must be >= 1"):
        swap_model(0)
    with pytest.raises(ValueError, match="m must be >= 2"):
        fourier_model(2, 0)


# ---------------------------------------------------------------------------
# Fourier-phase family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (4, 5), (6, 7), (10, 11), (12, 13)])
def test_fourier_unitaries_are_one_stack_of_the_per_member_phases(n, m):
    stack = fourier_unitaries(n, m)
    assert isinstance(stack, np.ndarray) and stack.shape == (n, m, m)
    s = r = np.arange(1, m + 1)
    for j in range(1, n + 1):
        v = np.exp(2j * np.pi * j * np.outer(s, r) / m) / np.sqrt(m)
        assert np.array_equal(stack[j - 1], v)


def test_fourier_unitaries_require_coprime_indices():
    with pytest.raises(ValueError, match="gcd\\(2, 2\\)"):
        fourier_unitaries(2, 2)
    with pytest.raises(ValueError, match="gcd"):
        fourier_model(2, 2)
    with pytest.raises(ValueError, match="gcd\\(2, 6\\)"):
        fourier_unitaries(4, 6)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (2, 5), (4, 5)])
def test_fourier_unitaries_are_unitary(n, m):
    for v in fourier_unitaries(n, m):
        assert is_unitary(v, 1e-12)


def test_fourier_interaction_is_nondisturbing_and_recovers_unitaries():
    mm = fourier_model(2, 5)
    nd = mm.nd
    u = nd.induced_kraus[0]
    assert is_c_nondisturbing(u, nd.context, 5, 1e-12)
    recovered = extract_probes(u, nd.context, 5)
    for v, b in zip(fourier_unitaries(2, 5), recovered.probes):
        assert max_abs(v - b) < 1e-12


def test_fourier_pair_trace_matches_direct_probe_products():
    n, m = 3, 5
    unitaries = fourier_unitaries(n, m)
    eta = np.zeros((m, m), dtype=complex)
    eta[0, 0] = 1.0
    f = random_povm(m, 2, 11)[0]
    pairs = fourier_pair_traces(n, m, f)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            direct = complex(
                np.trace(unitaries[j - 1] @ eta @ unitaries[k - 1].conj().T @ f)
            )
            assert abs(pairs[j - 1, k - 1] - direct) < 1e-10


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 5), (4, 5), (6, 7)])
def test_fourier_pair_traces_equal_the_per_pair_formula(n, m):
    effects = np.array(random_povm(m, 3, 17 + n))
    pairs = fourier_pair_traces(n, m, effects)
    effect = fourier_observable_effect(n, m, effects)
    assert pairs.shape == effect.shape == (3, n, n)
    s = t = np.arange(1, m + 1)
    for x, f in enumerate(effects):
        assert max_abs(fourier_pair_traces(n, m, f) - pairs[x]) < 1e-15
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                phases = np.exp(2j * np.pi * (j * s[None, :] - k * t[:, None]) / m)
                per_pair = np.sum(phases * f) / m
                assert abs(pairs[x, j - 1, k - 1] - per_pair) < 1e-13
                assert effect[x, j - 1, k - 1] == (pairs[x, j - 1, k - 1] if j == k else 0)


def test_fourier_pair_traces_reject_a_wrong_size_effect():
    with pytest.raises(ValueError, match="5 x 5"):
        fourier_pair_traces(2, 5, np.eye(4))
    with pytest.raises(ValueError, match="5 x 5"):
        fourier_observable_effect(2, 5, np.ones(5))


@pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (4, 5)])
def test_fourier_diagonal_meter_collapses_to_average_eigenvalue(n, m):
    mm = fourier_model(n, m)  # sharp meter is diagonal in the probe basis
    for f, effect in zip(mm.meter.effects, measured_observable_nd(mm), strict=True):
        average = np.trace(f).real / m
        assert max_abs(effect - average * np.eye(n)) < 1e-9


def test_fourier_random_meter_matches_oracle_paths():
    n, m = 2, 3
    meter = Observable.from_matrices(random_povm(m, 3, 12))
    mm = fourier_model(n, m, meter)
    rho = State(random_density(n, 13))
    instrument = zip(meter.effects, measured_instrument_nd(mm, rho),
                     DirectOracle(mm).instrument(rho), measured_observable_nd(mm),
                     strict=True)
    for f, closed, direct, measured in instrument:
        assert max_abs(closed - direct) < 1e-9
        effect = fourier_observable_effect(n, m, f)
        assert max_abs(effect - measured) < 1e-9


def test_fourier_one_dimensional_base():
    m = 4
    meter = Observable.from_matrices(random_povm(m, 2, 14))
    mm = fourier_model(1, m, meter)
    v = fourier_unitaries(1, m)[0]
    eta = mm.probe_state.matrix
    for f, effect in zip(meter.effects, measured_observable_nd(mm), strict=True):
        expected = np.trace(v @ eta @ v.conj().T @ f).real
        assert max_abs(effect - expected * np.eye(1)) < 1e-10


def test_fourier_instrument_closed_form_from_pair_traces():
    n, m = 2, 5
    meter = Observable.from_matrices(random_povm(m, 2, 15))
    mm = fourier_model(n, m, meter)
    rho = State(random_density(n, 16))
    for f, out in zip(meter.effects, measured_instrument_nd(mm, rho)):
        expected = fourier_pair_traces(n, m, f) * rho.matrix
        assert max_abs(out - expected) < 1e-9
