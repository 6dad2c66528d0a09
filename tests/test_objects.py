import dataclasses

import numpy as np
import pytest

from nondisturbing.linalg import (
    max_abs,
    random_density,
    random_effect,
    random_kraus_channel,
    random_povm,
    random_projection,
    random_unitary,
)
from nondisturbing.objects import (
    Context,
    Effect,
    KrausOperation,
    Observable,
    State,
    probability,
    sharp_observable,
)


# ---------------------------------------------------------------------------
# Construction-time validation
# ---------------------------------------------------------------------------


def test_effect_rejects_out_of_range_spectrum():
    with pytest.raises(ValueError, match="spectrum"):
        Effect(1.5 * np.eye(2))
    with pytest.raises(ValueError, match="spectrum"):
        Effect(np.diag([-0.2, 0.5]))
    with pytest.raises(ValueError, match="Hermitian"):
        Effect(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_enforces_unit_trace_and_psd():
    State(np.eye(2) / 2)
    with pytest.raises(ValueError, match="trace"):
        State(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        State(np.diag([1.5, -0.5]))


def test_observable_completeness_and_unique_labels():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="sum to the identity"):
        Observable.from_matrices([eye / 2, eye / 4])
    with pytest.raises(ValueError, match="unique"):
        Observable(
            (("a", Effect(eye / 2)), ("a", Effect(eye / 2)))
        )
    obs = Observable.from_matrices([eye / 2, eye / 2], ["up", "down"])
    assert obs.labels == ("up", "down")


def test_kraus_operation_rejects_incomplete_family():
    with pytest.raises(ValueError, match="completeness"):
        KrausOperation((np.eye(2) / 2,))
    with pytest.raises(ValueError, match="completeness"):
        KrausOperation((1.5 * np.eye(2),))
    op = KrausOperation(tuple(random_kraus_channel(3, 2, 1)))
    assert max_abs(sum(k.conj().T @ k for k in op.kraus) - np.eye(3)) < 1e-12


def test_kraus_operation_has_no_channel_option():
    assert [f.name for f in dataclasses.fields(KrausOperation)] == ["kraus"]


def test_context_requires_orthonormal_basis():
    Context.standard(3)
    Context.random(3, 5)
    with pytest.raises(ValueError, match="orthonormal"):
        Context(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_context_atoms_sum_to_identity_and_dephase():
    ctx = Context.random(3, 6)
    assert max_abs(sum(ctx.atoms) - np.eye(3)) < 1e-12
    rho = random_density(3, 7)
    dephased = ctx.dephase(rho)
    assert ctx.is_measurable(dephased)
    assert abs(np.trace(dephased).real - 1.0) < 1e-12
    assert max_abs(ctx.dephase(dephased) - dephased) < 1e-12


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def test_probability_trivial_cases():
    rho = State(random_density(3, 1))
    assert probability(rho, Effect(np.eye(3))) == pytest.approx(1.0, abs=1e-12)
    assert probability(rho, Effect(np.zeros((3, 3)))) == pytest.approx(0.0, abs=1e-12)
    atom = random_projection(3, 1, 2)
    assert probability(State(atom), Effect(atom)) == pytest.approx(1.0, abs=1e-12)


def test_probability_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        probability(State(np.eye(2) / 2), Effect(np.eye(3)))


def test_event_probabilities_are_additive_and_total_one():
    obs = Observable.from_matrices(random_povm(3, 4, 8))
    rho = State(random_density(3, 9))
    total = sum(probability(rho, effect) for _, effect in obs.outcomes)
    assert total == pytest.approx(1.0, abs=4e-9)


# ---------------------------------------------------------------------------
# Channels and duals
# ---------------------------------------------------------------------------


def test_apply_matrix_identity_channel():
    rho = random_density(3, 11)
    ident = KrausOperation((np.eye(3),))
    out = ident.apply_matrix(rho)
    assert max_abs(out - rho) < 1e-12


def test_apply_matrix_unitary_channel_preserves_spectrum():
    rho = random_density(3, 12)
    u = random_unitary(3, 13)
    out = KrausOperation((u,)).apply_matrix(rho)
    before = np.linalg.eigvalsh(rho)
    after = np.linalg.eigvalsh(out)
    assert np.allclose(before, after, atol=1e-12)


def test_dual_matrix_unitality_and_unitary_case():
    op = KrausOperation(tuple(random_kraus_channel(3, 3, 16)))
    image = op.dual_matrix(np.eye(3))
    assert max_abs(image - np.eye(3)) < 1e-10
    u = random_unitary(3, 17)
    a = random_effect(3, 18)
    pulled = KrausOperation((u,)).dual_matrix(a)
    assert max_abs(pulled - u.conj().T @ a @ u) < 1e-12


def test_dual_matrix_trace_pairing_and_positivity():
    op = KrausOperation(tuple(random_kraus_channel(3, 2, 19)))
    for seed in range(20):
        sigma = State(random_density(3, seed))
        a = Effect(random_effect(3, seed + 500))
        lhs = np.trace(op.apply_matrix(sigma.matrix) @ a.matrix).real
        rhs = np.trace(sigma.matrix @ op.dual_matrix(a.matrix)).real
        assert abs(lhs - rhs) < 1e-10
        assert np.linalg.eigvalsh(op.dual_matrix(a.matrix))[0] >= -1e-9


def test_dual_matrix_action_is_linear():
    op = KrausOperation(tuple(random_kraus_channel(3, 2, 25)))
    a = random_effect(3, 26)
    b = random_effect(3, 27)
    combined = op.dual_matrix(0.25 * a + 0.5 * b)
    separate = 0.25 * op.dual_matrix(a) + 0.5 * op.dual_matrix(b)
    assert max_abs(combined - separate) < 1e-12


def test_probability_clamps_tolerated_overshoot():
    rho = State(np.diag([1.0, 0.0]).astype(complex))
    slightly_over = Effect(np.diag([1.0 + 5e-10, 0.0]))
    assert probability(rho, slightly_over) == 1.0
    slightly_under = Effect(np.diag([-5e-10, 1.0]))
    assert probability(rho, slightly_under) == 0.0


def test_sharp_observable_is_projective_and_complete():
    obs = sharp_observable(3)
    assert obs.labels == ("0", "1", "2")
    for i in range(3):
        m = obs.effect_matrix(str(i))
        assert max_abs(m @ m - m) == 0.0
    assert max_abs(sum(obs.effect_matrix(x) for x in obs.labels) - np.eye(3)) == 0.0

