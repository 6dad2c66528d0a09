import dataclasses

import numpy as np
import pytest

from nondisturbing.channels import NDChannel, nd_channel_from_kraus
from nondisturbing.linalg import (
    max_abs,
    random_density,
    random_kraus_channel,
    random_povm,
    random_projection,
    random_unitary,
)
from nondisturbing.objects import (
    Context,
    KrausOperation,
    Observable,
    State,
    sharp_observable,
)
from nondisturbing.probes import ProbeDecomposition


# ---------------------------------------------------------------------------
# Construction-time validation
# ---------------------------------------------------------------------------


def test_effect_rejects_out_of_range_spectrum():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="spectrum"):
        Observable.from_matrices([1.5 * eye, -0.5 * eye])
    with pytest.raises(ValueError, match="spectrum"):
        Observable.from_matrices([np.diag([-0.2, 0.5]), np.diag([1.2, 0.5])])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        Observable.from_matrices([skew, eye - skew])


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
        Observable.from_matrices([eye / 2, eye / 2], ["a", "a"])
    obs = Observable.from_matrices([eye / 2, eye / 2], ["up", "down"])
    assert obs.labels == ("up", "down")


def test_observable_rejects_mixed_dimensions_empty_input_and_label_count():
    with pytest.raises(ValueError, match="share one dimension"):
        Observable.from_matrices([np.eye(2) / 2, np.eye(3) / 2])
    with pytest.raises(ValueError, match="at least one outcome"):
        Observable.from_matrices([])
    with pytest.raises(ValueError, match="one effect per outcome label"):
        Observable(("a", "b"), [np.eye(2)])


# Every operator family goes through one shape check.  Each builder below
# takes a family of two 2 x 2 matrices (a 2 x 2 table for the channel); each
# malformed family replaces it.
_BUILDERS = {
    "Observable": lambda family: Observable(("a", "b"), family),
    "KrausOperation": KrausOperation,
    "ProbeDecomposition": lambda family: ProbeDecomposition(Context.standard(2), family),
    "NDChannel": lambda family: NDChannel(Context.standard(2), [family, family]),
    "nd_channel_from_kraus": lambda family: nd_channel_from_kraus(
        family, Context.standard(1), 2
    ),
}

_MALFORMED = {
    "ragged": ([np.eye(2), np.eye(3)], "share one dimension"),
    "non-square": ([np.ones((2, 3)), np.ones((2, 3))], "square"),
    "wrong-axes": (np.eye(2), "axes"),
    "none-entry": ([np.eye(2), None], "share one dimension"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("builder", sorted(_BUILDERS))
def test_malformed_families_raise_value_error(builder, case):
    family, message = _MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        _BUILDERS[builder](family)


@pytest.mark.parametrize("builder, name", [
    (lambda empty: State(empty), "state"),
    (lambda empty: Context(empty), "context basis"),
    (lambda empty: Observable(("0",), [empty]), "effects"),
    (lambda empty: KrausOperation([empty]), "Kraus operators"),
    (lambda empty: NDChannel(Context.standard(1), [[empty]]), "table entries"),
], ids=["State", "Context", "Observable", "KrausOperation", "NDChannel"])
def test_zero_dimensional_matrices_are_rejected_by_name(builder, name):
    with pytest.raises(ValueError, match=f"^{name} must have a dimension of at least 1"):
        builder(np.zeros((0, 0)))


def test_observable_accepts_zero_effect_and_single_outcome():
    rho = random_density(3, 1)
    single = Observable.from_matrices([np.eye(3)])
    assert single.labels == ("0",)
    assert single.effects.shape == (1, 3, 3)
    with_zero = Observable.from_matrices([np.zeros((3, 3)), np.eye(3)], ["never", "always"])
    assert max_abs(with_zero.effects[0]) == 0.0
    probabilities = np.trace(rho @ with_zero.effects, axis1=1, axis2=2).real
    assert probabilities == pytest.approx([0.0, 1.0], abs=1e-12)
    atom = random_projection(3, 1, 2)
    sharp = Observable.from_matrices([atom, np.eye(3) - atom])
    assert np.trace(atom @ sharp.effects[0]).real == pytest.approx(1.0, abs=1e-12)


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
    dephased = sum(p @ rho @ p for p in ctx.atoms)
    assert ctx.is_measurable(dephased)
    assert abs(np.trace(dephased).real - 1.0) < 1e-12
    assert max_abs(sum(p @ dephased @ p for p in ctx.atoms) - dephased) < 1e-12


# ---------------------------------------------------------------------------
# Outcome probabilities tr(rho E_x)
# ---------------------------------------------------------------------------


def test_event_probabilities_are_additive_and_total_one():
    obs = Observable.from_matrices(random_povm(3, 4, 8))
    rho = State(random_density(3, 9))
    total = sum(np.trace(rho.matrix @ effect).real for effect in obs.effects)
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


def test_sharp_observable_is_projective_and_complete():
    obs = sharp_observable(3)
    assert obs.labels == ("0", "1", "2")
    for m in obs.effects:
        assert max_abs(m @ m - m) == 0.0
    assert max_abs(sum(obs.effects) - np.eye(3)) == 0.0

