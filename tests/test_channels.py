import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondisturbing.linalg import (
    DEFAULT_ATOL,
    completeness_defects,
    is_psd,
    kron,
    max_abs,
    partial_trace,
    random_density,
    random_kraus_channel,
    random_povm,
    random_unitary,
)
from nondisturbing.objects import Context, State
import nondisturbing.channels
import nondisturbing.linalg
import nondisturbing.objects
import nondisturbing.probes
from nondisturbing.probes import ProbeDecomposition, is_c_nondisturbing
from nondisturbing.channels import (
    NDChannel,
    apply_product,
    nd_channel_from_kraus,
    pair_overlap_kernel,
    random_nd_channel,
    reduced_product_outputs,
)


def _unitary_channel(n: int, dk: int, seed: int, context: Context | None = None) -> NDChannel:
    ctx = context if context is not None else Context.standard(n)
    return NDChannel(ctx, tuple((random_unitary(dk, seed + i),) for i in range(n)))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_unitary_rows_build_a_valid_channel():
    nd = _unitary_channel(3, 2, 0)
    assert nd.kraus_count == 1
    op = nd.as_operation()
    assert max_abs(sum(k.conj().T @ k for k in op.kraus) - np.eye(6)) < 1e-12


def test_as_operation_is_built_once_per_channel():
    nd = _unitary_channel(3, 2, 0)
    assert nd.as_operation() is nd.as_operation()


def test_composite_kraus_family_is_held_once():
    nd = random_nd_channel(Context.random(3, 5), 2, 3, 5)
    for k in range(nd.kraus_count):
        assert np.shares_memory(nd.induced_kraus[k], nd.as_operation().kraus[k])


def test_row_completeness_violation_names_the_row():
    ctx = Context.standard(2)
    good = tuple(random_kraus_channel(2, 2, 1))
    bad = tuple(0.5 * k for k in good)
    with pytest.raises(ValueError, match="row 1"):
        NDChannel(ctx, (good, bad))


def test_random_table_channels_are_nondisturbing():
    for seed in range(10):
        ctx = Context.random(2, seed) if seed % 2 else Context.standard(2)
        nd = random_nd_channel(ctx, 3, 2, seed)
        for s in nd.induced_kraus:
            assert is_c_nondisturbing(s, ctx, 3, 1e-10)


def test_ragged_or_empty_tables_are_rejected():
    ctx = Context.standard(2)
    row = tuple(random_kraus_channel(2, 2, 3))
    with pytest.raises(ValueError, match="table entries"):
        NDChannel(ctx, (row, row[:1]))
    with pytest.raises(ValueError, match="table entries"):
        NDChannel(ctx, (row, None))
    with pytest.raises(ValueError, match="one table row per context atom"):
        NDChannel(ctx, (row,))
    for table in (None, 3):
        with pytest.raises(ValueError, match="table entries"):
            NDChannel(ctx, table)


# ---------------------------------------------------------------------------
# Kraus decomposition round trips
# ---------------------------------------------------------------------------


def test_from_kraus_identity_channel():
    ctx = Context.standard(3)
    nd = nd_channel_from_kraus([np.eye(6)], ctx, 2)
    for row in nd.table:
        assert len(row) == 1
        assert max_abs(row[0] - np.eye(2)) < 1e-12


def test_from_kraus_recovers_table_built_channels():
    for seed in range(10):
        ctx = Context.random(3, seed)
        nd = random_nd_channel(ctx, 2, 2, seed)
        rebuilt = nd_channel_from_kraus(nd.induced_kraus, ctx, 2)
        for row, other in zip(nd.table, rebuilt.table):
            for b, c in zip(row, other):
                assert max_abs(b - c) < 1e-12


def _pair_choi_blocks(nd: NDChannel) -> np.ndarray:
    """``C[i, j] = sum_k vec(B_i^k) vec(B_j^k)*``: invariant under Kraus mixing."""
    vecs = nd.table_array.reshape(nd.dim_base, nd.kraus_count, -1)
    return np.einsum("ika,jkb->ijab", vecs, vecs.conj())


def test_from_kraus_handles_kraus_freedom():
    # mixing the Kraus operators by a unitary leaves the channel alone but
    # changes every operator; the rebuilt table must give the same map
    for seed in range(5):
        ctx = Context.random(2, seed + 400)
        nd = random_nd_channel(ctx, 2, 2, seed)
        mix = random_unitary(nd.kraus_count, seed + 401)
        rotated = [
            sum(mix[j, k] * nd.induced_kraus[k] for k in range(nd.kraus_count))
            for j in range(nd.kraus_count)
        ]
        rebuilt = nd_channel_from_kraus(rotated, ctx, 2)
        assert max_abs(_pair_choi_blocks(rebuilt) - _pair_choi_blocks(nd)) < 1e-10
        for r in range(3):
            psi = random_unitary(4, seed * 10 + r + 402)[:, 0]
            rho = np.outer(psi, psi.conj())
            reduced = partial_trace(rho, 2, 2, "right")
            assert np.trace(reduced @ reduced).real < 1 - 1e-3  # entangled
            assert max_abs(
                rebuilt.as_operation().apply_matrix(rho) - nd.as_operation().apply_matrix(rho)
            ) < 1e-10
        different = max(
            max_abs(a - b) for a, b in zip(rotated, nd.induced_kraus)
        )
        assert different > 1e-3  # the rotation really changed the operators
        assert max_abs(rebuilt.table_array - nd.table_array) > 1e-3


def test_from_kraus_rejects_disturbing_member_by_index():
    ctx = Context.standard(2)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
    with pytest.raises(ValueError, match="kraus operator 0 is disturbing"):
        nd_channel_from_kraus([swap], ctx, 2)


def _count_commutator_tests(monkeypatch) -> dict[str, list]:
    """Count the context-basis bound and the exact scan by the operator they test.

    Both are looked up in ``probes`` at call time, so patching them there
    reaches every caller.
    """
    calls = {"bound": [], "scan": []}
    for key, name in (("bound", "_context_bound"), ("scan", "_exact_defect")):
        original = getattr(nondisturbing.probes, name)

        def counting(a, *args, _original=original, _calls=calls[key], **kwargs):
            _calls.append(a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(nondisturbing.probes, name, counting)
    return calls


def test_from_kraus_tests_each_operator_once(monkeypatch):
    ctx = Context.random(3, 12)
    nd = random_nd_channel(ctx, 2, 3, 12)
    calls = _count_commutator_tests(monkeypatch)
    rebuilt = nd_channel_from_kraus(nd.induced_kraus, ctx, 2)
    assert len(calls["bound"]) == nd.kraus_count == 3
    assert calls["scan"] == []  # every bound is within tolerance
    for row, other in zip(nd.table, rebuilt.table):
        for b, c in zip(row, other):
            assert max_abs(b - c) < 1e-12


def test_from_kraus_rejection_after_one_test_per_operator(monkeypatch):
    ctx = Context.random(2, 13)
    kraus = list(random_nd_channel(ctx, 2, 3, 13).induced_kraus)
    kraus[1] = kraus[1] + 1e-3 * kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    calls = _count_commutator_tests(monkeypatch)
    with pytest.raises(ValueError, match="kraus operator 1 is disturbing"):
        nd_channel_from_kraus(kraus, ctx, 2)
    assert len(calls["bound"]) == 2
    # only the failing operator is scanned entry by entry
    assert len(calls["scan"]) == 1 and calls["scan"][0] is calls["bound"][1]


def test_induced_kraus_match_kron_sums():
    for seed in range(5):
        ctx = Context.random(3, seed + 60) if seed % 2 else Context.standard(3)
        nd = random_nd_channel(ctx, 2, 2, seed)
        for k, s in enumerate(nd.induced_kraus):
            reference = sum(kron(ctx.atoms[i], nd.table[i][k]) for i in range(3))
            assert max_abs(s - reference) <= 1e-12
            assert not s.flags.writeable


@pytest.mark.parametrize("kind", ["standard", "random"])
def test_induced_kraus_has_the_bits_of_each_column_assembled_as_a_decomposition(kind):
    for seed in range(6):
        n, dk, count = 1 + seed % 4, 1 + seed % 3, 1 + seed % 2
        ctx = Context.standard(n) if kind == "standard" else Context.random(n, seed + 70)
        nd = random_nd_channel(ctx, dk, count, seed)
        assert np.array_equal(nd.induced_kraus, _assembled(ctx, nd.table))


def test_from_kraus_checks_total_completeness():
    ctx = Context.standard(2)
    half = kron(np.eye(2), np.eye(2)) / 2
    with pytest.raises(ValueError, match="not a channel"):
        nd_channel_from_kraus([half], ctx, 2)


# ---------------------------------------------------------------------------
# Completeness near the tolerance: the table-derived bound may skip the
# composite Gram product only where that product would have accepted.
# ---------------------------------------------------------------------------

# Composite defects on both sides of DEFAULT_ATOL, none within rounding of it.
TARGETS = (0.5e-9, 0.99e-9, 0.999e-9, 1.001e-9, 1.01e-9, 2e-9)


def _near_context(kind: str, n: int, spread: float = 0.0) -> Context:
    """Standard, random, or random columns of squared length ``1 + spread``."""
    if kind == "standard":
        return Context.standard(n)
    basis = random_unitary(n, 90)
    return Context(basis * np.sqrt(1 + spread))


def _assembled(context: Context, table: np.ndarray) -> np.ndarray:
    return np.array([
        ProbeDecomposition(context, table[:, k]).assemble() for k in range(table.shape[1])
    ])


def _scaled_first_member(kraus: np.ndarray, target: float, sign: int) -> np.ndarray:
    """``kraus`` with member 0 scaled by ``1 +- t``, so the defect is near ``target``."""
    first = np.abs(kraus[0].conj().T @ kraus[0]).max()
    t = np.sqrt(1 + target / first) - 1 if sign > 0 else 1 - np.sqrt(1 - target / first)
    out = np.array(kraus)
    out[0] *= 1 + sign * t
    return out


def _gram_sizes(monkeypatch) -> list[int]:
    """The matrix dimension of every completeness Gram product, where it is looked up."""
    sizes = []
    original = nondisturbing.linalg.completeness_defects

    def counting(stack):
        sizes.append(stack.shape[-1])
        return original(stack)

    for module in (nondisturbing.channels, nondisturbing.objects):
        monkeypatch.setattr(module, "completeness_defects", counting)
    return sizes


def _import_outcome(kraus, context: Context, dk: int) -> str:
    try:
        nd_channel_from_kraus(kraus, context, dk)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _gram_first_outcome(kraus, context: Context, dk: int) -> str:
    """The import decided with the composite Gram product before the row check."""
    for k, s in enumerate(kraus):
        defect = nondisturbing.probes.commutator_defect(s, context, dk)
        if defect > DEFAULT_ATOL:
            return f"kraus operator {k} is disturbing for this context " \
                f"(largest commutator norm {defect:.3e} > {DEFAULT_ATOL:.3e})"
    defect = float(completeness_defects(np.asarray(kraus)))
    if defect > DEFAULT_ATOL:
        return f"kraus family is not a channel (defect {defect:.3e})"
    blocks = [nondisturbing.probes.extract_probes(s, context, dk).probes for s in kraus]
    try:
        NDChannel(context, np.stack(blocks, axis=1))
    except ValueError as exc:
        return str(exc)
    return "accepted"


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("target", TARGETS)
def test_from_kraus_near_tolerance_decides_as_the_composite_gram(monkeypatch, kind, sign, target):
    context = _near_context(kind, 3)
    table = random_nd_channel(Context.standard(3), 2, 2, 91).table
    kraus = _scaled_first_member(_assembled(context, table), target, sign)
    defect = float(completeness_defects(kraus))
    assert abs(defect - DEFAULT_ATOL) > 1e-13
    expected = _gram_first_outcome(kraus, context, 2)
    sizes = _gram_sizes(monkeypatch)
    outcome = _import_outcome(kraus, context, 2)
    assert outcome == expected
    if defect > DEFAULT_ATOL:
        assert outcome == f"kraus family is not a channel (defect {defect:.3e})"
    elif kind == "standard":
        # In the standard basis the composite defect is the largest row
        # defect, and the bound certifies it without the composite product.
        assert outcome == "accepted"
        assert 6 not in sizes


@pytest.mark.parametrize("spread", [0.45e-9, 0.499e-9, 0.501e-9, 0.55e-9, 0.9e-9])
def test_near_tolerance_context_decides_as_the_composite_gram(spread):
    # Columns of squared length 1 + spread pass the context's own check; the
    # composite defect of the assembled table is then 2 spread + spread^2.
    context = _near_context("random", 3, spread)
    assert 0.4e-9 < max_abs(context.basis.conj().T @ context.basis - np.eye(3)) <= DEFAULT_ATOL
    nd = NDChannel(context, random_nd_channel(Context.standard(3), 2, 2, 92).table)
    kraus = _assembled(context, nd.table)
    defect = float(completeness_defects(kraus))
    assert abs(defect - DEFAULT_ATOL) > 1e-13
    try:
        nd.as_operation()
    except ValueError as exc:
        assert defect > DEFAULT_ATOL
        assert str(exc) == f"channel completeness violated (defect {defect:.3e})"
    else:
        assert defect <= DEFAULT_ATOL
    # Blocks read back from these members carry (1 + spread)^2, so the rows
    # may fail where the composite passed; the order of the checks decides.
    assert _import_outcome(kraus, context, 2) == _gram_first_outcome(kraus, context, 2)


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("target", [0.5e-9, 0.99e-9, 0.999e-9])
def test_as_operation_near_tolerance_rows_decides_as_the_composite_gram(kind, target):
    # Row 0 scaled to a defect just inside the tolerance: the row check
    # passes, and the composite operation is accepted exactly when its Gram
    # product accepts it.
    context = _near_context(kind, 3)
    table = np.array(random_nd_channel(Context.standard(3), 2, 2, 93).table)
    table[0] = _scaled_first_member(table[0], target, 1)
    nd = NDChannel(context, table)
    defect = float(completeness_defects(_assembled(context, nd.table)))
    assert defect <= DEFAULT_ATOL
    op = nd.as_operation()
    assert np.array_equal(op.kraus, _assembled(context, nd.table))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    dk=st.integers(1, 3),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["standard", "random", "skewed"]),
    scale=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2]),
)
def test_completeness_bound_dominates_the_composite_gram(n, dk, count, seed, kind, scale):
    rng = np.random.default_rng(seed)
    if kind == "standard":
        context = Context.standard(n)
    else:
        basis = random_unitary(n, rng)
        if kind == "skewed":
            basis = basis + 3e-11 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        context = Context(basis)
    table = random_nd_channel(Context.standard(n), dk, count, rng).table
    noise = rng.standard_normal((count, n * dk, n * dk)) + 1j * rng.standard_normal((count, n * dk, n * dk))
    kraus = _assembled(context, table) + scale * noise
    certificates = [nondisturbing.probes._certify(s, context, dk, DEFAULT_ATOL) for s in kraus]
    rows = completeness_defects(np.stack([c.blocks for c in certificates], axis=1))
    bound = nondisturbing.channels._completeness_bound(
        context, dk, float(rows.max()), [c.residual for c in certificates]
    )
    assert bound >= float(completeness_defects(kraus))


def test_good_import_and_operation_run_no_composite_gram(monkeypatch):
    context = Context.random(4, 94)
    kraus = random_nd_channel(context, 3, 2, 94).induced_kraus
    sizes = _gram_sizes(monkeypatch)
    nd = nd_channel_from_kraus(kraus, context, 3)
    nd.as_operation()
    assert sizes and set(sizes) == {3}  # probe-space rows only


def test_row_defects_above_the_bound_fall_back_to_the_composite_gram(monkeypatch):
    context = Context.random(2, 95)
    kraus = _scaled_first_member(random_nd_channel(context, 2, 2, 95).induced_kraus, 2e-9, 1)
    sizes = _gram_sizes(monkeypatch)
    with pytest.raises(ValueError, match="kraus family is not a channel"):
        nd_channel_from_kraus(kraus, context, 2)
    assert 4 in sizes


# ---------------------------------------------------------------------------
# Product-state action
# ---------------------------------------------------------------------------


def test_identity_table_acts_as_identity_on_products():
    ctx = Context.random(2, 41)
    nd = NDChannel(ctx, ((np.eye(3),), (np.eye(3),)))
    rho = State(random_density(2, 42))
    eta = State(random_density(3, 43))
    out = apply_product(nd, rho, eta)
    assert max_abs(out - kron(rho.matrix, eta.matrix)) < 1e-12
    reduced = reduced_product_outputs(nd, rho, eta)
    assert max_abs(reduced.base - rho.matrix) < 1e-12
    assert max_abs(reduced.probe - eta.matrix) < 1e-12


def test_apply_product_matches_direct_kraus_action():
    for seed in range(20):
        ctx = Context.random(2, seed + 60)
        nd = random_nd_channel(ctx, 3, 2, seed)
        rho = State(random_density(2, seed + 70))
        eta = State(random_density(3, seed + 80))
        closed = apply_product(nd, rho, eta)
        direct = nd.as_operation().apply_matrix(kron(rho.matrix, eta.matrix))
        assert max_abs(closed - direct) < 1e-10


def test_apply_product_outputs_states():
    for seed in range(100):
        ctx = Context.standard(2)
        nd = random_nd_channel(ctx, 2, 2, seed)
        rho = State(random_density(2, seed + 1))
        eta = State(random_density(2, seed + 2))
        out = apply_product(nd, rho, eta)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert is_psd((out + out.conj().T) / 2, 1e-9)


def test_measurable_input_splits_into_atom_blocks():
    ctx = Context.random(3, 91)
    nd = random_nd_channel(ctx, 2, 2, 92)
    weights = np.array([0.5, 0.3, 0.2])
    rho = State(sum(w * ctx.atoms[i] for i, w in enumerate(weights)))
    eta = State(random_density(2, 93))
    expected = sum(
        w * kron(ctx.atoms[i], nd.probe_channel(i).apply_matrix(eta.matrix))
        for i, w in enumerate(weights)
    )
    assert max_abs(apply_product(nd, rho, eta) - expected) < 1e-10


# ---------------------------------------------------------------------------
# Per-atom probe channels
# ---------------------------------------------------------------------------


def test_probe_channels_are_channels_on_states():
    nd = random_nd_channel(Context.standard(3), 2, 3, 7)
    eta = State(random_density(2, 8))
    for i in range(3):
        out = nd.probe_channel(i).apply_matrix(eta.matrix)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert is_psd((out + out.conj().T) / 2, 1e-9)
    with pytest.raises(IndexError):
        nd.probe_channel(3)


def test_unitary_rows_conjugate_the_probe():
    nd = _unitary_channel(2, 3, 30)
    eta = State(random_density(3, 31))
    for i in range(2):
        v = nd.table[i][0]
        out = nd.probe_channel(i).apply_matrix(eta.matrix)
        assert max_abs(out - v @ eta.matrix @ v.conj().T) < 1e-12


def test_swap_rows_move_the_first_basis_state():
    n = 3
    rows = []
    for i in range(n):
        v = np.eye(n, dtype=complex)
        v[[0, i]] = v[[i, 0]]
        rows.append((v,))
    nd = NDChannel(Context.standard(n), tuple(rows))
    first = np.zeros((n, n), dtype=complex)
    first[0, 0] = 1.0
    for i in range(n):
        out = nd.probe_channel(i).apply_matrix(first)
        expected = np.zeros((n, n), dtype=complex)
        expected[i, i] = 1.0
        assert max_abs(out - expected) == 0.0


# ---------------------------------------------------------------------------
# Reduced outputs
# ---------------------------------------------------------------------------


def test_reduced_outputs_match_partial_trace_oracle():
    for seed in range(20):
        ctx = Context.random(3, seed + 150)
        nd = random_nd_channel(ctx, 2, 2, seed)
        rho = State(random_density(3, seed + 160))
        eta = State(random_density(2, seed + 170))
        direct = nd.as_operation().apply_matrix(kron(rho.matrix, eta.matrix))
        reduced = reduced_product_outputs(nd, rho, eta)
        assert max_abs(reduced.base - partial_trace(direct, 3, 2, "right")) < 1e-10
        assert max_abs(reduced.probe - partial_trace(direct, 3, 2, "left")) < 1e-10


def test_reduced_probe_output_is_convex_mixture_of_probe_channels():
    ctx = Context.random(3, 201)
    nd = random_nd_channel(ctx, 2, 3, 202)
    rho = State(random_density(3, 203))
    eta = State(random_density(2, 204))
    weights = ctx.weights(rho.matrix)
    assert weights.min() >= -1e-10
    assert abs(weights.sum() - 1.0) < 1e-10
    mixture = sum(
        w * nd.probe_channel(i).apply_matrix(eta.matrix)
        for i, w in enumerate(weights)
    )
    reduced = reduced_product_outputs(nd, rho, eta)
    assert max_abs(reduced.probe - mixture) < 1e-10


def _explicit_kernel(nd: NDChannel, eta: np.ndarray, weight: np.ndarray) -> np.ndarray:
    n = nd.dim_base
    return np.array([[
        sum(np.trace(bi @ eta @ bj.conj().T @ weight) for bi, bj in zip(nd.table[i], nd.table[j]))
        for j in range(n)] for i in range(n)])


def test_stacked_weights_give_one_kernel_per_weight():
    rng = np.random.default_rng(221)
    nd = random_nd_channel(Context.random(3, rng), 2, 3, rng)
    eta = random_density(2, rng)
    effects = np.array(random_povm(2, 4, rng))
    kernels = pair_overlap_kernel(nd, eta, effects)
    assert kernels.shape == (4, 3, 3)
    for f, kernel in zip(effects, kernels):
        assert max_abs(kernel - pair_overlap_kernel(nd, eta, f)) <= 1e-15
        assert max_abs(kernel - _explicit_kernel(nd, eta, f)) < 1e-12
    grid = effects.reshape(2, 2, 2, 2)
    assert max_abs(pair_overlap_kernel(nd, eta, grid) - kernels.reshape(2, 2, 3, 3)) == 0.0


def test_omitted_weight_kernel_is_the_identity_weight_and_gives_the_reduced_base_output():
    ctx = Context.random(3, 231)
    nd = random_nd_channel(ctx, 2, 2, 232)
    rho = State(random_density(3, 233))
    eta = State(random_density(2, 234))
    kernel = pair_overlap_kernel(nd, eta.matrix)
    assert max_abs(kernel - pair_overlap_kernel(nd, eta.matrix, np.eye(2))) <= 1e-15
    assert max_abs(kernel - _explicit_kernel(nd, eta.matrix, np.eye(2))) < 1e-12
    overlaps = ctx.basis.conj().T @ rho.matrix @ ctx.basis
    expected = ctx.basis @ (kernel * overlaps) @ ctx.basis.conj().T
    assert max_abs(reduced_product_outputs(nd, rho, eta).base - expected) == 0.0


def test_atom_input_selects_one_probe_channel():
    ctx = Context.random(2, 211)
    nd = random_nd_channel(ctx, 3, 2, 212)
    eta = State(random_density(3, 213))
    rho = State(ctx.atoms[0])
    reduced = reduced_product_outputs(nd, rho, eta)
    expected = nd.probe_channel(0).apply_matrix(eta.matrix)
    assert max_abs(reduced.probe - expected) < 1e-12
