import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nondisturbing.probes

from nondisturbing.linalg import (
    DEFAULT_ATOL,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
    partial_trace,
    random_effect,
    random_hermitian,
    random_povm,
    random_projection,
    random_unitary,
)
from nondisturbing.channels import nd_channel_from_kraus, random_nd_channel
from nondisturbing.objects import Context
from nondisturbing.probes import (
    ProbeDecomposition,
    _atom_cols,
    _atom_rows,
    _certify,
    _context_bound,
    _exact_defect,
    _pair_bounds,
    classify,
    closed_form_partial_traces,
    commutator_defect,
    conjugate,
    extract_probes,
    extract_probes_by_matrix_elements,
    is_c_nondisturbing,
    order_leq_via_probes,
    reduced_trace_flags,
)


def _generic_blocks(dim: int, count: int, seed: int) -> tuple[np.ndarray, ...]:
    return tuple(
        random_hermitian(dim, seed + i) + 1j * random_hermitian(dim, seed + 100 + i)
        for i in range(count)
    )


def _swap_unitary(n: int) -> np.ndarray:
    ctx = Context.standard(n)
    total = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        v = np.eye(n, dtype=complex)
        v[[0, i]] = v[[i, 0]]
        total += kron(ctx.atoms[i], v)
    return total


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def test_measurable_tensor_factor_is_nondisturbing():
    ctx = Context.random(3, 1)
    measurable = sum((i + 1) * ctx.atoms[i] for i in range(3))
    probe_part = random_hermitian(2, 2)
    assert is_c_nondisturbing(kron(measurable, probe_part), ctx, 2)


def test_swap_interaction_is_nondisturbing():
    ctx = Context.standard(3)
    u = _swap_unitary(3)
    assert is_unitary(u, 1e-12)
    assert is_c_nondisturbing(u, ctx, 3)


def test_off_diagonal_base_factor_disturbs():
    ctx = Context.standard(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    defect = commutator_defect(kron(x, np.eye(2)), ctx, 2)
    assert defect > 0.5
    assert not is_c_nondisturbing(kron(x, np.eye(2)), ctx, 2)


# ---------------------------------------------------------------------------
# Extraction and assembly
# ---------------------------------------------------------------------------


def test_extract_identity_gives_identity_blocks():
    ctx = Context.random(3, 3)
    dec = extract_probes(np.eye(6), ctx, 2)
    for b in dec.probes:
        assert max_abs(b - np.eye(2)) < 1e-12


def test_assemble_extract_round_trip_on_random_blocks():
    for seed in range(20):
        ctx = Context.random(3, seed) if seed % 2 else Context.standard(3)
        blocks = _generic_blocks(2, 3, seed * 7)
        dec = ProbeDecomposition(ctx, blocks)
        recovered = extract_probes(dec.assemble(), ctx, 2)
        for original, back in zip(blocks, recovered.probes):
            assert max_abs(original - back) < 1e-12


def test_extract_rejects_disturbing_operator_with_defect():
    ctx = Context.standard(2)
    x = kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="largest commutator norm"):
        extract_probes(x, ctx, 2)


def _identity_with_one_nan() -> np.ndarray:
    a = np.eye(4, dtype=complex)
    a[1, 2] = np.nan
    return a


@pytest.mark.parametrize(
    "a", [np.full((4, 4), np.nan), _identity_with_one_nan()], ids=["all-nan", "identity-one-nan"]
)
def test_non_finite_operator_fails_the_commutator_test(a):
    ctx = Context.standard(2)
    for check in (commutator_defect, is_c_nondisturbing, extract_probes,
                  extract_probes_by_matrix_elements):
        with pytest.raises(ValueError, match="non-finite"):
            check(a, ctx, 2)
    with pytest.raises(ValueError, match="non-finite"):
        nd_channel_from_kraus([a], ctx, 2)


def _huge_off_diagonal() -> np.ndarray:
    a = np.eye(4, dtype=complex)
    a[0, 3] = 1e200j
    return a


# Parts above 1e150 would overflow the commutator test's products.  The
# transposed view is not C-contiguous, as the adjoints that verify passes.
@pytest.mark.parametrize(
    "a", [np.eye(4) * 1e200, _huge_off_diagonal().T], ids=["scaled-identity", "transposed-view"]
)
def test_operator_with_a_huge_part_is_refused_before_any_arithmetic(a):
    ctx = Context.standard(2)
    for check in (commutator_defect, is_c_nondisturbing, extract_probes,
                  extract_probes_by_matrix_elements):
        with pytest.raises(ValueError, match="operator contains a part above 1e150"):
            check(a, ctx, 2)


def test_assemble_is_block_diagonal_in_standard_basis():
    blocks = _generic_blocks(2, 2, 5)
    dec = ProbeDecomposition(Context.standard(2), blocks)
    full = dec.assemble()
    assert max_abs(full[:2, :2] - blocks[0]) == 0.0
    assert max_abs(full[2:, 2:] - blocks[1]) == 0.0
    assert max_abs(full[:2, 2:]) == 0.0
    assert max_abs(full[2:, :2]) == 0.0


def test_assemble_identity_blocks_gives_identity():
    dec = ProbeDecomposition(Context.random(3, 9), (np.eye(2),) * 3)
    assert max_abs(dec.assemble() - np.eye(6)) < 1e-12


def test_matrix_element_extraction_is_basis_independent():
    for seed in range(10):
        ctx = Context.random(3, seed)
        blocks = _generic_blocks(2, 3, seed * 11)
        full = ProbeDecomposition(ctx, blocks).assemble()
        default = extract_probes_by_matrix_elements(full, ctx, 2)
        rotated = extract_probes_by_matrix_elements(
            full, ctx, 2, random_unitary(2, seed + 77)
        )
        reference = extract_probes(full, ctx, 2)
        for a, b, c in zip(default.probes, rotated.probes, reference.probes):
            assert max_abs(a - b) < 1e-10
            assert max_abs(a - c) < 1e-10


@pytest.mark.parametrize("probe_basis, message", [
    (np.ones((2, 2)), "probe basis must be unitary"),
    (np.eye(2) * 2, "probe basis must be unitary"),
    (np.diag([1.0, np.nan]), "probe basis contains non-finite entries"),
    (np.eye(2) * 1e200, "probe basis contains a part above 1e150"),
], ids=["ones", "scaled", "nan", "huge"])
def test_matrix_element_route_refuses_a_non_unitary_probe_basis(probe_basis, message):
    with pytest.raises(ValueError, match=message):
        extract_probes_by_matrix_elements(np.eye(4), Context.standard(2), 2, probe_basis)


def test_matrix_element_route_reads_none_of_the_commutator_test(monkeypatch):
    ctx = Context.random(4, 31)
    a = ProbeDecomposition(ctx, _generic_blocks(3, 4, 31)).assemble()
    probe_basis = random_unitary(3, 32)
    expected = extract_probes_by_matrix_elements(a, ctx, 3, probe_basis).probes

    def forbidden(*args, **kwargs):
        raise AssertionError("the cross-check read the commutator test's code")

    for name in ("_atom_rows", "_atom_cols", "_context_bound", "_certify"):
        monkeypatch.setattr(nondisturbing.probes, name, forbidden)
    again = extract_probes_by_matrix_elements(a, ctx, 3, probe_basis).probes
    assert max_abs(again - expected) == 0.0


def test_matrix_element_route_agrees_with_extract_probes_at_size():
    n = dk = 16
    ctx = Context.random(n, 33)
    rng = np.random.default_rng(33)
    blocks = rng.standard_normal((n, dk, dk)) + 1j * rng.standard_normal((n, dk, dk))
    a = ProbeDecomposition(ctx, blocks).assemble()
    by_elements = extract_probes_by_matrix_elements(a, ctx, dk, random_unitary(dk, 34)).probes
    assert max_abs(by_elements - extract_probes(a, ctx, dk).probes) <= 1e-12
    assert max_abs(by_elements - blocks) <= 1e-12


def test_swap_interaction_blocks_are_the_swap_unitaries():
    ctx = Context.standard(3)
    dec = extract_probes(_swap_unitary(3), ctx, 3)
    for i, b in enumerate(dec.probes):
        v = np.eye(3, dtype=complex)
        v[[0, i]] = v[[i, 0]]
        assert max_abs(b - v) == 0.0


# ---------------------------------------------------------------------------
# Context-basis kernels against the kron-loop reference
# ---------------------------------------------------------------------------


def _kron_commutator_defect(a, ctx: Context, dk: int) -> float:
    """Brute-force reference: ``max_i ||[A, P_i (x) I]||_max`` from dense krons."""
    eye = np.eye(dk)
    worst = 0.0
    for p in ctx.atoms:
        lifted = kron(p, eye)
        worst = max(worst, max_abs(a @ lifted - lifted @ a))
    return worst


def _kron_assemble(ctx: Context, blocks) -> np.ndarray:
    return sum(kron(ctx.atoms[i], b) for i, b in enumerate(blocks))


_SIZES = list(itertools.product((1, 2, 3, 5), repeat=2)) + [(8, 8)]


@pytest.mark.parametrize("n, dk", _SIZES)
@pytest.mark.parametrize("context_kind", ["standard", "random"])
def test_rotated_kernels_match_kron_reference(n, dk, context_kind):
    seed = 10 * n + dk
    ctx = Context.standard(n) if context_kind == "standard" else Context.random(n, seed)
    blocks = _generic_blocks(dk, n, seed)
    nondisturbing = ProbeDecomposition(ctx, blocks).assemble()
    assert max_abs(nondisturbing - _kron_assemble(ctx, blocks)) <= 1e-12
    rng = np.random.default_rng(seed)
    disturbing = rng.standard_normal((n * dk,) * 2) + 1j * rng.standard_normal((n * dk,) * 2)
    for a in (nondisturbing, disturbing):
        assert abs(commutator_defect(a, ctx, dk) - _kron_commutator_defect(a, ctx, dk)) <= 1e-12
        by_elements = extract_probes_by_matrix_elements(a, ctx, dk).probes
        for rotated, reference in zip(_context_bound(a, ctx, dk)[1], by_elements):
            assert max_abs(rotated - reference) <= 1e-12
    assert commutator_defect(nondisturbing, ctx, dk) <= 1e-12
    for back, original in zip(extract_probes(nondisturbing, ctx, dk).probes, blocks):
        assert max_abs(back - original) <= 1e-12
    if n > 1:
        assert commutator_defect(disturbing, ctx, dk) > 0.1
        with pytest.raises(ValueError, match="largest commutator norm"):
            extract_probes(disturbing, ctx, dk)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    dk=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    standard=st.booleans(),
)
def test_assemble_extract_round_trip_property(n, dk, seed, standard):
    ctx = Context.standard(n) if standard else Context.random(n, seed)
    rng = np.random.default_rng(seed)
    blocks = tuple(rng.standard_normal((n, dk, dk)) + 1j * rng.standard_normal((n, dk, dk)))
    full = ProbeDecomposition(ctx, blocks).assemble()
    assert commutator_defect(full, ctx, dk) <= 1e-12
    for back, original in zip(extract_probes(full, ctx, dk).probes, blocks):
        assert max_abs(back - original) <= 1e-12


# ---------------------------------------------------------------------------
# The context-basis bound that decides the commutator test first
# ---------------------------------------------------------------------------


def _test_context(kind: str, n: int, seed: int) -> Context:
    """A standard or random basis, or a random one orthonormal only to about 1e-10 or 9e-10.

    A ``skewed`` basis adds ``3e-11`` times a random matrix; an ``edge``
    basis is ``U (I + c H)`` for a Hermitian ``H``, whose defect
    ``2 c max|H|`` is 9e-10, just inside the ``DEFAULT_ATOL`` that
    ``Context`` accepts.
    """
    if kind == "standard":
        return Context.standard(n)
    basis = random_unitary(n, seed)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "skewed":
        basis = basis + 3e-11 * noise
    elif kind == "edge":
        hermitian = noise + noise.conj().T
        basis = basis @ (np.eye(n) + 4.5e-10 * hermitian / max_abs(hermitian))
    return Context(basis)


def test_skewed_context_is_orthonormal_only_to_about_1e_10():
    basis = _test_context("skewed", 4, 3).basis
    assert 1e-11 < max_abs(basis.conj().T @ basis - np.eye(4)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 6, 16])
def test_edge_context_is_orthonormal_only_to_about_9e_10(n):
    basis = _test_context("edge", n, 5).basis
    assert 8.9e-10 < max_abs(basis.conj().T @ basis - np.eye(n)) < 9.1e-10


_BOUND_KINDS = ["standard", "random", "skewed", "edge"]
_BOUND_SCALES = [0.0, 1e-12, 5e-10, 1e-6, 1.0]


def _noisy_operator(ctx: Context, dk: int, seed: int, scale: float) -> np.ndarray:
    """Random blocks assembled in ``ctx``, plus ``scale`` times dense noise."""
    n = ctx.dim
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n, dk, dk)) + 1j * rng.standard_normal((n, dk, dk))
    noise = rng.standard_normal((n * dk,) * 2) + 1j * rng.standard_normal((n * dk,) * 2)
    return ProbeDecomposition(ctx, blocks).assemble() + scale * noise


def _assert_context_bound_dominates(a: np.ndarray, ctx: Context, dk: int) -> None:
    """The bound covers the exact defect and the kron reference; the residual
    covers the distance to the blocks assembled in exact rank-one atoms."""
    bound, blocks, residual, rows = _context_bound(a, ctx, dk)
    assert bound >= commutator_defect(a, ctx, dk)
    assert bound >= _kron_commutator_defect(a, ctx, dk)
    assert residual >= np.linalg.norm(a - _kron_assemble(ctx, blocks))
    assert (rows == _atom_rows(a, ctx, dk)).all()  # the rows the exact scan reuses
    by_elements = extract_probes_by_matrix_elements(a, ctx, dk).probes
    assert max_abs(blocks - by_elements) <= 1e-12 * max(1.0, max_abs(a))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    dk=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_BOUND_KINDS),
    scale=st.sampled_from(_BOUND_SCALES),
)
def test_commutator_bound_dominates_the_kron_reference(n, dk, seed, kind, scale):
    ctx = _test_context(kind, n, seed)
    _assert_context_bound_dominates(_noisy_operator(ctx, dk, seed, scale), ctx, dk)


@pytest.mark.parametrize("scale", _BOUND_SCALES)
@pytest.mark.parametrize("kind", ["random", "edge"])
def test_commutator_bound_dominates_the_kron_reference_at_size(kind, scale):
    ctx = _test_context(kind, 16, 36)
    _assert_context_bound_dominates(_noisy_operator(ctx, 16, 36, scale), ctx, 16)


@pytest.mark.parametrize("n, dk", [(2, 1), (3, 2), (6, 3)])
def test_commutator_bound_covers_an_operator_block_diagonal_in_an_edge_context(n, dk):
    # A = W^-* D W^-1 rotates to the block-diagonal D, so only the eps terms
    # of the bound see its commutators, which the basis defect makes ~1e-9.
    ctx = _test_context("edge", n, 39)
    rng = np.random.default_rng(39)
    blocks = rng.standard_normal((n, dk, dk)) + 1j * rng.standard_normal((n, dk, dk))
    inverse = np.linalg.inv(kron(ctx.basis, np.eye(dk)))
    a = inverse.conj().T @ _kron_assemble(Context.standard(n), blocks) @ inverse
    defect = commutator_defect(a, ctx, dk)
    assert defect > 1e-11
    assert _context_bound(a, ctx, dk)[0] >= defect


@pytest.mark.parametrize("n, dk", [(1, 3), (3, 2), (5, 5)])
def test_commutator_bound_dominates_where_the_squares_underflow(n, dk):
    # Parts of 1e-170 square to below the smallest subnormal float.
    ctx = _test_context("random", n, 38)
    a = 1e-170 * _noisy_operator(ctx, dk, 38, 1.0)
    bound, blocks, residual, _ = _context_bound(a, ctx, dk)
    assert bound >= commutator_defect(a, ctx, dk) > 0
    # the reference distance, read at a scale where its squares are normal
    assert residual >= 1e-170 * np.linalg.norm(1e170 * a - _kron_assemble(ctx, 1e170 * blocks))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    dk=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_BOUND_KINDS),
    scale=st.sampled_from(_BOUND_SCALES),
)
def test_residual_dominates_the_distance_to_the_assembled_blocks(n, dk, seed, kind, scale):
    ctx = _test_context(kind, n, seed)
    a = _noisy_operator(ctx, dk, seed, scale)
    _, probes, residual = _certify(a, ctx, dk, DEFAULT_ATOL)
    # The reference assembles in exact rank-one atoms, one kron per atom.
    distance = np.linalg.norm(a - _kron_assemble(ctx, probes))
    assert residual >= distance


def test_rejection_scans_on_the_bound_contractions(monkeypatch):
    ctx = Context.random(3, 35)
    a = _shifted_unitary(ctx, 2, 1e-3)
    calls = []
    for name in ("_atom_rows", "_atom_cols"):
        original = getattr(nondisturbing.probes, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(nondisturbing.probes, name, counting)
    defect = _certify(a, ctx, 2, DEFAULT_ATOL).defect
    assert sorted(calls) == ["_atom_cols", "_atom_rows"]
    assert defect == commutator_defect(a, ctx, 2)
    assert len(calls) == 4  # the public scan makes its own contractions


def _shifted_unitary(ctx: Context, dk: int, size: float) -> np.ndarray:
    """A nondisturbing unitary plus ``size`` times the lifted cyclic shift."""
    n = ctx.dim
    unitary = ProbeDecomposition(ctx, np.array([random_unitary(dk, 70 + i) for i in range(n)]))
    shift = np.roll(np.eye(n), 1, axis=0)
    return unitary.assemble() + size * kron(shift, np.eye(dk))


@pytest.mark.parametrize("context_kind", ["standard", "random"])
@pytest.mark.parametrize("size", [0.0, 1e-12, 5e-10, 7e-10, 2e-9, 1e-3])
def test_bound_first_decisions_match_the_exact_defect(size, context_kind):
    ctx = Context.standard(3) if context_kind == "standard" else Context.random(3, 71)
    a = _shifted_unitary(ctx, 2, size)
    defect = commutator_defect(a, ctx, 2)
    accepted = defect <= DEFAULT_ATOL
    if context_kind == "standard":
        assert accepted == (size < DEFAULT_ATOL)
    # an instance within rounding of the tolerance would test nothing
    assert abs(defect - DEFAULT_ATOL) > 1e-11
    bound = _context_bound(a, ctx, 2)[0]
    assert bound >= defect
    if size == 7e-10 or (size == 5e-10 and context_kind == "standard"):
        assert accepted and bound > DEFAULT_ATOL  # the exact scan overrules the bound
    elif size == 5e-10:
        assert accepted and bound <= DEFAULT_ATOL  # the bound accepts by itself
    decided = _certify(a, ctx, 2, DEFAULT_ATOL)[0]
    assert decided == (bound if bound <= DEFAULT_ATOL else defect)
    assert is_c_nondisturbing(a, ctx, 2) == accepted
    assert is_c_nondisturbing(a, ctx, 2, 1e-2) == (defect <= 1e-2)
    messages = []
    for build in (lambda: extract_probes(a, ctx, 2), lambda: nd_channel_from_kraus([a], ctx, 2)):
        try:
            build()
        except ValueError as exc:
            messages.append(str(exc))
        else:
            messages.append("")
    extracted, imported = messages
    # the import may still fail its completeness check, never its commutator test
    assert ("largest commutator norm" in extracted) == (not accepted)
    assert ("kraus operator 0 is disturbing" in imported) == (not accepted)
    if not accepted:
        for message in messages:
            assert f"largest commutator norm {defect:.3e} >" in message


# ---------------------------------------------------------------------------
# The exact scan, pruned by per-probe-pair bounds
# ---------------------------------------------------------------------------


def _moduli(basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Every commutator modulus, ``[i, a, p, b, q]``, computed as the full scan computes it.

    One multiply each side, one subtraction and one modulus per entry, in
    an ``[a, p, b, q]`` layout of its own, not the scan's ``[a, b, k]``.
    """
    return np.array([
        np.abs(cols[i][:, :, None, :] * v.conj()[:, None] - v[:, None, None, None] * rows[i])
        for i, v in enumerate(basis.T)
    ])


def _scan_contractions(a: np.ndarray, ctx: Context, dk: int):
    """``(R, C, B)`` as a rejecting :func:`_certify` hands them to the scan."""
    _, blocks, _, rows = _context_bound(a, ctx, dk)
    return rows, _atom_cols(a, ctx, dk), blocks


def _disturbed(n: int, dk: int, seed: int, kind: str, disturbance: str, scale: float):
    """A context and a nondisturbing operator plus ``scale`` times a disturbance."""
    ctx = _test_context(kind, n, seed)
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n, dk, dk)) + 1j * rng.standard_normal((n, dk, dk))
    total = n * dk
    if disturbance == "dense":
        d = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    elif disturbance == "shift":
        d = kron(np.roll(np.eye(n), 1, axis=0), np.eye(dk))
    else:
        d = np.zeros((total, total))
        # off the base diagonal, so each entry reaches the commutators of two atoms
        row = rng.integers(total, size=2)
        col = (row // dk + rng.integers(1, max(n, 2), size=2)) % n * dk + rng.integers(dk, size=2)
        d[row[0], col[0]] = 1.0
        if disturbance == "tie":                   # a second entry one ulp larger
            d[row[1], col[1]] = np.nextafter(1.0, 2.0)
    return ctx, ProbeDecomposition(ctx, blocks).assemble() + scale * d


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    dk=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["standard", "random", "skewed"]),
    disturbance=st.sampled_from(["dense", "single", "shift", "tie"]),
    scale=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]),
)
def test_pruned_scan_is_the_full_scan_bit_for_bit(n, dk, seed, kind, disturbance, scale):
    ctx, a = _disturbed(n, dk, seed, kind, disturbance, scale)
    rows, cols, blocks = _scan_contractions(a, ctx, dk)
    # _certify prunes no one-atom scan, so at n = 1 the bounds are left out
    bounds = _pair_bounds(ctx, rows, cols, blocks) if n > 1 else None
    pruned = _exact_defect(ctx, (rows, cols), bounds)
    full = commutator_defect(a, ctx, dk)
    reference = _moduli(ctx.basis, _atom_rows(a, ctx, dk), _atom_cols(a, ctx, dk)).max()
    assert pruned.hex() == full.hex() == float(reference).hex()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    dk=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["standard", "random", "skewed"]),
    disturbance=st.sampled_from(["dense", "single", "shift", "tie"]),
    scale=st.sampled_from([0.0, 1e-12, 1e-6, 1.0, 1e-310]),
)
def test_pair_bounds_cover_every_computed_entry(n, dk, seed, kind, disturbance, scale):
    ctx, a = _disturbed(n, dk, seed, kind, disturbance, scale)
    if scale == 1e-310:
        a = a * 1e-310                             # subnormal entries: rounding is absolute
    rows, cols, blocks = _scan_contractions(a, ctx, dk)
    bounds = _pair_bounds(ctx, rows, cols, blocks)
    assert (_moduli(ctx.basis, rows, cols).max(axis=(1, 3)) <= bounds).all()


@pytest.mark.parametrize("kind", ["standard", "random", "skewed"])
def test_pair_bounds_cover_subnormal_entries(kind):
    # Nondisturbing operators near 1e-310: the entries are rounding alone,
    # which is absolute there, so only the smallest normal float covers them.
    for seed in range(60):
        for disturbance in ("dense", "single", "shift", "tie"):
            ctx, a = _disturbed(3, 2, seed, kind, disturbance, 0.0)
            rows, cols, blocks = _scan_contractions(1e-310 * a, ctx, 2)
            bounds = _pair_bounds(ctx, rows, cols, blocks)
            assert (_moduli(ctx.basis, rows, cols).max(axis=(1, 3)) <= bounds).all()


def _tight_contractions(ctx: Context, dk: int, seed: int, size: float, quarter: bool = False):
    """One atom's ``(R, C, B)`` on which the pair bound is tight.

    With ``s = |v|^2``, ``X = C - v B / s`` and ``Y = R - B conj(v) / s``,
    each entry ``C conj(v) - v R = X conj(v) - v Y`` gets its two terms in
    one phase, so its modulus is the exact pair bound up to second order
    and the bound's rounding term, with ``|Re| + |Im|`` for the
    moduli of ``X`` and ``Y``.  That is within ``sqrt(2)`` of ``|X|`` and
    ``|Y|``, and equal to them where they lie on the axes: with
    ``quarter`` the phases are quarter turns, which puts them there when
    ``v = 1``.  The blocks are about ``size``.
    """
    rng = np.random.default_rng(seed)
    v = ctx.basis[0, 0]
    s = float(np.linalg.norm(ctx.basis, axis=0)[0] ** 2)
    if quarter:
        phase = 1j ** rng.integers(4, size=(dk, dk))
    else:
        phase = np.exp(2j * np.pi * rng.random((dk, dk)))
    x, y = rng.random((2, dk, dk))
    blocks = size * (rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk)))
    cols = v * blocks / s + x * phase * v
    rows = blocks * np.conj(v) / s - y * phase * np.conj(v)
    return rows.reshape(1, dk, 1, dk), cols.reshape(1, 1, dk, dk), blocks[None]


@pytest.mark.parametrize("size", [0.0, 1e-8, 1.0, 1e3])
@pytest.mark.parametrize("context_kind", ["standard", "random"])
def test_pair_bounds_cover_entries_where_the_bound_is_tight(context_kind, size):
    # The bound holds for any contraction data, not only for a real operator's.
    for seed in range(40):
        ctx = Context.standard(1) if context_kind == "standard" else Context.random(1, seed)
        rows, cols, blocks = _tight_contractions(ctx, 4, seed, size)
        bounds = _pair_bounds(ctx, rows, cols, blocks)
        moduli = _moduli(ctx.basis, rows, cols).max(axis=(1, 3))
        assert (moduli <= bounds).all()
        # and it is tight, up to the sqrt(2) of |Re| + |Im| off the axes
        assert (bounds <= np.sqrt(2) * moduli * (1 + 1e-12) + 1e-12 * size).all()


@pytest.mark.parametrize("size", [0.0, 1e-8, 1.0, 1e3])
def test_pair_bounds_are_tight_where_the_moduli_lie_on_the_axes(size):
    ctx = Context.standard(1)
    for seed in range(40):
        rows, cols, blocks = _tight_contractions(ctx, 4, seed, size, quarter=True)
        bounds = _pair_bounds(ctx, rows, cols, blocks)
        moduli = _moduli(ctx.basis, rows, cols).max(axis=(1, 3))
        assert (moduli <= bounds).all()
        assert (bounds <= moduli * (1 + 1e-12) + 1e-12 * size).all()


def _count_formed_pairs(monkeypatch) -> list[int]:
    """Record how many probe pairs each call of the scan's kernel forms."""
    formed = []
    original = nondisturbing.probes._largest_entry

    def counting(*args):
        entries = args[4]
        formed.append(entries.size // entries.shape[0] ** 2)
        return original(*args)

    monkeypatch.setattr(nondisturbing.probes, "_largest_entry", counting)
    return formed


@pytest.mark.parametrize("context_kind", ["standard", "random"])
def test_shift_rejection_forms_only_the_pairs_that_can_hold_the_maximum(monkeypatch, context_kind):
    formed = _count_formed_pairs(monkeypatch)
    # n = dk = 8 is 2^15 scan entries, the smallest pruned size; n = dk = 16
    # is the shape of the benchmark's Kraus import
    for n in (8, 16):
        dk = n
        ctx = Context.standard(n) if context_kind == "standard" else Context.random(n, 80)
        a = _shifted_unitary(ctx, dk, 1e-3)
        formed.clear()
        defect = _certify(a, ctx, dk, DEFAULT_ATOL).defect
        # [shift (x) I, P_i (x) I] lives on the dk diagonal pairs of each atom,
        # and the running maximum starts at a pair of the largest bound
        assert 0 < sum(formed) <= n * dk + dk < n * dk * dk
        formed.clear()
        assert defect == commutator_defect(a, ctx, dk)
        assert formed == [dk * dk] * n             # the public scan visits every pair


def _refuse(monkeypatch, name: str):
    def refuse(*args):
        raise AssertionError(f"{name} formed")

    monkeypatch.setattr(nondisturbing.probes, name, refuse)


def test_accepted_operators_form_no_pair_bounds(monkeypatch):
    # nor the column contraction: an accept rotates the rows alone
    ctx = Context.random(8, 81)
    kraus = random_nd_channel(ctx, 8, 2, 81).induced_kraus
    _refuse(monkeypatch, "_pair_bounds")
    _refuse(monkeypatch, "_atom_cols")
    nd_channel_from_kraus(kraus, ctx, 8)
    extract_probes(kraus[0], ctx, 8)
    assert is_c_nondisturbing(kraus[1], ctx, 8)


@pytest.mark.parametrize("n, dk", [(7, 7), (1, 182)])
def test_small_or_one_atom_rejection_scans_whole_without_pair_bounds(monkeypatch, n, dk):
    # n = dk = 7 is 16807 scan entries, below the pruning size; n = 1,
    # dk = 182 is above it, but a one-atom scan is never pruned
    ctx = Context.random(n, 82)
    if n > 1:
        a = _shifted_unitary(ctx, dk, 1e-3)
    else:                                          # only rounding can make it fail
        rng = np.random.default_rng(82)
        a = 1e8 * (rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk)))
    assert _context_bound(a, ctx, dk)[0] > DEFAULT_ATOL
    _refuse(monkeypatch, "_pair_bounds")
    formed = _count_formed_pairs(monkeypatch)
    defect = _certify(a, ctx, dk, DEFAULT_ATOL).defect
    assert formed == [dk * dk] * n                 # every pair of every atom
    assert defect == commutator_defect(a, ctx, dk)


# ---------------------------------------------------------------------------
# Closed-form partial traces
# ---------------------------------------------------------------------------


def test_partial_trace_closed_forms_on_identity_blocks():
    n, dk = 3, 2
    dec = ProbeDecomposition(Context.random(n, 2), (np.eye(dk),) * n)
    over_base, over_probe = closed_form_partial_traces(dec)
    assert max_abs(over_base - n * np.eye(dk)) < 1e-12
    assert max_abs(over_probe - dk * np.eye(n)) < 1e-12


def test_partial_trace_closed_forms_match_direct_partial_trace():
    for seed in range(20):
        ctx = Context.random(2, seed)
        dec = ProbeDecomposition(ctx, _generic_blocks(3, 2, seed * 13))
        full = dec.assemble()
        over_base, over_probe = closed_form_partial_traces(dec)
        assert max_abs(over_base - partial_trace(full, 2, 3, "left")) < 1e-10
        assert max_abs(over_probe - partial_trace(full, 2, 3, "right")) < 1e-10


def test_probe_traced_operator_is_measurable():
    ctx = Context.random(3, 4)
    dec = ProbeDecomposition(ctx, _generic_blocks(2, 3, 17))
    _, over_probe = closed_form_partial_traces(dec)
    for atom in ctx.atoms:
        assert max_abs(over_probe @ atom - atom @ over_probe) < 1e-12
    assert ctx.is_measurable(over_probe, 1e-12)


def test_reduced_trace_flags_use_two_point_projection_test():
    ctx = Context.standard(2)
    half = ProbeDecomposition(ctx, (np.diag([0.5, 0.0]), np.diag([1.0, 0.0])))
    flags = reduced_trace_flags(half)
    assert not flags.projection
    _, traced = closed_form_partial_traces(half)
    assert not is_projection_matrix(traced)

    sharp = ProbeDecomposition(ctx, (np.diag([1.0, 0.0]), np.diag([0.0, 0.0])))
    flags = reduced_trace_flags(sharp)
    assert flags.projection and flags.effect and flags.self_adjoint
    _, traced = closed_form_partial_traces(sharp)
    assert is_projection_matrix(traced)

    unitary_blocks = ProbeDecomposition(
        ctx, (random_unitary(2, 1), random_unitary(2, 2))
    )
    flags = reduced_trace_flags(unitary_blocks)
    _, traced = closed_form_partial_traces(unitary_blocks)
    expected = [abs(np.trace(b)) for b in unitary_blocks.probes]
    assert np.allclose(np.abs(np.diagonal(traced)), expected, atol=1e-12)


def test_reduced_trace_flags_agree_with_direct_predicates():
    from nondisturbing.linalg import is_effect_matrix, is_hermitian, is_unitary

    rng = np.random.default_rng(314)
    for trial in range(50):
        ctx = Context.standard(2)
        kind = trial % 4
        if kind == 0:
            blocks = _generic_blocks(2, 2, trial)
        elif kind == 1:
            blocks = tuple(random_hermitian(2, trial + i) for i in range(2))
        elif kind == 2:
            # block traces on the unit circle
            blocks = tuple(
                np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(2) / 2
                for _ in range(2)
            )
        else:
            blocks = tuple(
                rng.uniform(0, 0.5) * np.eye(2) for _ in range(2)
            )
        dec = ProbeDecomposition(ctx, blocks)
        flags = reduced_trace_flags(dec)
        _, traced = closed_form_partial_traces(dec)
        assert flags.self_adjoint == is_hermitian(traced)
        assert flags.unitary == is_unitary(traced)
        assert flags.effect == is_effect_matrix(traced)
        assert flags.projection == is_projection_matrix(traced)


# ---------------------------------------------------------------------------
# Classification and order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_unitary_blocks_classify_as_unitary(seed):
    ctx = Context.random(2, seed)
    dec = ProbeDecomposition(
        ctx, (random_unitary(3, seed + 1), random_unitary(3, seed + 2))
    )
    flags = classify(dec)
    assert flags.unitary
    assert is_unitary(dec.assemble())


@pytest.mark.parametrize("seed", range(5))
def test_projection_blocks_classify_as_projection(seed):
    ctx = Context.random(2, seed)
    dec = ProbeDecomposition(
        ctx,
        (random_projection(3, 1, seed + 3), random_projection(3, 2, seed + 4)),
    )
    flags = classify(dec)
    assert flags.projection
    full = dec.assemble()
    assert max_abs(full @ full - full) < 1e-12


def test_povm_blocks_classify_as_observable_family():
    ctx = Context.standard(3)
    dec = ProbeDecomposition(ctx, tuple(random_povm(2, 3, 6)))
    flags = classify(dec)
    assert flags.observable_family and flags.effect
    over_base, _ = closed_form_partial_traces(dec)
    assert max_abs(over_base - np.eye(2)) < 1e-12


def test_classification_agrees_with_direct_predicates():
    rng = np.random.default_rng(23)
    for trial in range(50):
        ctx = Context.random(2, trial)
        hermitian = bool(rng.integers(0, 2))
        if hermitian:
            blocks = tuple(random_hermitian(2, trial * 5 + i) for i in range(2))
        else:
            blocks = _generic_blocks(2, 2, trial * 5)
        dec = ProbeDecomposition(ctx, blocks)
        full = dec.assemble()
        flags = classify(dec)
        assert flags.self_adjoint == is_hermitian(full)
        assert flags.unitary == is_unitary(full)
        assert flags.projection == is_projection_matrix(full)


def _blockwise_flags(dec, atol):
    """classify, one block at a time with the single-matrix definitions."""
    eye = np.eye(dec.dim_probe)

    def hermitian(b):
        return max_abs(b - b.conj().T) <= atol

    def effect(b):
        w = np.linalg.eigvalsh(b)
        return hermitian(b) and w[0] >= -atol and w[-1] <= 1 + atol

    effects = all([effect(b) for b in dec.probes])
    return (
        all([hermitian(b) for b in dec.probes]),
        all([max_abs(b @ b.conj().T - eye) <= atol and max_abs(b.conj().T @ b - eye) <= atol
             for b in dec.probes]),
        all([hermitian(b) and max_abs(b @ b - b) <= atol for b in dec.probes]),
        effects,
        effects and max_abs(sum(dec.probes) - eye) <= atol,
    )


def _boundary_blocks(dk: int, seed: int) -> dict[str, np.ndarray]:
    """One block per kind, each on a different side of some flag's tolerance."""
    skew = np.zeros((dk, dk), dtype=complex)
    skew[0, -1] = 3e-9j
    rest = np.full(dk - 1, 0.5)
    return {
        "effect": random_effect(dk, seed),
        "unitary": random_unitary(dk, seed + 1),
        "projection": random_projection(dk, 1, seed + 2),
        "non-hermitian": random_effect(dk, seed + 3) + skew,
        "above-one": np.diag(np.r_[1 + 3e-9, rest]),
        "below-zero": np.diag(np.r_[-3e-9, rest]),
        "non-idempotent": (1 - 3e-9) * random_projection(dk, 1, seed + 4),
        "non-unitary": (1 + 3e-9) * random_unitary(dk, seed + 5),
        "identity": np.eye(dk),
    }


@pytest.mark.parametrize("dk", [1, 2, 3])
def test_classify_matches_the_blockwise_loop(dk):
    rng = np.random.default_rng(70 + dk)
    kinds = _boundary_blocks(dk, 80 + dk)
    names = sorted(kinds)
    seen = set()
    for trial in range(150):
        n = int(rng.integers(1, 4))
        picks = [names[int(k)] for k in rng.integers(0, len(names), size=n)]
        dec = ProbeDecomposition(Context.random(n, trial), [kinds[k] for k in picks])
        for atol in (1e-9, 1e-6):
            flags = classify(dec, atol)
            answer = (flags.self_adjoint, flags.unitary, flags.projection, flags.effect,
                      flags.observable_family)
            assert answer == _blockwise_flags(dec, atol), picks
            seen.add(answer)
    # both answers of every flag occur
    for flag in range(5):
        assert {answer[flag] for answer in seen} == {True, False}


def test_classify_reads_a_sharp_partition_as_an_observable_family():
    dec = ProbeDecomposition(Context.random(2, 3), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert classify(dec).observable_family
    assert _blockwise_flags(dec, 1e-9)[4]


def test_order_via_probes_matches_the_blockwise_loop():
    rng = np.random.default_rng(90)
    outcomes = set()
    for trial in range(100):
        n, dk = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ctx = Context.random(n, trial)
        lower = [random_effect(dk, 1000 * trial + i) for i in range(n)]
        gaps = rng.choice([1.0, 0.0, 3e-10, -3e-10, -3e-9, -1e-3], size=(n, dk))
        upper = [b + np.diag(g) for b, g in zip(lower, gaps)]
        a, d = ProbeDecomposition(ctx, lower), ProbeDecomposition(ctx, upper)
        for atol in (1e-9, 1e-2):
            expected = all([
                float(np.linalg.eigvalsh((c - b + (c - b).conj().T) / 2)[0]) >= -atol
                for b, c in zip(lower, upper)
            ])
            assert order_leq_via_probes(a, d, atol) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_order_via_probes_rejects_a_non_hermitian_block():
    ctx = Context.standard(2)
    ordered = ProbeDecomposition(ctx, [np.eye(2), np.eye(2)])
    skewed = ProbeDecomposition(ctx, [np.zeros((2, 2)), np.array([[0.0, 1e-3], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="not Hermitian"):
        order_leq_via_probes(skewed, ordered)
    with pytest.raises(ValueError, match="not Hermitian"):
        order_leq_via_probes(ordered, skewed)


def test_order_via_probes_trivial_and_constructed():
    ctx = Context.random(2, 31)
    zero = ProbeDecomposition(ctx, (np.zeros((3, 3)),) * 2)
    one = ProbeDecomposition(ctx, (np.eye(3),) * 2)
    assert order_leq_via_probes(zero, one)
    base = tuple(random_effect(3, 40 + i) for i in range(2))
    bumps = tuple(random_effect(3, 50 + i) for i in range(2))
    lower = ProbeDecomposition(ctx, base)
    upper = ProbeDecomposition(ctx, tuple(b + p for b, p in zip(base, bumps)))
    assert order_leq_via_probes(lower, upper)
    assert not order_leq_via_probes(upper, lower)


def test_order_via_probes_agrees_with_assembled_loewner():
    for seed in range(100):
        ctx = Context.random(2, seed)
        a = ProbeDecomposition(ctx, tuple(random_effect(2, seed * 3 + i) for i in range(2)))
        b = ProbeDecomposition(ctx, tuple(random_effect(2, seed * 3 + 7 + i) for i in range(2)))
        assert order_leq_via_probes(a, b) == loewner_leq(a.assemble(), b.assemble())


def test_order_via_probes_rejects_a_dimension_mismatch():
    a = ProbeDecomposition(Context.standard(2), (np.eye(2),) * 2)
    b = ProbeDecomposition(Context.standard(3), (np.eye(2),) * 3)
    c = ProbeDecomposition(Context.standard(2), (np.eye(3),) * 2)
    for left, right, message in [
        (a, b, "base 2, probe 2 vs base 3, probe 2"),
        (b, a, "base 3, probe 2 vs base 2, probe 2"),
        (a, c, "base 2, probe 2 vs base 2, probe 3"),
    ]:
        with pytest.raises(ValueError, match=f"dimension mismatch: {message}"):
            order_leq_via_probes(left, right)


def test_order_via_probes_rejects_context_mismatch():
    a = ProbeDecomposition(Context.random(2, 1), (np.eye(2),) * 2)
    b = ProbeDecomposition(Context.random(2, 2), (np.eye(2),) * 2)
    with pytest.raises(ValueError, match="different contexts"):
        order_leq_via_probes(a, b)


# ---------------------------------------------------------------------------
# Conjugation and adjoints
# ---------------------------------------------------------------------------


def test_conjugate_atom_case():
    ctx = Context.random(3, 8)
    dec = ProbeDecomposition(ctx, _generic_blocks(2, 3, 61))
    for k in range(3):
        out = conjugate(dec, ctx.atoms[k], np.eye(2))
        bk = dec.probes[k]
        assert max_abs(out - kron(ctx.atoms[k], bk @ bk.conj().T)) < 1e-10


def test_conjugate_identity_blocks_leave_products_alone():
    ctx = Context.random(2, 9)
    dec = ProbeDecomposition(ctx, (np.eye(3),) * 2)
    b = random_hermitian(2, 71)
    d = random_hermitian(3, 72)
    assert max_abs(conjugate(dec, b, d) - kron(b, d)) < 1e-10


def test_conjugate_matches_direct_triple_product():
    for seed in range(20):
        ctx = Context.random(2, seed + 200)
        dec = ProbeDecomposition(ctx, _generic_blocks(3, 2, seed * 17))
        full = dec.assemble()
        b = random_hermitian(2, seed + 300)
        d = random_hermitian(3, seed + 400)
        direct = full @ kron(b, d) @ full.conj().T
        assert max_abs(conjugate(dec, b, d) - direct) < 1e-10


def _kron_conjugate(dec: ProbeDecomposition, b, d) -> np.ndarray:
    """Brute-force reference: ``sum_{i,j} (P_i B P_j) (x) (B_i D B_j*)`` from dense krons."""
    atoms = dec.context.atoms
    return sum(
        kron(atoms[i] @ b @ atoms[j], bi @ d @ bj.conj().T)
        for i, bi in enumerate(dec.probes)
        for j, bj in enumerate(dec.probes)
    )


@pytest.mark.parametrize("n, dk", _SIZES)
@pytest.mark.parametrize("context_kind", ["standard", "random"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_conjugate_matches_kron_reference(n, dk, context_kind, hermitian):
    seed = 10 * n + dk
    ctx = Context.standard(n) if context_kind == "standard" else Context.random(n, seed)
    dec = ProbeDecomposition(ctx, _generic_blocks(dk, n, seed))
    rng = np.random.default_rng(seed)
    if hermitian:
        b, d = random_hermitian(n, rng), random_hermitian(dk, rng)
    else:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
    reference = _kron_conjugate(dec, b, d)
    assert max_abs(conjugate(dec, b, d) - reference) <= 1e-12 * max(1.0, max_abs(reference))


def test_conjugate_rejects_bad_factor_shapes():
    dec = ProbeDecomposition(Context.standard(2), (np.eye(3),) * 2)
    with pytest.raises(ValueError, match="base factor"):
        conjugate(dec, np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="probe factor"):
        conjugate(dec, np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# Algebraic closure
# ---------------------------------------------------------------------------


def test_nondisturbing_set_closed_under_algebra():
    rng = np.random.default_rng(99)
    for trial in range(20):
        ctx = Context.random(2, trial + 500)
        first = ProbeDecomposition(ctx, _generic_blocks(3, 2, trial * 23))
        second = ProbeDecomposition(ctx, _generic_blocks(3, 2, trial * 23 + 9))
        a, d = first.assemble(), second.assemble()
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        for candidate in (a @ d, a.conj().T, coeff * a + d):
            assert commutator_defect(candidate, ctx, 3) < 1e-10
        product_blocks = extract_probes(a @ d, ctx, 3).probes
        for composed, b, c in zip(product_blocks, first.probes, second.probes):
            assert max_abs(composed - b @ c) < 1e-10
