import numpy as np
import pytest

from nondisturbing.linalg import (
    as_complex_stack,
    completeness_defects,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_psd,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
    partial_trace,
    psd_sqrt,
    random_density,
    random_effect,
    random_hermitian,
    random_kraus_channel,
    random_povm,
    random_projection,
    random_unitaries,
    random_unitary,
)
from nondisturbing.channels import NDChannel, random_nd_channel
from nondisturbing.objects import Context, KrausOperation, Observable, State

# The bound that the random generators' identities, such as completeness,
# meet by construction; much tighter than the validators' DEFAULT_ATOL.
CONSTRUCTION_ATOL = 1e-12


def test_kron_identity_cases():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    out = kron(np.diag([1.0, 0.0]), np.eye(2))
    assert np.array_equal(out, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_kron_matches_numpy_kron_and_takes_only_matrices():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    assert np.array_equal(kron(a, b), np.kron(a, b))
    for left, right in ((np.ones(2), np.eye(2)), (np.eye(2), np.ones((2, 2, 2)))):
        with pytest.raises(ValueError, match="two matrices"):
            kron(left, right)


def test_kron_mixed_product_against_direct_multiplication():
    rng = np.random.default_rng(101)
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert max_abs(left - right) < CONSTRUCTION_ATOL


def test_kron_associativity():
    rng = np.random.default_rng(102)
    for _ in range(20):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < CONSTRUCTION_ATOL


def test_partial_trace_of_kron_factors():
    rng = np.random.default_rng(103)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = kron(a, b)
        assert max_abs(partial_trace(m, 3, 2, "right") - np.trace(b) * a) < CONSTRUCTION_ATOL
        assert max_abs(partial_trace(m, 3, 2, "left") - np.trace(a) * b) < CONSTRUCTION_ATOL


def test_partial_trace_identity_and_trace_consistency():
    assert np.allclose(partial_trace(np.eye(6), 3, 2, "right"), 2 * np.eye(3))
    rng = np.random.default_rng(104)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    reduced = partial_trace(m, 2, 3, "right")
    assert abs(np.trace(reduced) - np.trace(m)) < CONSTRUCTION_ATOL
    assert abs(np.trace(partial_trace(m, 2, 3, "left")) - np.trace(m)) < CONSTRUCTION_ATOL


def test_partial_trace_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="does not factor"):
        partial_trace(np.eye(5), 2, 3, "right")
    with pytest.raises(ValueError, match="left.*right|'left' or 'right'"):
        partial_trace(np.eye(6), 2, 3, "middle")


def test_as_complex_stack_copies_into_a_read_only_array():
    source = [np.eye(2), np.zeros((2, 2))]
    stack = as_complex_stack(source, "family", 3)
    assert stack.shape == (2, 2, 2) and stack.dtype == complex
    assert not stack.flags.writeable
    source[0][0, 0] = 5.0
    assert stack[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="family contains non-finite"):
        as_complex_stack([[np.nan]], "family", 2)


def test_completeness_defects_per_leading_index():
    good = random_kraus_channel(3, 2, 4)
    table = np.array([good, [np.eye(3) / 2, np.eye(3) / 2]])
    defects = completeness_defects(table)
    assert defects.shape == (2,)
    assert defects[0] < CONSTRUCTION_ATOL
    assert defects[1] == pytest.approx(0.5)
    assert float(completeness_defects(np.array(good))) == pytest.approx(defects[0], abs=1e-15)


# Larger parts could overflow the validators' products; parts up to 1e150
# keep every validation finite, so it decides without a NumPy warning.
def test_entries_with_a_part_above_1e150_are_refused_before_any_arithmetic():
    with pytest.raises(ValueError, match="family contains a part above 1e150"):
        as_complex_stack([[1e151j]], "family", 2)
    huge = np.full((2, 2, 3, 3), 1e300 * (1 - 1j))
    builders = {
        "Kraus operators": lambda: KrausOperation(huge[0]),
        "table entries": lambda: NDChannel(Context.standard(2), huge),
        "context basis": lambda: Context(huge[0, 0]),
        "state": lambda: State(huge[0, 0]),
        "effects": lambda: Observable(("0", "1"), huge[0]),
    }
    for name, build in builders.items():
        with pytest.raises(ValueError, match=f"{name} contains a part above 1e150"):
            build()
    with pytest.raises(ValueError, match="completeness violated"):
        KrausOperation(np.full((2, 3, 3), 1e150 * (1 + 1j)))


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_rejects_non_finite_entries_and_huge_parts():
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        psd_sqrt(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        psd_sqrt(np.stack([np.eye(2), np.diag([1.0, np.inf])]))
    with pytest.raises(ValueError, match="matrix contains a part above 1e150"):
        psd_sqrt(np.eye(2) * 1e200)


def test_psd_sqrt_trivial_cases():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back_to_random_effects():
    for seed in range(30):
        f = random_effect(4, seed)
        r = psd_sqrt(f)
        assert is_psd(r, 1e-12)
        assert max_abs(r @ r - f) < 1e-9


def test_psd_sqrt_clamps_tiny_negatives_but_rejects_real_ones():
    nearly = np.diag([1.0, -1e-12])
    r = psd_sqrt(nearly)
    assert is_psd(r, 0.0)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_sqrt(np.diag([1.0, -1e-3]))


def _effect_stack(seed: int) -> np.ndarray:
    return np.array([random_effect(3, seed + x) for x in range(4)])


def test_psd_sqrt_of_a_stack_is_the_root_of_each_member():
    for seed in range(0, 40, 4):
        stack = _effect_stack(seed)
        roots = psd_sqrt(stack)
        assert roots.shape == stack.shape
        for x, f in enumerate(stack):
            assert np.array_equal(roots[x], psd_sqrt(f))


def test_psd_sqrt_of_a_stack_rejects_one_bad_member():
    stack = _effect_stack(50)
    skewed = stack.copy()
    skewed[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(skewed)
    negative = stack.copy()
    negative[1] = np.diag([1.0, 0.5, -1e-3])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_sqrt(negative)
    with pytest.raises(ValueError, match="square"):
        psd_sqrt(stack[:, :2])


def test_loewner_basic_order():
    assert loewner_leq(np.zeros((3, 3)), np.eye(3))
    proj = random_projection(3, 1, 0)
    assert not loewner_leq(np.eye(3), proj)


def test_loewner_antisymmetry_on_random_pairs():
    for seed in range(20):
        a = random_effect(3, seed)
        bump = 1e-12 * random_effect(3, seed + 1000)
        b = a + bump
        if loewner_leq(a, b) and loewner_leq(b, a):
            assert max_abs(a - b) <= 3 * 1e-9


def test_loewner_reflexive_and_transitive_on_psd_chains():
    for seed in range(20):
        a = random_effect(3, seed)
        p = random_effect(3, seed + 100)
        q = random_effect(3, seed + 200)
        assert loewner_leq(a, a)
        assert loewner_leq(a, a + p)
        assert loewner_leq(a + p, a + p + q)
        assert loewner_leq(a, a + p + q)


def test_loewner_rejects_non_hermitian_and_mismatched():
    with pytest.raises(ValueError, match="not Hermitian"):
        loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        loewner_leq(np.eye(2), np.eye(3))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_random_unitary_is_unitary(dim):
    u = random_unitary(dim, 7)
    assert is_unitary(u, 1e-12)


@pytest.mark.parametrize("dim", [2, 4])
def test_random_density_is_a_state(dim):
    rho = random_density(dim, 8)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert is_psd(rho, 1e-12)


def test_random_effect_spectrum():
    f = random_effect(4, 9)
    w = np.linalg.eigvalsh(f)
    assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12


@pytest.mark.parametrize("count", [1, 3])
def test_random_povm_completeness(count):
    povm = random_povm(3, count, 10)
    assert max_abs(sum(povm) - np.eye(3)) < 1e-12
    for e in povm:
        assert is_psd(e, 1e-12)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_random_kraus_channel_completeness(count):
    kraus = random_kraus_channel(3, count, 11)
    total = sum(k.conj().T @ k for k in kraus)
    assert max_abs(total - np.eye(3)) < 1e-12


@pytest.mark.parametrize("generate", [random_povm, random_kraus_channel])
def test_family_generators_return_one_stack(generate):
    family = generate(3, 4, 12)
    assert isinstance(family, np.ndarray) and family.shape == (4, 3, 3)


def test_generator_completeness_holds_for_ill_conditioned_draws():
    # Some seeds draw nearly singular Gaussians; normalising through an
    # inverse square root then misses completeness by ~1e-10.
    for seed in range(300):
        for dim in range(1, 5):
            for count in range(1, 4):
                kraus = random_kraus_channel(dim, count, seed)
                total = sum(k.conj().T @ k for k in kraus)
                assert max_abs(total - np.eye(dim)) < CONSTRUCTION_ATOL
                povm = random_povm(dim, count, seed)
                assert max_abs(sum(povm) - np.eye(dim)) < CONSTRUCTION_ATOL


def test_generators_are_bit_identical_for_equal_seeds():
    assert np.array_equal(random_unitary(4, 21), random_unitary(4, 21))
    assert np.array_equal(random_density(4, 21), random_density(4, 21))
    assert np.array_equal(random_effect(4, 21), random_effect(4, 21))
    first = random_povm(3, 2, 21)
    second = random_povm(3, 2, 21)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    first = random_kraus_channel(3, 2, 21)
    second = random_kraus_channel(3, 2, 21)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert not np.array_equal(random_unitary(4, 21), random_unitary(4, 22))


def test_hermiticity_predicates():
    assert is_hermitian(np.eye(2))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_psd(np.diag([0.0, 2.0]))
    assert not is_psd(np.diag([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# Stack-aware predicates against a per-member loop
# ---------------------------------------------------------------------------

# The single-matrix definitions, written out once per member.
def _loop_hermitian(m, atol):
    return max_abs(m - m.conj().T) <= atol


def _loop_psd(m, atol):
    return _loop_hermitian(m, atol) and float(np.linalg.eigvalsh(m)[0]) >= -atol


def _loop_unitary(m, atol):
    eye = np.eye(len(m))
    return max_abs(m @ m.conj().T - eye) <= atol and max_abs(m.conj().T @ m - eye) <= atol


def _loop_projection(m, atol):
    return _loop_hermitian(m, atol) and max_abs(m @ m - m) <= atol


def _loop_effect(m, atol):
    if not _loop_hermitian(m, atol):
        return False
    w = np.linalg.eigvalsh(m)
    return float(w[0]) >= -atol and float(w[-1]) <= 1 + atol


def _loop_loewner(a, b, atol):
    return float(np.linalg.eigvalsh((b - a + (b - a).conj().T) / 2)[0]) >= -atol


PREDICATE_LOOPS = [
    (is_hermitian, _loop_hermitian),
    (is_psd, _loop_psd),
    (is_unitary, _loop_unitary),
    (is_projection_matrix, _loop_projection),
    (is_effect_matrix, _loop_effect),
]


def _predicate_stack(dim: int = 3) -> np.ndarray:
    """Random members and members just across each predicate's boundary, shape (4, 4, d, d)."""
    unitary = random_unitary(dim, 60)
    projection = random_projection(dim, 1, 61)
    skew = np.zeros((dim, dim))
    skew[0, 1] = 3e-9
    members = [
        random_effect(dim, 62),
        unitary,
        projection,
        random_density(dim, 63),
        random_effect(dim, 64) + skew,              # not Hermitian, by 3e-9
        (1 + 3e-9) * unitary,                       # not unitary, by about 6e-9
        (1 - 3e-9) * projection,                    # not idempotent, by 3e-9
        np.diag([1 + 3e-9, 0.5, 0.0][:dim]),        # eigenvalue just above 1
        np.diag([-3e-9, 0.5, 1.0][:dim]),           # eigenvalue just below 0
        np.diag([1 + 5e-10, -5e-10, 0.0][:dim]),    # both within the tolerance
        np.eye(dim),
        np.zeros((dim, dim)),
        2 * np.eye(dim),                            # PSD, not an effect
        1j * random_effect(dim, 66),                # skew-Hermitian
        -unitary,
        np.full((dim, dim), np.nan),                # every answer False, nothing raises
    ]
    return np.array(members, dtype=complex).reshape(4, 4, dim, dim)


def _inserted(passing: list, member: np.ndarray) -> np.ndarray:
    """``member`` inside a family of passing members, as a ``(2, k, d, d)`` stack."""
    middle = len(passing) // 2
    family = passing[:middle] + [member] + passing[middle:]
    if len(family) % 2:
        family.append(passing[0])
    return np.array(family).reshape(2, -1, *member.shape)


@pytest.mark.parametrize("predicate, loop", PREDICATE_LOOPS, ids=lambda f: f.__name__)
def test_stack_predicate_answers_each_member_like_the_loop(predicate, loop):
    members = list(_predicate_stack().reshape(-1, 3, 3))
    for atol in (1e-9, 1e-6):
        passing = [m for m in members if loop(m, atol)]
        assert passing
        for m in members:                           # the NaN member included
            one = predicate(m, atol)
            assert type(one) is bool and one == loop(m, atol)
            family = predicate(_inserted(passing, m), atol)
            assert type(family) is bool and family == loop(m, atol)
        assert predicate(np.array(passing), atol) is True
    # The stack holds members on both sides of every predicate at 1e-9.
    assert predicate(_predicate_stack()) is False


ALL_PREDICATES = [predicate for predicate, _ in PREDICATE_LOOPS] + [
    lambda m: loewner_leq(m, m)
]


@pytest.mark.parametrize("shape", [(3, 3), (2, 4, 3, 3), (0, 3, 3), (2, 0, 3, 3)])
def test_every_predicate_answers_one_bool(shape):
    family = np.broadcast_to(np.eye(3), shape)
    for predicate in ALL_PREDICATES:
        assert predicate(family) is True            # an empty stack answers True


def test_a_nan_member_answers_false_before_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    stack = np.array([np.eye(3), np.full((3, 3), np.nan), np.eye(3)])
    for predicate, _ in PREDICATE_LOOPS:
        assert predicate(stack) is False
        assert predicate(stack[1]) is False
    identities = np.broadcast_to(np.eye(3), stack.shape)
    with pytest.raises(ValueError, match="a is not Hermitian"):
        loewner_leq(stack, identities)
    with pytest.raises(ValueError, match="b is not Hermitian"):
        loewner_leq(identities, stack)
    assert not calls
    assert is_psd(stack[::2]) is True and len(calls) == 1


def test_loewner_leq_of_stacks_answers_each_pair_like_the_loop():
    stack = _predicate_stack()[:3]                  # no NaN member
    lower = (stack + np.swapaxes(stack.conj(), -1, -2)) / 2
    # b - a has eigenvalues: all >= 0; -1e-3; -3e-10 (within 1e-9); -3e-9 (outside it)
    gaps = [[1.0, 0.0, 0.5], [0.0, -1e-3, 0.5], [-3e-10, 0.0, 0.0], [0.0, 0.0, -3e-9]]
    upper = lower + np.array([np.diag(g) for g in gaps] * 3).reshape(lower.shape)
    pairs = list(zip(lower.reshape(-1, 3, 3), upper.reshape(-1, 3, 3)))
    for atol in (1e-9, 1e-2):
        ordered = [pair for pair in pairs if _loop_loewner(*pair, atol)]
        assert ordered
        for a, b in pairs:
            one = loewner_leq(a, b, atol)
            assert type(one) is bool and one == _loop_loewner(a, b, atol)
            family = loewner_leq(_inserted([p[0] for p in ordered], a),
                                 _inserted([p[1] for p in ordered], b), atol)
            assert type(family) is bool and family == _loop_loewner(a, b, atol)
    assert loewner_leq(lower, upper, 1e-2) is True
    assert loewner_leq(lower, upper) is False


def test_loewner_leq_of_stacks_rejects_one_non_hermitian_member():
    stack = np.array([np.eye(2), np.diag([0.5, 0.5])], dtype=complex)
    skewed = stack.copy()
    skewed[1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="a is not Hermitian"):
        loewner_leq(skewed, stack)
    with pytest.raises(ValueError, match="b is not Hermitian"):
        loewner_leq(stack, skewed)
    with pytest.raises(ValueError, match="dimension mismatch"):
        loewner_leq(stack, stack[:1])


# ---------------------------------------------------------------------------
# Batched random draws against per-item draws
# ---------------------------------------------------------------------------


def _draw_gaussian(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _draw_unitary(dim, rng):
    q, r = np.linalg.qr(_draw_gaussian(dim, rng))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _draw_kraus_channel(dim, count, rng):
    u, _, vh = np.linalg.svd(np.vstack([_draw_gaussian(dim, rng) for _ in range(count)]),
                             full_matrices=False)
    polar = u @ vh
    return [polar[k * dim:(k + 1) * dim] for k in range(count)]


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_random_unitaries_are_bit_identical_to_per_item_draws(dim):
    for seed in range(40):
        for count in (1, 2, 4):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            stacked = random_unitaries(dim, count, rng)
            items = np.array([_draw_unitary(dim, reference_rng) for _ in range(count)])
            assert stacked.tobytes() == items.tobytes()
            assert rng.random() == reference_rng.random()  # the stream moved on alike
    assert random_unitary(dim, 9).tobytes() == _draw_unitary(dim, np.random.default_rng(9)).tobytes()


@pytest.mark.parametrize("n, dk", [(1, 3), (2, 1), (3, 2), (4, 4)])
def test_random_nd_channel_is_bit_identical_to_per_row_draws(n, dk):
    context = Context.standard(n)
    for seed in range(40):
        for count in (1, 2, 3):
            table = random_nd_channel(context, dk, count, seed).table
            rng = np.random.default_rng(seed)
            rows = np.array([_draw_kraus_channel(dk, count, rng) for _ in range(n)])
            assert table.tobytes() == rows.tobytes()
            kraus = random_kraus_channel(dk, count, seed)
            assert np.array(kraus).tobytes() == np.array(
                _draw_kraus_channel(dk, count, np.random.default_rng(seed))).tobytes()


def test_random_unitaries_reject_bad_sizes():
    # Every seeded generator refuses dim 0 before it draws from its stream.
    for draw in (
        lambda rng: random_unitaries(0, 1, rng),
        lambda rng: random_unitary(0, rng),
        lambda rng: random_hermitian(0, rng),
        lambda rng: random_density(0, rng),
        lambda rng: random_effect(0, rng),
        lambda rng: random_projection(0, 0, rng),
        lambda rng: random_povm(0, 2, rng),
        lambda rng: random_kraus_channel(0, 1, rng),
        lambda rng: random_nd_channel(Context.standard(2), 0, 1, rng),
    ):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            draw(rng)
        assert rng.random() == np.random.default_rng(0).random()
    with pytest.raises(ValueError, match="count"):
        random_unitaries(2, 0, 0)
