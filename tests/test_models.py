import functools
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nondisturbing.models
from nondisturbing.linalg import (
    kron,
    max_abs,
    psd_sqrt,
    random_density,
    random_kraus_channel,
    random_povm,
    random_unitary,
)
from nondisturbing.objects import (
    Context,
    KrausOperation,
    Observable,
    State,
    sharp_observable,
)
from nondisturbing.channels import NDChannel, pair_overlap_kernel, probe_outputs
from nondisturbing.models import (
    MeasurementModel,
    measured_instrument_direct,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_direct,
    post_probe_instrument_nd,
    post_probe_observable,
    random_model,
    remeasured_effect,
    remeasured_effect_two_round,
)


def _identity_channel_model(n: int, dk: int, eta_seed: int, meter_seed: int) -> MeasurementModel:
    eta = State(random_density(dk, eta_seed))
    meter = Observable.from_matrices(random_povm(dk, 2, meter_seed))
    channel = KrausOperation((np.eye(n * dk),))
    return MeasurementModel(eta, channel, meter)


def _unitary_nd_model(n: int, dk: int, seed: int, eta: State | None = None) -> MeasurementModel:
    rng = np.random.default_rng(seed)
    ctx = Context.random(n, rng)
    nd = NDChannel(ctx, tuple((random_unitary(dk, rng),) for _ in range(n)))
    if eta is None:
        eta = State(random_density(dk, rng))
    meter = Observable.from_matrices(random_povm(dk, 3, rng))
    return MeasurementModel(eta, nd, meter)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


def test_model_rejects_mismatched_dimensions():
    eta = State(np.eye(2) / 2)
    meter = sharp_observable(2)
    channel = KrausOperation((np.eye(6),))
    with pytest.raises(ValueError, match="channel dimension 6 is not a multiple"):
        MeasurementModel(State(np.eye(4) / 4), channel, sharp_observable(4))
    with pytest.raises(ValueError, match="meter dimension"):
        MeasurementModel(eta, channel, sharp_observable(3))
    with pytest.raises(ValueError, match="channel table"):
        MeasurementModel(eta, NDChannel(Context.standard(2), ((np.eye(3),),) * 2), meter)
    with pytest.raises(TypeError, match="unsupported channel type"):
        MeasurementModel(eta, channel.kraus, meter)
    with pytest.raises(ValueError, match="completeness"):
        MeasurementModel(eta, KrausOperation((np.eye(6) / 2,)), meter)
    with pytest.raises(ValueError, match="context dimension 4 != 3"):
        random_model(3, 2, 2, 1, 0, context=Context.standard(4))


def test_closed_forms_require_nd_channel():
    mm = _identity_channel_model(2, 2, 1, 2)
    rho = State(random_density(2, 3))
    with pytest.raises(ValueError, match="nondisturbing"):
        measured_instrument_nd(mm, rho)
    with pytest.raises(ValueError, match="nondisturbing"):
        measured_observable_nd(mm)
    with pytest.raises(ValueError, match="nondisturbing"):
        post_probe_observable(mm, rho)
    with pytest.raises(ValueError, match="nondisturbing"):
        remeasured_effect(mm, rho)
    with pytest.raises(ValueError, match="nondisturbing"):
        remeasured_effect_two_round(mm, rho)


# ---------------------------------------------------------------------------
# Brute-force measured instrument
# ---------------------------------------------------------------------------


def test_single_outcome_meter_gives_trace_one_output():
    eta = State(random_density(3, 4))
    meter = Observable.from_matrices([np.eye(3)], ["all"])
    channel = KrausOperation(tuple(random_kraus_channel(6, 2, 5)))
    mm = MeasurementModel(eta, channel, meter)
    rho = State(random_density(2, 6))
    (out,) = measured_instrument_direct(mm, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    direct = channel.apply_matrix(kron(rho.matrix, eta.matrix))
    from nondisturbing.linalg import partial_trace

    assert max_abs(out - partial_trace(direct, 2, 3, "right")) < 1e-12


def test_identity_channel_with_sharp_meter_scales_the_input():
    n, dk = 2, 3
    eta = State(random_density(dk, 7))
    mm = MeasurementModel(eta, KrausOperation((np.eye(n * dk),)), sharp_observable(dk))
    rho = State(random_density(n, 8))
    for j, out in enumerate(measured_instrument_direct(mm, rho)):
        weight = eta.matrix[j, j].real
        assert max_abs(out - weight * rho.matrix) < 1e-12


def test_outcome_traces_form_a_probability_distribution():
    for seed in range(20):
        mm = random_model(2, 3, 3, 2, seed)
        rho = State(random_density(2, seed + 900))
        traces = [np.trace(out).real for out in measured_instrument_direct(mm, rho)]
        assert min(traces) > -1e-10
        assert abs(sum(traces) - 1.0) < 1e-10


def _trace_out(m, n, dk, side):
    """Partial trace of an ``(n*dk)``-square matrix, written out by index."""
    blocks = m.reshape(n, dk, n, dk)
    if side == "probe":
        return np.einsum("apbp->ab", blocks)
    return np.einsum("apaq->pq", blocks)


@pytest.mark.parametrize("n, dk, outcomes, kraus, seed", [
    (2, 3, 3, 3, 130), (3, 2, 4, 2, 131), (1, 3, 2, 2, 132), (3, 1, 1, 2, 133), (4, 3, 5, 4, 134),
])
def test_oracles_match_their_dense_definitions_on_a_generic_channel(n, dk, outcomes, kraus, seed):
    rng = np.random.default_rng(seed)
    ops = random_kraus_channel(n * dk, kraus, rng)
    eta = State(random_density(dk, rng))
    meter = Observable.from_matrices(random_povm(dk, outcomes, rng))
    mm = MeasurementModel(eta, KrausOperation(tuple(ops)), meter)
    assert (mm.dim_base, mm.dim_probe) == (n, dk)
    rho, sigma = State(random_density(n, rng)), State(random_density(dk, rng))
    eye = np.eye(n)

    x_meas = sum(k @ np.kron(rho.matrix, eta.matrix) @ k.conj().T for k in ops)
    x_post = sum(k @ np.kron(rho.matrix, sigma.matrix) @ k.conj().T for k in ops)
    measured = measured_instrument_direct(mm, rho)
    post = post_probe_instrument_direct(mm, rho, sigma)
    assert measured.shape == (outcomes, n, n) and post.shape == (outcomes, dk, dk)
    for f, out_meas, out_post in zip(meter.effects, measured, post, strict=True):
        w, v = np.linalg.eigh(f)
        root = np.kron(eye, (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T)
        expected_meas = _trace_out(x_meas @ np.kron(eye, f), n, dk, "probe")
        expected_post = _trace_out(root @ x_post @ root, n, dk, "base")
        assert max_abs(out_meas - expected_meas) < 1e-12
        assert max_abs(out_post - expected_post) < 1e-12


def test_oracle_outputs_are_writable_arrays():
    rng = np.random.default_rng(135)
    mm = random_model(2, 2, 2, 2, rng)
    rho, sigma = State(random_density(2, rng)), State(random_density(2, rng))
    for out in (
        measured_instrument_direct(mm, rho),
        post_probe_instrument_direct(mm, rho, sigma),
        remeasured_effect_two_round(mm, rho),
    ):
        assert out.flags.writeable


# ---------------------------------------------------------------------------
# Closed-form measured instrument and observable
# ---------------------------------------------------------------------------


def test_closed_form_instrument_matches_direct_path():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        mm = random_model(n, dk, 2, m, rng, context=Context.random(n, rng))
        rho = State(random_density(n, rng))
        closed = measured_instrument_nd(mm, rho)
        direct = measured_instrument_direct(mm, rho)
        for out, brute in zip(closed, direct):
            assert max_abs(out - brute) < 1e-10


def test_instrument_kernel_is_psd():
    mm = random_model(3, 2, 2, 2, 17)
    for f in mm.meter.effects:
        kernel = pair_overlap_kernel(mm.nd, mm.probe_state.matrix, f)
        w = np.linalg.eigvalsh((kernel + kernel.conj().T) / 2)
        assert w[0] > -1e-12


def test_measurable_inputs_stay_measurable():
    mm = random_model(3, 2, 2, 2, 19, context=Context.random(3, 20))
    ctx = mm.nd.context
    weights = np.array([0.2, 0.3, 0.5])
    rho = State(sum(w * ctx.atoms[i] for i, w in enumerate(weights)))
    for f, out in zip(mm.meter.effects, measured_instrument_nd(mm, rho)):
        assert ctx.is_measurable(out, 1e-10)
        expected = sum(
            w
            * np.trace(
                mm.nd.probe_channel(i).apply_matrix(mm.probe_state.matrix) @ f
            ).real
            * ctx.atoms[i]
            for i, w in enumerate(weights)
        )
        assert max_abs(out - expected) < 1e-10


def test_measured_observable_is_complete_commuting_and_paired():
    for seed in range(20):
        mm = random_model(3, 3, 3, 2, seed + 40, context=Context.random(3, seed))
        mats = measured_observable_nd(mm)
        assert max_abs(sum(mats) - np.eye(3)) < 1e-10
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                assert max_abs(mats[a] @ mats[b] - mats[b] @ mats[a]) < 1e-10
        rho = State(random_density(3, seed + 41))
        for effect, out in zip(mats, measured_instrument_direct(mm, rho), strict=True):
            paired = np.trace(rho.matrix @ effect).real
            direct = np.trace(out).real
            assert abs(paired - direct) < 1e-10
        assert all(mm.nd.context.is_measurable(m, 1e-10) for m in mats)


def test_unitary_rows_give_conjugated_coefficient_form():
    mm = _unitary_nd_model(3, 2, 55)
    nd = mm.nd
    eta = mm.probe_state.matrix
    rho = State(random_density(3, 56))
    basis = nd.context.basis
    for f, out in zip(mm.meter.effects, measured_instrument_nd(mm, rho)):
        coeff = np.array(
            [
                [
                    np.trace(nd.table[i][0] @ eta @ nd.table[j][0].conj().T @ f)
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )
        overlaps = basis.conj().T @ rho.matrix @ basis
        explicit = basis @ (coeff * overlaps) @ basis.conj().T
        assert max_abs(explicit - out) < 1e-10


def test_commuting_probe_state_collapses_observable_to_scalars():
    n, dk = 3, 4
    rng = np.random.default_rng(57)
    ctx = Context.random(n, rng)
    nd = NDChannel(ctx, tuple((random_unitary(dk, rng),) for _ in range(n)))
    eta = State(np.eye(dk, dtype=complex) / dk)
    meter = Observable.from_matrices(random_povm(dk, 3, rng))
    mm = MeasurementModel(eta, nd, meter)
    for f, effect in zip(meter.effects, measured_observable_nd(mm), strict=True):
        scale = np.trace(eta.matrix @ f).real
        assert max_abs(effect - scale * np.eye(n)) < 1e-10


# ---------------------------------------------------------------------------
# Post-interaction probe instrument and observable
# ---------------------------------------------------------------------------


def test_post_probe_single_outcome_reduces_to_plain_partial_trace():
    eta = State(random_density(2, 60))
    meter = Observable.from_matrices([np.eye(2)], ["all"])
    channel = KrausOperation(tuple(random_kraus_channel(6, 2, 61)))
    mm = MeasurementModel(eta, channel, meter)
    rho = State(random_density(3, 62))
    sigma = State(random_density(2, 63))
    (out,) = post_probe_instrument_direct(mm, rho, sigma)
    from nondisturbing.linalg import partial_trace

    direct = channel.apply_matrix(kron(rho.matrix, sigma.matrix))
    assert max_abs(out - partial_trace(direct, 3, 2, "left")) < 1e-12
    assert abs(np.trace(out).real - 1.0) < 1e-10


def test_post_probe_identity_channel_sandwiches_the_probe():
    n, dk = 2, 3
    eta = State(random_density(dk, 64))
    meter = Observable.from_matrices(random_povm(dk, 2, 65))
    mm = MeasurementModel(eta, KrausOperation((np.eye(n * dk),)), meter)
    rho = State(random_density(n, 66))
    sigma = State(random_density(dk, 67))
    for f, out in zip(meter.effects, post_probe_instrument_direct(mm, rho, sigma)):
        root = psd_sqrt(f)
        assert max_abs(out - root @ sigma.matrix @ root) < 1e-12


def test_post_probe_closed_form_matches_direct_path():
    for seed in range(50):
        rng = np.random.default_rng(seed + 3000)
        n = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 5))
        mm = random_model(n, dk, 3, int(rng.integers(1, 4)), rng,
                          context=Context.random(n, rng))
        rho = State(random_density(n, rng))
        sigma = State(random_density(dk, rng))
        closed = post_probe_instrument_nd(mm, rho, sigma)
        direct = post_probe_instrument_direct(mm, rho, sigma)
        for out, brute in zip(closed, direct):
            assert max_abs(out - brute) < 1e-10


def test_post_probe_outputs_sum_to_trace_one():
    mm = random_model(2, 3, 3, 2, 70)
    rho = State(random_density(2, 71))
    sigma = State(random_density(3, 72))
    total = sum(np.trace(out).real for out in post_probe_instrument_nd(mm, rho, sigma))
    assert abs(total - 1.0) < 1e-10


def test_atom_input_selects_single_probe_channel_term():
    mm = random_model(3, 2, 2, 2, 73, context=Context.random(3, 74))
    nd = mm.nd
    sigma = State(random_density(2, 75))
    rho = State(nd.context.atoms[1])
    for f, out in zip(mm.meter.effects, post_probe_instrument_nd(mm, rho, sigma)):
        root = psd_sqrt(f)
        expected = root @ nd.probe_channel(1).apply_matrix(sigma.matrix) @ root
        assert max_abs(out - expected) < 1e-10


def test_post_probe_observable_duality_and_completeness():
    for seed in range(20):
        mm = random_model(2, 3, 3, 2, seed + 80)
        rho = State(random_density(2, seed + 81))
        sigma = State(random_density(3, seed + 82))
        mats = post_probe_observable(mm, rho)
        assert max_abs(sum(mats) - np.eye(3)) < 1e-10
        for effect, out in zip(mats, post_probe_instrument_nd(mm, rho, sigma), strict=True):
            paired = np.trace(sigma.matrix @ effect).real
            closed = np.trace(out).real
            assert abs(paired - closed) < 1e-10


def _pulled_back(channel, effect):
    """``sum_k k* F k`` over the Kraus operators of ``channel``."""
    return sum(k.conj().T @ effect @ k for k in channel.kraus)


def test_post_probe_observable_at_atom_is_pulled_back_meter():
    mm = random_model(3, 2, 2, 2, 83, context=Context.random(3, 84))
    nd = mm.nd
    for i in range(3):
        obs = post_probe_observable(mm, State(nd.context.atoms[i]))
        for f, effect in zip(mm.meter.effects, obs, strict=True):
            expected = _pulled_back(nd.probe_channel(i), f)
            assert max_abs(effect - expected) < 1e-10


def test_post_probe_observable_is_affine_on_random_mixtures():
    mm = random_model(3, 2, 3, 2, 91)
    rng = np.random.default_rng(92)
    for _ in range(20):
        states = [State(random_density(3, rng)) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mixture = State(sum(w * s.matrix for w, s in zip(weights, states)))
        mixed = sum(w * post_probe_observable(mm, s) for w, s in zip(weights, states))
        assert max_abs(post_probe_observable(mm, mixture) - mixed) < 1e-10


def test_unitary_rows_pull_the_meter_back_by_conjugation():
    mm = _unitary_nd_model(2, 3, 85)
    nd = mm.nd
    rho = State(random_density(2, 86))
    weights = nd.context.weights(rho.matrix)
    sigma = State(random_density(3, 87))
    for f, out, effect in zip(mm.meter.effects, post_probe_instrument_nd(mm, rho, sigma),
                              post_probe_observable(mm, rho), strict=True):
        pulled = sum(
            weights[i] * nd.table[i][0].conj().T @ f @ nd.table[i][0]
            for i in range(2)
        )
        assert max_abs(effect - pulled) < 1e-10
        root = psd_sqrt(f)
        sandwiched = sum(
            weights[i]
            * root @ nd.table[i][0] @ sigma.matrix @ nd.table[i][0].conj().T @ root
            for i in range(2)
        )
        assert max_abs(out - sandwiched) < 1e-10


# ---------------------------------------------------------------------------
# Every closed form and oracle is one stack over the meter outcomes
# ---------------------------------------------------------------------------

INSTRUMENTS = [
    measured_instrument_nd,
    measured_instrument_direct,
    post_probe_instrument_nd,
    post_probe_instrument_direct,
    remeasured_effect,
    remeasured_effect_two_round,
    measured_observable_nd,
    post_probe_observable,
]


def _instrument_call(fn, mm, rho, sigma):
    params = inspect.signature(fn).parameters
    if "sigma" in params:
        return fn(mm, rho, sigma)
    if "rho" in params:
        return fn(mm, rho)
    return fn(mm)


@pytest.mark.parametrize("fn", INSTRUMENTS, ids=lambda fn: fn.__name__)
def test_instrument_takes_no_outcome_and_stacks_outcomes_in_label_order(fn):
    assert list(inspect.signature(fn).parameters) in (
        ["mm"], ["mm", "rho"], ["mm", "rho", "sigma"]
    )
    mm = random_model(3, 2, 3, 2, 120, context=Context.random(3, 121))
    rho = State(random_density(3, 122))
    sigma = State(random_density(2, 123))
    flipped = MeasurementModel(
        mm.probe_state, mm.channel, Observable(mm.meter.labels[::-1], mm.meter.effects[::-1])
    )
    out = _instrument_call(fn, mm, rho, sigma)
    dim = mm.dim_probe if fn.__name__.startswith("post_probe") else mm.dim_base
    assert out.shape == (3, dim, dim)
    assert np.array_equal(_instrument_call(fn, flipped, rho, sigma), out[::-1])


@pytest.mark.parametrize("fn, applications", [
    (measured_instrument_direct, 1),
    (post_probe_instrument_direct, 1),
    (remeasured_effect_two_round, 2),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_oracle_applies_the_channel_once_per_round(monkeypatch, fn, applications):
    mm = random_model(2, 2, 3, 2, 124)
    calls = []
    original = KrausOperation.apply_matrix

    def counting(self, m):
        calls.append(m.shape)
        return original(self, m)

    monkeypatch.setattr(KrausOperation, "apply_matrix", counting)
    _instrument_call(fn, mm, State(random_density(2, 125)), State(random_density(2, 126)))
    assert len(calls) == applications


@pytest.mark.parametrize(
    "fn", [measured_instrument_direct, post_probe_instrument_direct, remeasured_effect_two_round],
    ids=lambda fn: fn.__name__,
)
def test_oracle_reads_no_closed_form_code(monkeypatch, fn):
    mm = random_model(3, 2, 3, 2, 127, context=Context.random(3, 128))
    rho, sigma = State(random_density(3, 129)), State(random_density(2, 130))
    expected = _instrument_call(fn, mm, rho, sigma)

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle read closed-form code")

    monkeypatch.setattr(MeasurementModel, "pulled_meter", property(forbidden))
    for name in ("pair_overlap_kernel", "probe_outputs", "psd_sqrt", "hermitian_part"):
        monkeypatch.setattr(nondisturbing.models, name, forbidden)
    monkeypatch.setattr(Context, "weights", forbidden)
    assert max_abs(_instrument_call(fn, mm, rho, sigma) - expected) == 0.0


# ---------------------------------------------------------------------------
# Per-model cached tensors
# ---------------------------------------------------------------------------

# (dim_base, dim_probe, outcomes, kraus_count), degenerate sizes included.
CACHE_SHAPES = [(1, 3, 2, 2), (3, 1, 2, 2), (3, 2, 3, 1), (2, 3, 1, 2), (1, 1, 1, 1), (4, 3, 3, 3)]


def _cache_model(shape, seed) -> MeasurementModel:
    n, dk, outcomes, kraus = shape
    rng = np.random.default_rng(seed)
    return random_model(n, dk, outcomes, kraus, rng, context=Context.random(n, rng))


@pytest.mark.parametrize("shape", CACHE_SHAPES)
def test_pulled_meter_is_the_dual_of_each_probe_channel(shape):
    mm = _cache_model(shape, 110)
    n, dk, outcomes, _ = shape
    assert mm.pulled_meter.shape == (outcomes, n, dk, dk)
    for xi, f in enumerate(mm.meter.effects):
        for i in range(n):
            expected = _pulled_back(mm.nd.probe_channel(i), f)
            assert max_abs(mm.pulled_meter[xi, i] - expected) < 1e-12


# The evolved probe G_i(eta) is not cached: the closed forms that need it
# apply the probe channels per call through probe_outputs.
@pytest.mark.parametrize("shape", CACHE_SHAPES)
def test_probe_outputs_apply_each_probe_channel(shape):
    mm = _cache_model(shape, 111)
    n, dk, _, _ = shape
    evolved = probe_outputs(mm.nd, mm.probe_state.matrix)
    assert evolved.shape == (n, dk, dk)
    for i in range(n):
        expected = mm.nd.probe_channel(i).apply_matrix(mm.probe_state.matrix)
        assert max_abs(evolved[i] - expected) < 1e-12


@pytest.mark.parametrize("shape", CACHE_SHAPES)
def test_measured_observable_matches_schroedinger_reference(shape):
    mm = _cache_model(shape, 111)
    n, _, outcomes, _ = shape
    basis = mm.nd.context.basis
    observable = measured_observable_nd(mm)
    assert observable.shape == (outcomes, n, n)
    inner = basis.conj().T @ observable @ basis
    for i in range(n):
        evolved = mm.nd.probe_channel(i).apply_matrix(mm.probe_state.matrix)
        for xi, f in enumerate(mm.meter.effects):
            assert abs(inner[xi, i, i] - np.trace(evolved @ f)) < 1e-12


def test_observable_and_remeasure_leave_the_pulled_meter_unbuilt():
    mm = _cache_model((4, 3, 3, 3), 113)
    measured_observable_nd(mm)
    remeasured_effect(mm, State(random_density(4, 114)))
    assert "pulled_meter" not in vars(mm)


def test_pulled_meter_is_the_only_cached_tensor():
    cached = [name for name, value in vars(MeasurementModel).items()
              if isinstance(value, functools.cached_property)]
    assert cached == ["pulled_meter"]


def test_cached_tensors_are_read_only_and_computed_once():
    mm = _cache_model((3, 2, 2, 2), 112)
    cached = mm.pulled_meter
    assert mm.pulled_meter is cached
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 0.0


def test_cached_tensors_require_nd_channel():
    mm = _identity_channel_model(2, 2, 115, 116)
    with pytest.raises(ValueError, match="nondisturbing") as expected:
        mm.nd
    with pytest.raises(ValueError) as raised:
        mm.pulled_meter
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Remeasurement
# ---------------------------------------------------------------------------


def _dephase(context: Context, m: np.ndarray) -> np.ndarray:
    """``sum_i P_i m P_i`` over the context atoms."""
    return sum(p @ m @ p for p in context.atoms)


def _three_system_remeasured_effect(
    mm: MeasurementModel, rho: State, f: np.ndarray
) -> np.ndarray:
    """Dense reference on base (x) base (x) probe, built from the composite Kraus family.

    Round one acts on the first base (in ``I/n``) and the probe, round two on
    the second base (in ``rho``) and the probe; then the meter effect ``f`` weights
    the probe, the first base and the probe are traced out, and the result
    is dephased and scaled by ``n``.
    """
    n, dk = mm.dim_base, mm.dim_probe
    eye = np.eye(n)
    blocks = [s.reshape(n, dk, n, dk) for s in mm.channel_operation().kraus]
    # indices (base 1, base 2, probe) out, then in
    first = [np.einsum("apcq,bd->abpcdq", b, eye) for b in blocks]
    second = [np.einsum("ac,bpdq->abpcdq", eye, b) for b in blocks]
    state = kron(kron(eye / n, rho.matrix), mm.probe_state.matrix)
    for kraus in (first, second):
        lifted = [k.reshape(state.shape) for k in kraus]
        state = sum(k @ state @ k.conj().T for k in lifted)
    weighted = (state @ kron(np.eye(n * n), f)).reshape(
        n, n, dk, n, n, dk
    )
    second_base = np.einsum("abpaep->be", weighted)
    return n * _dephase(mm.nd.context, second_base)


@pytest.mark.parametrize("n, dk", [(1, 3), (3, 1), (2, 2), (2, 4), (3, 3), (4, 4)])
def test_remeasure_matches_three_system_reference(n, dk):
    rng = np.random.default_rng(100 * n + dk)
    mm = random_model(n, dk, 3, 2, rng, context=Context.random(n, rng))
    assert (mm.dim_base, mm.dim_probe) == (n, dk)
    rho = State(random_density(n, rng))
    closed = remeasured_effect(mm, rho)
    oracle = remeasured_effect_two_round(mm, rho)
    for f, out, brute in zip(mm.meter.effects, closed, oracle):
        reference = _three_system_remeasured_effect(mm, rho, f)
        assert max_abs(out - reference) < 1e-12
        assert max_abs(brute - reference) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    dk=st.integers(1, 4),
    outcomes=st.integers(1, 3),
    kraus_count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_remeasure_matches_two_round_oracle(n, dk, outcomes, kraus_count, seed):
    rng = np.random.default_rng(seed)
    mm = random_model(n, dk, outcomes, kraus_count, rng, context=Context.random(n, rng))
    rho = State(random_density(n, rng))
    total = 0.0
    for closed, oracle in zip(remeasured_effect(mm, rho), remeasured_effect_two_round(mm, rho)):
        assert max_abs(closed - oracle) <= 1e-12
        total = total + closed
    assert max_abs(total - n * _dephase(mm.nd.context, rho.matrix)) <= 1e-12


def test_remeasure_unitary_case_matches_explicit_double_product():
    mm = _unitary_nd_model(3, 2, 96)
    nd = mm.nd
    eta = mm.probe_state.matrix
    rho = State(random_density(3, 97))
    weights = nd.context.weights(rho.matrix)
    for f, out in zip(mm.meter.effects, remeasured_effect(mm, rho)):
        diag = np.zeros(3)
        for i in range(3):
            for j in range(3):
                w = nd.table[i][0] @ nd.table[j][0]
                diag[i] += np.trace(w @ eta @ w.conj().T @ f).real
        explicit = (nd.context.basis * (diag * weights)) @ nd.context.basis.conj().T
        assert max_abs(explicit - out) < 1e-10


def test_remeasure_identity_table_scales_the_dephased_state():
    n, dk = 3, 2
    ctx = Context.random(n, 98)
    nd = NDChannel(ctx, ((np.eye(dk),),) * n)
    eta = State(random_density(dk, 99))
    meter = Observable.from_matrices(random_povm(dk, 2, 100))
    mm = MeasurementModel(eta, nd, meter)
    rho = State(random_density(n, 101))
    dephased = _dephase(ctx, rho.matrix)
    for f, out in zip(meter.effects, remeasured_effect(mm, rho)):
        scale = np.trace(eta.matrix @ f).real
        # every atom pair contributes once, so the inner sum scales by n
        assert max_abs(out - n * scale * dephased) < 1e-10


def test_remeasure_outcome_sum_is_scaled_dephasing():
    mm = random_model(3, 2, 3, 2, 102, context=Context.random(3, 103))
    rho = State(random_density(3, 104))
    total = sum(remeasured_effect(mm, rho))
    dephased = _dephase(mm.nd.context, rho.matrix)
    assert max_abs(total - 3 * dephased) < 1e-10


def test_remeasure_is_affine_in_the_state():
    mm = random_model(2, 3, 2, 2, 105)
    rng = np.random.default_rng(106)
    states = [State(random_density(2, rng)) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    mixture = State(sum(w * s.matrix for w, s in zip(weights, states)))
    mixed = sum(w * remeasured_effect(mm, s) for w, s in zip(weights, states))
    for out, expected in zip(remeasured_effect(mm, mixture), mixed):
        assert max_abs(out - expected) < 1e-10
