"""Measurement models and the closed forms available for nondisturbing ones.

A measurement model couples a base system to a probe through a channel
on the composite space, then reads a meter observable off the probe.
The brute-force path (tensor the input with the probe state, apply the
channel, weight by the meter effect, partial-trace) works for any
channel and is kept as the oracle.  When the channel is nondisturbing,
the measured instrument and observable, the post-interaction probe
instrument and observable, and the second-round apparatus all collapse
to small sums over the probe table, implemented here without ever
forming composite operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    hermitian_part,
    kron,
    partial_trace,
    psd_sqrt,
    random_density,
    random_kraus_channel,
    random_povm,
)
from .objects import Context, KrausOperation, Observable, PartialState, State
from .channels import NDChannel, pair_overlap_kernel, probe_outputs, random_nd_channel

__all__ = [
    "AtomKernelMap",
    "MeasurementModel",
    "Apparatus",
    "measured_instrument_direct",
    "measured_instrument_kernel",
    "measured_instrument_nd",
    "measured_observable_nd",
    "post_probe_instrument_direct",
    "post_probe_instrument_nd",
    "post_probe_observable",
    "apparatus_from_mm",
    "remeasure_apparatus",
    "remeasured_effect_by_substitution",
    "random_model",
]


@dataclass(frozen=True, eq=False)
class AtomKernelMap:
    """Map ``rho -> sum_{i,j} c[i, j] P_i rho P_j`` over a context's atoms.

    This is the natural form of instrument outcomes for nondisturbing
    models: the map is determined by its coefficient kernel.
    """

    context: Context
    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        n = self.context.dim
        if c.shape != (n, n):
            raise ValueError(f"kernel must be {n} x {n}, got {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        basis = self.context.basis
        overlaps = basis.conj().T @ np.asarray(rho, dtype=complex) @ basis
        return basis @ (self.coeff * overlaps) @ basis.conj().T


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Base-plus-probe measurement: probe state, interaction channel, meter.

    The channel may be a generic Kraus channel on the composite space or
    an :class:`NDChannel`; closed forms are only available for the latter.
    Their two state-independent tensors, :attr:`pulled_meter` and
    :attr:`evolved_probe`, are computed once per model on first use.
    """

    dim_base: int
    dim_probe: int
    probe_state: State
    channel: KrausOperation | NDChannel
    meter: Observable

    def __post_init__(self):
        if self.dim_base < 1 or self.dim_probe < 1:
            raise ValueError("dimensions must be positive")
        if self.probe_state.dim != self.dim_probe:
            raise ValueError(
                f"probe state dimension {self.probe_state.dim} != {self.dim_probe}"
            )
        if self.meter.dim != self.dim_probe:
            raise ValueError(
                f"meter dimension {self.meter.dim} != probe dimension {self.dim_probe}"
            )
        if isinstance(self.channel, NDChannel):
            if self.channel.dim_base != self.dim_base:
                raise ValueError("channel context does not match the base dimension")
            if self.channel.dim_probe != self.dim_probe:
                raise ValueError("channel table does not match the probe dimension")
        elif isinstance(self.channel, KrausOperation):
            if self.channel.dim != self.dim_base * self.dim_probe:
                raise ValueError(
                    f"channel dimension {self.channel.dim} != "
                    f"{self.dim_base} * {self.dim_probe}"
                )
        else:
            raise TypeError(f"unsupported channel type {type(self.channel).__name__}")

    @property
    def is_nondisturbing(self) -> bool:
        return isinstance(self.channel, NDChannel)

    @property
    def nd(self) -> NDChannel:
        if not self.is_nondisturbing:
            raise ValueError(
                "closed forms require a nondisturbing channel; "
                "this model carries a generic Kraus channel"
            )
        return self.channel

    @cached_property
    def pulled_meter(self) -> np.ndarray:
        """Meter pulled back through every probe channel, read-only.

        ``pulled_meter[x, i] = G_i*(F_x) = sum_k B_i^k* F_x B_i^k``, with
        outcomes in the order of ``meter.labels``; shape
        ``(outcomes, dim_base, dim_probe, dim_probe)``.
        """
        t = self.nd.table_array
        meter = _meter_stack(self)[:, None, None]
        out = (np.conj(np.swapaxes(t, -1, -2)) @ meter @ t).sum(axis=2)
        out.setflags(write=False)
        return out

    @cached_property
    def evolved_probe(self) -> np.ndarray:
        """Probe state after every probe channel, ``G_i(eta)``, read-only.

        Shape ``(dim_base, dim_probe, dim_probe)``.
        """
        out = probe_outputs(self.nd, self.probe_state.matrix)
        out.setflags(write=False)
        return out

    def channel_operation(self) -> KrausOperation:
        if isinstance(self.channel, NDChannel):
            return self.channel.as_operation()
        return self.channel

    def with_meter(self, meter: Observable) -> "MeasurementModel":
        return MeasurementModel(
            self.dim_base, self.dim_probe, self.probe_state, self.channel, meter
        )


def _meter_matrix(mm: MeasurementModel, x: str) -> np.ndarray:
    return mm.meter.effect_matrix(x)


def _meter_stack(mm: MeasurementModel) -> np.ndarray:
    """Meter effects stacked in label order, shape (outcomes, dim_probe, dim_probe)."""
    return np.array([effect.matrix for _, effect in mm.meter.outcomes])


def measured_instrument_direct(mm: MeasurementModel, x: str, rho: State) -> PartialState:
    """Brute-force instrument outcome, valid for any channel.

    Tensors the input with the probe state, applies the channel, weights
    by the meter effect on the probe side, and traces the probe out.
    """
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    interacted = mm.channel_operation().apply_matrix(
        kron(rho.matrix, mm.probe_state.matrix)
    )
    weighted = interacted @ kron(np.eye(mm.dim_base), _meter_matrix(mm, x))
    reduced = partial_trace(weighted, mm.dim_base, mm.dim_probe, over="right")
    return PartialState(hermitian_part(reduced))


def measured_instrument_kernel(mm: MeasurementModel, x: str) -> AtomKernelMap:
    """The instrument outcome of a nondisturbing model as an atom-kernel map.

    The kernel is ``c[i, j] = sum_k tr(B_i^k eta B_j^k* F_x)``.
    """
    nd = mm.nd
    kernel = pair_overlap_kernel(nd, mm.probe_state.matrix, _meter_matrix(mm, x))
    return AtomKernelMap(nd.context, kernel)


def measured_instrument_nd(mm: MeasurementModel, x: str, rho: State) -> PartialState:
    """Closed-form instrument outcome for a nondisturbing model."""
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    out = measured_instrument_kernel(mm, x).apply(rho.matrix)
    return PartialState(hermitian_part(out))


def measured_observable_nd(mm: MeasurementModel) -> Observable:
    """Closed-form measured observable of a nondisturbing model.

    Outcome ``x`` maps to ``sum_i tr(G_i(eta) F_x) P_i`` where ``G_i`` is
    the probe channel of atom ``i``.  All effects are diagonal in the
    context and therefore commute pairwise.
    """
    basis = mm.nd.context.basis
    diag = np.real(np.einsum("iab,xba->xi", mm.evolved_probe, _meter_stack(mm)))
    effects = (basis * diag[:, None, :]) @ basis.conj().T
    return Observable.from_matrices(effects, mm.meter.labels)


def post_probe_instrument_direct(
    mm: MeasurementModel, rho: State, x: str, sigma: State
) -> PartialState:
    """Brute-force post-interaction probe instrument outcome.

    Sandwiches the channel output between square roots of the lifted
    meter effect before tracing out the base: the symmetrized form is
    what keeps the output Hermitian, since the base-side partial trace
    is not cyclic.
    """
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    if sigma.dim != mm.dim_probe:
        raise ValueError(f"probe input dimension {sigma.dim} != {mm.dim_probe}")
    root = kron(np.eye(mm.dim_base), psd_sqrt(_meter_matrix(mm, x)))
    interacted = mm.channel_operation().apply_matrix(kron(rho.matrix, sigma.matrix))
    reduced = partial_trace(
        root @ interacted @ root, mm.dim_base, mm.dim_probe, over="left"
    )
    return PartialState(hermitian_part(reduced))


def post_probe_instrument_nd(
    mm: MeasurementModel, rho: State, x: str, sigma: State
) -> PartialState:
    """Closed-form post-interaction probe instrument outcome.

    Equals ``sum_i <v_i, rho v_i> F_x^(1/2) G_i(sigma) F_x^(1/2)``.
    """
    nd = mm.nd
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    if sigma.dim != mm.dim_probe:
        raise ValueError(f"probe input dimension {sigma.dim} != {mm.dim_probe}")
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, probe_outputs(nd, sigma.matrix), axes=1)
    root = psd_sqrt(_meter_matrix(mm, x))
    return PartialState(hermitian_part(root @ mixed @ root))


def post_probe_observable(mm: MeasurementModel, rho: State) -> Observable:
    """Observable measured on the probe after the interaction.

    Outcome ``x`` maps to ``sum_i <v_i, rho v_i> G_i*(F_x)``: the meter
    pulled back through each probe channel, mixed with the context
    diagonal of the input state.
    """
    nd = mm.nd
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, mm.pulled_meter, axes=(0, 1))
    return Observable.from_matrices(map(hermitian_part, mixed), mm.meter.labels)


@dataclass(frozen=True, eq=False)
class Apparatus:
    """State-dependent effect family: ``(rho, x) -> effect matrix``.

    For each fixed input state the family is expected to be affine in the
    state; whether the outcomes form an observable depends on the
    construction and is validated by callers, not here.
    """

    labels: tuple[str, ...]
    evaluate: Callable[[State, str], np.ndarray]

    def effect(self, rho: State, x: str) -> np.ndarray:
        if x not in self.labels:
            raise KeyError(f"unknown outcome label {x!r}")
        return self.evaluate(rho, x)

    def observable(self, rho: State, atol: float = DEFAULT_ATOL) -> Observable:
        """Package the family at ``rho`` as a validated observable."""
        return Observable.from_matrices(
            [self.effect(rho, x) for x in self.labels], self.labels, atol
        )


def apparatus_from_mm(mm: MeasurementModel) -> Apparatus:
    """The apparatus a nondisturbing model induces on its probe.

    Evaluating at ``(rho, x)`` gives the post-interaction probe
    observable's effect; for each fixed state the family is a complete
    observable, and it is affine in the state.
    """
    nd = mm.nd
    pulled = dict(zip(mm.meter.labels, mm.pulled_meter))

    def evaluate(rho: State, x: str) -> np.ndarray:
        weights = nd.context.weights(rho.matrix)
        return hermitian_part(np.tensordot(weights, pulled[x], axes=1))

    return Apparatus(mm.meter.labels, evaluate)


def _remeasure_kernels(mm: MeasurementModel) -> dict[str, np.ndarray]:
    """Per-outcome matrices ``t[j, i] = tr(G_j(eta) G_i*(F_x))``.

    Evaluated in the Schroedinger picture as ``tr(G_i(G_j(eta)) F_x)``,
    so this closed form never reads :attr:`MeasurementModel.pulled_meter`,
    which its substitution oracle reaches through the post-interaction
    probe observable.
    """
    twice = probe_outputs(mm.nd, mm.evolved_probe)  # twice[j, i] = G_i(G_j(eta))
    kernels = np.einsum("jiab,xba->xji", twice, _meter_stack(mm))
    return dict(zip(mm.meter.labels, kernels))


def remeasure_apparatus(mm: MeasurementModel) -> Apparatus:
    """Second-round apparatus of a nondisturbing model on its base space.

    Feeding the post-interaction probe observable back in as the meter
    yields the family
    ``B(rho, x) = sum_{i,j} tr(G_j(eta) G_i*(F_x)) P_i rho P_i``.
    It is affine in the state, but its outcomes sum to ``dim_base`` times
    the context-dephased state rather than the identity: the inner atom
    sum contributes once per atom.
    """
    nd = mm.nd
    basis = nd.context.basis
    kernels = _remeasure_kernels(mm)
    column_sums = {x: np.real(k.sum(axis=0)) for x, k in kernels.items()}

    def evaluate(rho: State, x: str) -> np.ndarray:
        weights = nd.context.weights(rho.matrix)
        scaled = column_sums[x] * weights
        return hermitian_part((basis * scaled) @ basis.conj().T)

    return Apparatus(mm.meter.labels, evaluate)


def remeasured_effect_by_substitution(
    mm: MeasurementModel, rho: State, x: str
) -> np.ndarray:
    """Oracle for the second-round apparatus via explicit substitution.

    For each context atom, runs the post-interaction probe observable at
    that atom through a fresh model as its meter, reads the measured
    observable back off, and reassembles the family with the context
    weights of ``rho``.  Exercises the full observable pipeline instead
    of the direct double-trace kernel.
    """
    nd = mm.nd
    basis = nd.context.basis
    coeffs = []
    for i in range(nd.dim_base):
        atom_state = State(nd.context.atom(i))
        substituted = mm.with_meter(post_probe_observable(mm, atom_state))
        second_round = measured_observable_nd(substituted)
        coeffs.append(float(np.trace(second_round.effect_matrix(x)).real))
    weights = nd.context.weights(rho.matrix)
    scaled = np.asarray(coeffs) * weights
    return hermitian_part((basis * scaled) @ basis.conj().T)


def random_model(
    dim_base: int,
    dim_probe: int,
    outcomes: int,
    kraus_count: int,
    seed,
    nondisturbing: bool = True,
    context: Context | None = None,
) -> MeasurementModel:
    """Random measurement model for randomized verification."""
    rng = np.random.default_rng(seed)
    if context is None:
        context = Context.standard(dim_base)
    probe_state = State(random_density(dim_probe, rng))
    meter = Observable.from_matrices(random_povm(dim_probe, outcomes, rng))
    if nondisturbing:
        channel: KrausOperation | NDChannel = random_nd_channel(
            context, dim_probe, kraus_count, rng
        )
    else:
        channel = KrausOperation(
            tuple(random_kraus_channel(dim_base * dim_probe, kraus_count, rng))
        )
    return MeasurementModel(dim_base, dim_probe, probe_state, channel, meter)
