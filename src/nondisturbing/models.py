"""Measurement models and the closed forms available for nondisturbing ones.

A measurement model couples a base system to a probe through a channel
on the composite space, then reads a meter observable off the probe.
The brute-force path (tensor the input with the probe state, apply the
channel, weight by the meter effect, partial-trace) works for any
channel and is kept as the oracle.  When the channel is nondisturbing,
the measured instrument and observable, the post-interaction probe
instrument and observable, and the second-round (remeasured) effect
family all collapse to small sums over the probe table, implemented
here without ever forming composite operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    hermitian_part,
    kron,
    partial_trace,
    psd_sqrt,
    random_density,
    random_povm,
)
from .objects import Context, KrausOperation, Observable, State
from .channels import NDChannel, pair_overlap_kernel, probe_outputs, random_nd_channel

__all__ = [
    "MeasurementModel",
    "measured_instrument_direct",
    "measured_instrument_nd",
    "measured_observable_nd",
    "post_probe_instrument_direct",
    "post_probe_instrument_nd",
    "post_probe_observable",
    "remeasured_effect",
    "remeasured_effect_two_round",
    "random_model",
]


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
        t = self.nd.table
        meter = self.meter.effects[:, None, None]
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


def _check_inputs(mm: MeasurementModel, rho: State, sigma: State | None = None) -> None:
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    if sigma is not None and sigma.dim != mm.dim_probe:
        raise ValueError(f"probe input dimension {sigma.dim} != {mm.dim_probe}")


# Every instrument below returns one output per meter outcome, stacked in
# the order of ``meter.labels``: shape ``(outcomes, d, d)``.


def measured_instrument_direct(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Brute-force measured instrument, valid for any channel.

    Tensors the input with the probe state and applies the channel once;
    each outcome then weights the output by its meter effect on the probe
    side and traces the probe out.
    """
    _check_inputs(mm, rho)
    n, dk = mm.dim_base, mm.dim_probe
    interacted = mm.channel_operation().apply_matrix(
        kron(rho.matrix, mm.probe_state.matrix)
    )
    return np.array([
        hermitian_part(partial_trace(
            interacted @ kron(np.eye(n), effect), n, dk, over="right"
        ))
        for effect in mm.meter.effects
    ])


def measured_instrument_nd(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Closed-form measured instrument of a nondisturbing model.

    Outcome ``x`` is ``sum_{i,j} c_x[i, j] P_i rho P_j`` with the kernel
    ``c_x[i, j] = sum_k tr(B_i^k eta B_j^k* F_x)``.
    """
    _check_inputs(mm, rho)
    nd = mm.nd
    basis = nd.context.basis
    overlaps = basis.conj().T @ rho.matrix @ basis
    return np.array([
        hermitian_part(
            basis @ (pair_overlap_kernel(nd, mm.probe_state.matrix, f) * overlaps)
            @ basis.conj().T
        )
        for f in mm.meter.effects
    ])


def measured_observable_nd(mm: MeasurementModel) -> Observable:
    """Closed-form measured observable of a nondisturbing model.

    Outcome ``x`` maps to ``sum_i tr(G_i(eta) F_x) P_i`` where ``G_i`` is
    the probe channel of atom ``i``.  All effects are diagonal in the
    context and therefore commute pairwise.
    """
    basis = mm.nd.context.basis
    diag = np.real(np.einsum("iab,xba->xi", mm.evolved_probe, mm.meter.effects))
    effects = (basis * diag[:, None, :]) @ basis.conj().T
    return Observable.from_matrices(effects, mm.meter.labels)


def post_probe_instrument_direct(mm: MeasurementModel, rho: State, sigma: State) -> np.ndarray:
    """Brute-force post-interaction probe instrument.

    Applies the channel to ``rho (x) sigma`` once; each outcome then
    sandwiches the output between square roots of its lifted meter
    effect before tracing out the base: the symmetrized form is what
    keeps the output Hermitian, since the base-side partial trace is not
    cyclic.
    """
    _check_inputs(mm, rho, sigma)
    n, dk = mm.dim_base, mm.dim_probe
    interacted = mm.channel_operation().apply_matrix(kron(rho.matrix, sigma.matrix))
    out = []
    for effect in mm.meter.effects:
        root = kron(np.eye(n), psd_sqrt(effect))
        out.append(hermitian_part(partial_trace(root @ interacted @ root, n, dk, over="left")))
    return np.array(out)


def post_probe_instrument_nd(mm: MeasurementModel, rho: State, sigma: State) -> np.ndarray:
    """Closed-form post-interaction probe instrument.

    Outcome ``x`` is ``sum_i <v_i, rho v_i> F_x^(1/2) G_i(sigma) F_x^(1/2)``.
    """
    nd = mm.nd
    _check_inputs(mm, rho, sigma)
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, probe_outputs(nd, sigma.matrix), axes=1)
    return np.array([
        hermitian_part(root @ mixed @ root) for root in map(psd_sqrt, mm.meter.effects)
    ])


def post_probe_observable(mm: MeasurementModel, rho: State) -> Observable:
    """Observable measured on the probe after the interaction.

    Outcome ``x`` maps to ``sum_i <v_i, rho v_i> G_i*(F_x)``: the meter
    pulled back through each probe channel, mixed with the context
    diagonal of the input state.
    """
    nd = mm.nd
    _check_inputs(mm, rho)
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, mm.pulled_meter, axes=(0, 1))
    return Observable.from_matrices(map(hermitian_part, mixed), mm.meter.labels)


def remeasured_effect(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Second-round effect family of a nondisturbing model on its base space.

    Feeding the post-interaction probe observable back in as the meter
    yields ``B(rho, x) = sum_{i,j} tr(G_i(G_j(eta)) F_x) P_i rho P_i``:
    the probe meets a first base system in atom ``j``, then a second in
    atom ``i``.  The family is affine in the state, but its outcomes sum
    to ``dim_base`` times the context-dephased state rather than the
    identity: the unweighted sum over ``j`` puts the first base system
    in the identity, whose trace is ``dim_base``.
    """
    nd = mm.nd
    _check_inputs(mm, rho)
    twice = probe_outputs(nd, mm.evolved_probe.sum(axis=0))  # G_i(sum_j G_j(eta))
    basis = nd.context.basis
    weights = nd.context.weights(rho.matrix)
    out = []
    for meter in mm.meter.effects:
        coeff = np.real(np.einsum("iab,ba->i", twice, meter))
        out.append(hermitian_part((basis * (coeff * weights)) @ basis.conj().T))
    return np.array(out)


def remeasured_effect_two_round(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Oracle for :func:`remeasured_effect`: two brute-force rounds.

    Round one runs the composite channel on ``I/n (x) eta`` and traces the
    base out, leaving the probe state ``eta'`` that a maximally mixed
    first base system hands on.  Round two is the brute-force instrument
    of the same model with probe state ``eta'``, applied to ``rho``; each
    outcome is dephased atom by atom and scaled by ``n``.  Tracing the
    first base out between the rounds is exact, because round two never
    acts on it.
    """
    nd = mm.nd
    n, dk = mm.dim_base, mm.dim_probe
    first = mm.channel_operation().apply_matrix(
        kron(np.eye(n) / n, mm.probe_state.matrix)
    )
    handed_on = State(partial_trace(first, n, dk, over="left"))
    second = MeasurementModel(n, dk, handed_on, mm.channel, mm.meter)
    return np.array([
        n * sum(p @ out @ p for p in nd.context.atoms)
        for out in measured_instrument_direct(second, rho)
    ])


def random_model(
    dim_base: int,
    dim_probe: int,
    outcomes: int,
    kraus_count: int,
    seed,
    context: Context | None = None,
) -> MeasurementModel:
    """Random nondisturbing measurement model for randomized verification."""
    rng = np.random.default_rng(seed)
    if context is None:
        context = Context.standard(dim_base)
    probe_state = State(random_density(dim_probe, rng))
    meter = Observable.from_matrices(random_povm(dim_probe, outcomes, rng))
    channel = random_nd_channel(context, dim_probe, kraus_count, rng)
    return MeasurementModel(dim_base, dim_probe, probe_state, channel, meter)
