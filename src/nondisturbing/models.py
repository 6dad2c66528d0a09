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
    Their one state-independent tensor, :attr:`pulled_meter`, is computed
    once per model on first use.  The forms that evolve the probe state
    apply the probe channels per call instead, at a cost of ``n K dk^3``:
    reading ``tr(G_i(eta) F_x)`` off the pulled-back meter by duality would
    force its ``outcomes`` times larger build on every observable request.
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

    def channel_operation(self) -> KrausOperation:
        if isinstance(self.channel, NDChannel):
            return self.channel.as_operation()
        return self.channel


def _check_inputs(mm: MeasurementModel, rho: State, sigma: State | None = None) -> None:
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    if sigma is not None and sigma.dim != mm.dim_probe:
        raise ValueError(f"probe input dimension {sigma.dim} != {mm.dim_probe}")


# Every closed form and oracle below, instrument or observable, returns one
# output per meter outcome, stacked in the order of ``meter.labels``: shape
# ``(outcomes, d, d)``.


def measured_instrument_direct(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Brute-force measured instrument, valid for any channel.

    Tensors the input with the probe state and applies the channel once;
    outcome ``x`` is then ``Tr_probe[X (I (x) F_x)]`` of that output ``X``,
    one contraction of its probe indices with the meter effect.
    """
    _check_inputs(mm, rho)
    n, dk = mm.dim_base, mm.dim_probe
    interacted = mm.channel_operation().apply_matrix(
        kron(rho.matrix, mm.probe_state.matrix)
    ).reshape(n, dk, n, dk)
    outs = np.einsum("apbq,xqp->xab", interacted, mm.meter.effects)
    return (outs + np.swapaxes(outs.conj(), -1, -2)) / 2


def measured_instrument_nd(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Closed-form measured instrument of a nondisturbing model.

    Outcome ``x`` is ``sum_{i,j} c_x[i, j] P_i rho P_j`` with the kernel
    ``c_x[i, j] = sum_k tr(B_i^k eta B_j^k* F_x)``, one kernel per outcome.
    """
    _check_inputs(mm, rho)
    nd = mm.nd
    basis = nd.context.basis
    overlaps = basis.conj().T @ rho.matrix @ basis
    kernels = pair_overlap_kernel(nd, mm.probe_state.matrix, mm.meter.effects)
    return hermitian_part(basis @ (kernels * overlaps) @ basis.conj().T)


def measured_observable_nd(mm: MeasurementModel) -> np.ndarray:
    """Closed-form measured observable of a nondisturbing model.

    Outcome ``x`` maps to ``sum_i tr(G_i(eta) F_x) P_i`` where ``G_i`` is
    the probe channel of atom ``i``.  All effects are diagonal in the
    context and therefore commute pairwise.
    """
    basis = mm.nd.context.basis
    evolved = probe_outputs(mm.nd, mm.probe_state.matrix)
    diag = np.real(np.einsum("iab,xba->xi", evolved, mm.meter.effects))
    return (basis * diag[:, None, :]) @ basis.conj().T


def post_probe_instrument_direct(mm: MeasurementModel, rho: State, sigma: State) -> np.ndarray:
    """Brute-force post-interaction probe instrument.

    Applies the channel to ``rho (x) sigma`` once and traces the base out
    of the output ``X``.  Outcome ``x`` is ``Tr_base[(I (x) R) X (I (x) R)]``
    with ``R = F_x^(1/2)``; a probe-side factor passes through the
    base-side partial trace, so this is ``R Tr_base[X] R`` exactly.  The
    roots come from one batched eigendecomposition of the meter, with the
    eigenvalues clipped at 0; the closed forms take theirs from
    :func:`psd_sqrt`.
    """
    _check_inputs(mm, rho, sigma)
    n, dk = mm.dim_base, mm.dim_probe
    interacted = mm.channel_operation().apply_matrix(kron(rho.matrix, sigma.matrix))
    reduced = partial_trace(interacted, n, dk, over="left")
    w, v = np.linalg.eigh(mm.meter.effects)
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)
    roots = (roots + np.swapaxes(roots.conj(), -1, -2)) / 2
    outs = roots @ reduced @ roots
    return (outs + np.swapaxes(outs.conj(), -1, -2)) / 2


def post_probe_instrument_nd(mm: MeasurementModel, rho: State, sigma: State) -> np.ndarray:
    """Closed-form post-interaction probe instrument.

    Outcome ``x`` is ``sum_i <v_i, rho v_i> F_x^(1/2) G_i(sigma) F_x^(1/2)``.
    """
    nd = mm.nd
    _check_inputs(mm, rho, sigma)
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, probe_outputs(nd, sigma.matrix), axes=1)
    roots = psd_sqrt(mm.meter.effects)
    return hermitian_part(roots @ mixed @ roots)


def post_probe_observable(mm: MeasurementModel, rho: State) -> np.ndarray:
    """Observable measured on the probe after the interaction.

    Outcome ``x`` maps to ``sum_i <v_i, rho v_i> G_i*(F_x)``: the meter
    pulled back through each probe channel, mixed with the context
    diagonal of the input state.
    """
    nd = mm.nd
    _check_inputs(mm, rho)
    weights = nd.context.weights(rho.matrix)
    mixed = np.tensordot(weights, mm.pulled_meter, axes=(0, 1))
    return hermitian_part(mixed)


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
    handed_on = probe_outputs(nd, mm.probe_state.matrix).sum(axis=0)
    twice = probe_outputs(nd, handed_on)  # G_i(sum_j G_j(eta))
    coeff = np.real(np.einsum("iab,xba->xi", twice, mm.meter.effects))
    basis = nd.context.basis
    weights = nd.context.weights(rho.matrix)
    return hermitian_part((basis * (coeff * weights)[:, None, :]) @ basis.conj().T)


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
