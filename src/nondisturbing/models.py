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
    "DirectOracle",
    "MeasurementModel",
    "measured_instrument_nd",
    "measured_observable_nd",
    "post_probe_instrument_nd",
    "post_probe_observable",
    "remeasured_effect",
    "random_model",
]


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Base-plus-probe measurement: probe state, interaction channel, meter.

    Both dimensions are read off the parts: :attr:`dim_probe` from the
    probe state, :attr:`dim_base` from the channel.  The channel on the
    composite space is a generic :class:`KrausOperation` or an
    :class:`NDChannel`; closed forms are only available for the latter.
    Their one state-independent tensor, :attr:`pulled_meter`, is computed
    once per model on first use.  The forms that evolve the probe state
    apply the probe channels per call instead, at a cost of ``n K dk^3``:
    reading ``tr(G_i(eta) F_x)`` off the pulled-back meter by duality would
    force its ``outcomes`` times larger build on every observable request.
    """

    probe_state: State
    channel: KrausOperation | NDChannel
    meter: Observable

    def __post_init__(self):
        if self.meter.dim != self.dim_probe:
            raise ValueError(
                f"meter dimension {self.meter.dim} != probe dimension {self.dim_probe}"
            )
        if isinstance(self.channel, NDChannel):
            if self.channel.dim_probe != self.dim_probe:
                raise ValueError("channel table does not match the probe dimension")
        elif not isinstance(self.channel, KrausOperation):
            raise TypeError(f"unsupported channel type {type(self.channel).__name__}")
        if self.channel.dim % self.dim_probe:
            raise ValueError(
                f"channel dimension {self.channel.dim} is not a multiple of "
                f"the probe dimension {self.dim_probe}"
            )

    @property
    def dim_probe(self) -> int:
        """The probe state's dimension."""
        return self.probe_state.dim

    @property
    def dim_base(self) -> int:
        """The channel's dimension over :attr:`dim_probe`."""
        return self.channel.dim // self.dim_probe

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


def _check_inputs(mm: MeasurementModel, rho: State, sigma: State | None = None) -> None:
    if rho.dim != mm.dim_base:
        raise ValueError(f"input state dimension {rho.dim} != {mm.dim_base}")
    if sigma is not None and sigma.dim != mm.dim_probe:
        raise ValueError(f"probe input dimension {sigma.dim} != {mm.dim_probe}")


# Every closed form and oracle below, instrument or observable, returns one
# output per meter outcome, stacked in the order of ``meter.labels``: shape
# ``(outcomes, d, d)``.


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
    # A fixed-order sum over the atoms: a BLAS product would round by its thread count.
    mixed = np.einsum("i,xiab->xab", weights, mm.pulled_meter)
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


def _own_hermitian_part(stack: np.ndarray) -> np.ndarray:
    # The oracles' copy of :func:`hermitian_part`, so that a bug there moves
    # the closed forms away from the oracles instead of moving both.
    return (stack + np.swapaxes(stack.conj(), -1, -2)) / 2


class DirectOracle:
    """The one way to run the brute-force oracles of a model, for any channel.

    Each oracle tensors an input ``rho`` with a probe input ``sigma``,
    applies the composite channel once and reads its outcomes off the
    output ``X``.  One object applies the channel once per distinct pair of
    input matrices, compared by value, and keeps only the two readings of
    ``X`` (see :meth:`readings`), so the oracles it serves share that work
    and nothing else: the measured instrument and the post-interaction
    instrument with the model's own probe state read one ``X``, and the
    first round of the two-round oracle runs once, reusing the ``X`` of
    an input equal to ``I/n``.  No oracle reads closed-form code; the
    post-interaction one takes its own square roots and every output its
    own Hermitian part.
    """

    def __init__(self, mm: MeasurementModel):
        self.mm = mm
        self._readings: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}

    def readings(self, rho: State, sigma: State) -> tuple[np.ndarray, np.ndarray]:
        """Both readings of ``X``, the channel's output on ``rho (x) sigma``.

        The first is ``Tr_probe[X (I (x) F_x)]`` per meter outcome, in the
        order of ``meter.labels``, Hermitised: one product that contracts
        the output's probe indices with each flattened effect.  The second
        is ``Tr_base[X]``.  Both are read-only, since every caller with the
        same pair gets the same arrays.  Pairs are keyed by the bytes of
        their matrices: equal states give one application of the channel.
        """
        key = (rho.matrix.tobytes(), sigma.matrix.tobytes())
        if key not in self._readings:
            mm = self.mm
            _check_inputs(mm, rho, sigma)
            n, dk = mm.dim_base, mm.dim_probe
            interacted = mm.channel.apply_matrix(kron(rho.matrix, sigma.matrix))
            # Row (a, b), column (q, p) holds X[(a, p), (b, q)], to meet F_x[q, p].
            pairs = interacted.reshape(n, dk, n, dk).transpose(0, 2, 3, 1).reshape(n * n, dk * dk)
            outs = (pairs @ mm.meter.effects.reshape(-1, dk * dk).T).T.reshape(-1, n, n)
            readings = (_own_hermitian_part(outs), partial_trace(interacted, n, dk, over="left"))
            for reading in readings:
                reading.setflags(write=False)
            self._readings[key] = readings
        return self._readings[key]

    def instrument(self, rho: State) -> np.ndarray:
        """Measured instrument: outcome ``x`` is ``Tr_probe[X (I (x) F_x)]``, probe state ``eta``.

        A writable copy of the shared reading, like every oracle's output.
        """
        return self.readings(rho, self.mm.probe_state)[0].copy()

    @cached_property
    def meter_roots(self) -> np.ndarray:
        """``F_x^(1/2)`` per outcome, in the order of ``meter.labels``.

        One batched eigendecomposition of the meter, with the eigenvalues
        clipped at 0; the closed forms take theirs from :func:`psd_sqrt`.
        """
        w, v = np.linalg.eigh(self.mm.meter.effects)
        roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)
        return _own_hermitian_part(roots)

    def post_probe(self, rho: State, sigma: State) -> np.ndarray:
        """Post-interaction probe instrument on ``X = channel(rho (x) sigma)``.

        Outcome ``x`` is ``Tr_base[(I (x) R) X (I (x) R)]`` with
        ``R = F_x^(1/2)``; a probe-side factor passes through the base-side
        partial trace, so this is ``R Tr_base[X] R`` exactly.
        """
        reduced = self.readings(rho, sigma)[1]
        return _own_hermitian_part(self.meter_roots @ reduced @ self.meter_roots)

    @cached_property
    def handed_on(self) -> State:
        """Probe state ``eta'`` that a maximally mixed first base system hands on.

        Round one of the two-round oracle: the base traced out of the
        channel's output on ``I/n (x) eta``.
        """
        n = self.mm.dim_base
        return State(self.readings(State(np.eye(n) / n), self.mm.probe_state)[1])

    def remeasure(self, rho: State) -> np.ndarray:
        """Oracle for :func:`remeasured_effect`: two brute-force rounds.

        Round two is the measured instrument of the same model with probe
        state :attr:`handed_on`, applied to ``rho``; each outcome is
        dephased, ``sum_i P_i out P_i``, and scaled by ``n``.  Tracing the
        first base out between the rounds is exact, because round two never
        acts on it.
        """
        basis = self.mm.nd.context.basis
        n = self.mm.dim_base
        outs = self.readings(rho, self.handed_on)[0]
        # <v_i, out v_i> for every outcome, spread back over the atoms
        diag = np.einsum("ai,xab,bi->xi", basis.conj(), outs, basis)
        return n * (basis * diag[:, None, :]) @ basis.conj().T


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
    if context.dim != dim_base:
        raise ValueError(f"context dimension {context.dim} != {dim_base}")
    probe_state = State(random_density(dim_probe, rng))
    meter = Observable.from_matrices(random_povm(dim_probe, outcomes, rng))
    channel = random_nd_channel(context, dim_probe, kraus_count, rng)
    return MeasurementModel(probe_state, channel, meter)
