"""Channels on base x probe built from per-atom probe Kraus tables.

A channel is nondisturbing for a context when it has a Kraus
decomposition in which every Kraus operator splits into per-atom probe
blocks.  The canonical representation here is the probe table
``table[i, k]``, one stacked array: row ``i`` collects the probe-side
Kraus operators tied to context atom ``i``, and each row is itself a
channel on the probe space.  The composite Kraus operators are derived
from the table once and held by one ``KrausOperation``; channels compare
by their tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    as_complex_matrix,
    as_complex_stack,
    max_abs,
    random_kraus_channel,
)
from .objects import Context, KrausOperation, State
from .probes import ProbeDecomposition, _probe_blocks, commutator_defect

__all__ = [
    "NDChannel",
    "ReducedOutputs",
    "nd_channel_from_kraus",
    "random_nd_channel",
    "apply_product",
    "reduced_product_outputs",
    "pair_overlap_kernel",
    "probe_outputs",
]


@dataclass(frozen=True, eq=False)
class NDChannel:
    """Nondisturbing channel given by its probe table.

    ``table`` is one read-only array of shape
    ``(dim_base, kraus_count, dim_probe, dim_probe)``: ``table[i, k]`` is
    the probe-side Kraus operator for context atom ``i`` and Kraus index
    ``k``.  Every row must satisfy the channel completeness relation on
    the probe space.
    """

    context: Context
    table: np.ndarray

    def __post_init__(self):
        if len(self.table) != self.context.dim:
            raise ValueError(
                f"need one table row per context atom: "
                f"{len(self.table)} rows for dimension {self.context.dim}"
            )
        counts = {len(row) for row in self.table}
        if counts == {0} or len(counts) != 1:
            raise ValueError(f"table rows must share one nonzero length, got {counts}")
        shapes = {np.shape(b) for row in self.table for b in row}
        shape = next(iter(shapes))
        if len(shapes) != 1 or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"table entries must be square and same-shaped, got {shapes}")
        table = as_complex_stack(self.table, "table")
        gram = (np.conj(np.swapaxes(table, -1, -2)) @ table).sum(axis=1)
        defects = np.abs(gram - np.eye(shape[0])).max(axis=(1, 2))
        bad = np.flatnonzero(defects > DEFAULT_ATOL)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"table row {i} is not a channel on the probe space "
                f"(completeness defect {defects[i]:.3e})"
            )
        object.__setattr__(self, "table", table)

    @property
    def dim_base(self) -> int:
        return self.context.dim

    @property
    def dim_probe(self) -> int:
        return self.table.shape[2]

    @property
    def kraus_count(self) -> int:
        return self.table.shape[1]

    @property
    def table_array(self) -> np.ndarray:
        """The same object as :attr:`table`, kept under the name the benchmark reads."""
        return self.table

    @cached_property
    def induced_kraus(self) -> tuple[np.ndarray, ...]:
        """Kraus operators on the composite space: ``S_k = sum_i P_i (x) B_i^k``."""
        return self.as_operation().kraus

    @cached_property
    def _operation(self) -> KrausOperation:
        # The one owner of the composite Kraus family; its constructor runs
        # the composite completeness check.
        return KrausOperation(
            tuple(
                ProbeDecomposition(self.context, self.table[:, k]).assemble()
                for k in range(self.kraus_count)
            )
        )

    def as_operation(self) -> KrausOperation:
        """The channel on the composite space in generic Kraus form, built once."""
        return self._operation

    def probe_channel(self, i: int) -> KrausOperation:
        """The channel the probe undergoes when the base sits in atom ``i``."""
        if not 0 <= i < self.dim_base:
            raise IndexError(f"atom index {i} out of range 0..{self.dim_base - 1}")
        return KrausOperation(self.table[i])


def nd_channel_from_kraus(
    kraus: Sequence[np.ndarray], context: Context, dim_probe: int
) -> NDChannel:
    """Build the probe table of a channel given by nondisturbing Kraus operators.

    Every Kraus operator must individually pass the commutator test; the
    first failure is reported with its index and defect.  The resulting
    table row ``i`` collects the atom-``i`` block of each Kraus operator.
    """
    mats = [as_complex_matrix(s, f"kraus[{k}]") for k, s in enumerate(kraus)]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    blocks = []
    for k, s in enumerate(mats):
        defect = commutator_defect(s, context, dim_probe)
        if defect > DEFAULT_ATOL:
            raise ValueError(
                f"kraus operator {k} is disturbing for this context "
                f"(largest commutator norm {defect:.3e} > {DEFAULT_ATOL:.3e})"
            )
        blocks.append(_probe_blocks(s, context, dim_probe))
    total = sum(s.conj().T @ s for s in mats)
    defect = max_abs(total - np.eye(context.dim * dim_probe))
    if defect > DEFAULT_ATOL:
        raise ValueError(f"kraus family is not a channel (defect {defect:.3e})")
    return NDChannel(context, np.stack(blocks, axis=1))


def random_nd_channel(
    context: Context, dim_probe: int, kraus_count: int, seed
) -> NDChannel:
    """Random nondisturbing channel: one random probe channel per atom."""
    rng = np.random.default_rng(seed)
    table = [random_kraus_channel(dim_probe, kraus_count, rng) for _ in range(context.dim)]
    return NDChannel(context, table)


def pair_overlap_kernel(
    nd: NDChannel, eta: np.ndarray, weight: np.ndarray | None = None
) -> np.ndarray:
    """Coefficient kernel ``c[i, j] = sum_k tr(B_i^k eta B_j^k* W)``.

    With ``weight`` omitted, ``W`` is the identity.  These kernels drive
    every closed form for measured and reduced outputs.
    """
    t = nd.table
    left = t @ eta
    right = np.conj(np.swapaxes(t, -1, -2))
    if weight is not None:
        right = right @ np.asarray(weight, dtype=complex)
    return np.einsum("ikab,jkba->ij", left, right)


def probe_outputs(nd: NDChannel, sigma: np.ndarray) -> np.ndarray:
    """Per-atom probe channel outputs ``G_i(sigma) = sum_k B_i^k sigma B_i^k*``.

    ``sigma`` may carry leading batch axes; the result has shape
    ``sigma.shape[:-2] + (dim_base, dim_probe, dim_probe)``, one output
    per atom for every input.  Computed as batched matrix products over
    the stacked table.
    """
    t = nd.table
    stacked = np.asarray(sigma, dtype=complex)[..., None, None, :, :]
    return (t @ stacked @ np.conj(np.swapaxes(t, -1, -2))).sum(axis=-3)


class ReducedOutputs(NamedTuple):
    """Both partial traces of the channel output on a product state."""

    base: np.ndarray   # probe traced out; acts on the base space
    probe: np.ndarray  # base traced out; acts on the probe space


def apply_product(nd: NDChannel, rho: State, eta: State) -> np.ndarray:
    """Channel output on a product state, as a closed-form block sum.

    Computes ``sum_{i,j,k} (P_i rho P_j) (x) (B_i^k eta B_j^k*)`` without
    forming the composite Kraus operators.
    """
    if rho.dim != nd.dim_base:
        raise ValueError(f"base state has dimension {rho.dim}, expected {nd.dim_base}")
    if eta.dim != nd.dim_probe:
        raise ValueError(f"probe state has dimension {eta.dim}, expected {nd.dim_probe}")
    basis = nd.context.basis
    overlaps = basis.conj().T @ rho.matrix @ basis
    # blocks[i, j] = sum_k B_i^k eta B_j^k*; kept apart from the reduced
    # closed forms, which this output checks through its partial traces.
    t = nd.table
    blocks = np.einsum("ikab,jkcb->ijac", t @ eta.matrix, t.conj())
    n, dk = nd.dim_base, nd.dim_probe
    out = np.einsum("ij,ai,cj,ijbd->abcd", overlaps, basis, basis.conj(), blocks)
    return out.reshape(n * dk, n * dk)


def reduced_product_outputs(nd: NDChannel, rho: State, eta: State) -> ReducedOutputs:
    """Closed-form partial traces of the channel output on a product state.

    The base-side output is ``sum_{i,j,k} tr(B_i^k eta B_j^k*) P_i rho P_j``;
    the probe-side output is the convex mixture of the per-atom probe
    channels weighted by the context diagonal of ``rho``.
    """
    if rho.dim != nd.dim_base:
        raise ValueError(f"base state has dimension {rho.dim}, expected {nd.dim_base}")
    if eta.dim != nd.dim_probe:
        raise ValueError(f"probe state has dimension {eta.dim}, expected {nd.dim_probe}")
    basis = nd.context.basis
    kernel = pair_overlap_kernel(nd, eta.matrix)
    overlaps = basis.conj().T @ rho.matrix @ basis
    base = basis @ (kernel * overlaps) @ basis.conj().T
    weights = nd.context.weights(rho.matrix)
    probe = np.tensordot(weights, probe_outputs(nd, eta.matrix), axes=1)
    return ReducedOutputs(base=base, probe=probe)
