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
    as_complex_stack,
    _dot_rounding,
    _gaussians,
    _polar_blocks,
    completeness_defects,
)
from .objects import Context, KrausOperation, State, _BoundedKraus
from .probes import ProbeDecomposition, _certify

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
        table = as_complex_stack(self.table, "table entries", 4)
        if len(table) != self.context.dim:
            raise ValueError(
                f"need one table row per context atom: "
                f"{len(table)} rows for dimension {self.context.dim}"
            )
        defects = completeness_defects(table)
        bad = np.flatnonzero(defects > DEFAULT_ATOL)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"table row {i} is not a channel on the probe space "
                f"(completeness defect {defects[i]:.3e})"
            )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_row_defect", float(defects.max()))

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
    def induced_kraus(self) -> np.ndarray:
        """Kraus operators on the composite space: ``S_k = sum_i P_i (x) B_i^k``.

        One read-only array of shape ``(kraus_count, n dk, n dk)``.
        """
        return self.as_operation().kraus

    @cached_property
    def _operation(self) -> KrausOperation:
        # The one owner of the composite Kraus family.  Each assembled member
        # lies within the rounding of its n-term sums of the exact
        # sum_i P_i (x) B_i^k, so the checked rows bound the composite
        # completeness defect (_completeness_bound); the constructor runs its
        # Gram product only when that bound exceeds DEFAULT_ATOL.
        n = self.dim_base
        kraus = [
            ProbeDecomposition(self.context, self.table[:, k]).assemble()
            for k in range(self.kraus_count)
        ]
        sizes = np.sqrt(np.einsum("ikpq,ikpq->k", self.table.conj(), self.table).real)
        slack = _dot_rounding(n) * n * (1 + self.context._orthonormality_bound)
        bound = _completeness_bound(self.context, self.dim_probe, self._row_defect, slack * sizes)
        return KrausOperation(_BoundedKraus(kraus, bound))

    def as_operation(self) -> KrausOperation:
        """The channel on the composite space in generic Kraus form, built once."""
        return self._operation

    def probe_channel(self, i: int) -> KrausOperation:
        """The channel the probe undergoes when the base sits in atom ``i``."""
        if not 0 <= i < self.dim_base:
            raise IndexError(f"atom index {i} out of range 0..{self.dim_base - 1}")
        return KrausOperation(self.table[i])


def _completeness_bound(
    context: Context, dim_probe: int, row_defect: float, residuals: Sequence[float]
) -> float:
    """Upper bound on ``completeness_defects`` of a composite Kraus family.

    The family ``S_k`` lies within ``||S_k - A_k||_F <= residuals[k]`` of
    ``A_k = sum_i P_i (x) B_i^k`` for a table ``B`` whose rows have the
    computed completeness defect ``row_defect``.  With ``eps`` the
    context's ``_orthonormality_bound``, ``lam = 1 + eps``, ``rho`` the
    row defect plus its rounding and ``c = 1 + dk rho``,

        max|sum_k S_k* S_k - I| <= lam rho + eps (1 + lam c)
                                   + sum_k e_k (2 lam sqrt(c) + e_k),

    and the rounding of the composite Gram product that the bound stands
    for is added last.
    """
    count = len(residuals)
    eps = context._orthonormality_bound
    lam = 1 + eps
    rho = row_defect + _dot_rounding(count * dim_probe) * (1 + row_defect)
    c = 1 + dim_probe * rho
    e = np.asarray(residuals, dtype=float)
    bound = lam * rho + eps * (1 + lam * c) + float(np.sum(e * (2 * lam * np.sqrt(c) + e)))
    return bound + _dot_rounding(count * context.dim * dim_probe) * (1 + bound)


def nd_channel_from_kraus(
    kraus: Sequence[np.ndarray], context: Context, dim_probe: int
) -> NDChannel:
    """Build the probe table of a channel given by nondisturbing Kraus operators.

    Every Kraus operator must individually pass the commutator test; the
    first failure is reported with its index and defect.  The resulting
    table row ``i`` collects the atom-``i`` block of each Kraus operator.
    The family must be a channel: the completeness defect of the table's
    rows, widened by how far each operator lies from the one assembled
    from its blocks, bounds the family's defect, and the family's own
    Gram product decides only when that bound exceeds ``DEFAULT_ATOL``.
    """
    mats = as_complex_stack(kraus, "Kraus operators", 3)
    blocks, residuals = [], []
    for k, s in enumerate(mats):
        defect, probes, residual = _certify(s, context, dim_probe, DEFAULT_ATOL)
        if defect > DEFAULT_ATOL:
            raise ValueError(
                f"kraus operator {k} is disturbing for this context "
                f"(largest commutator norm {defect:.3e} > {DEFAULT_ATOL:.3e})"
            )
        blocks.append(probes)
        residuals.append(residual)
    table = np.stack(blocks, axis=1)
    row_defect = float(completeness_defects(table).max())
    if not _completeness_bound(context, dim_probe, row_defect, residuals) <= DEFAULT_ATOL:
        defect = float(completeness_defects(mats))
        if defect > DEFAULT_ATOL:
            raise ValueError(f"kraus family is not a channel (defect {defect:.3e})")
    return NDChannel(context, table)


def random_nd_channel(
    context: Context, dim_probe: int, kraus_count: int, seed
) -> NDChannel:
    """Random nondisturbing channel: one random probe channel per atom.

    Row ``i`` is drawn as :func:`~nondisturbing.linalg.random_kraus_channel`
    would draw it after rows ``0..i-1``; all rows share one batched SVD.
    """
    if kraus_count < 1:
        raise ValueError("kraus_count must be >= 1")
    n = context.dim
    draws = _gaussians(dim_probe, n * kraus_count, np.random.default_rng(seed))
    return NDChannel(context, _polar_blocks(draws.reshape(n, kraus_count, dim_probe, dim_probe)))


def pair_overlap_kernel(
    nd: NDChannel, eta: np.ndarray, weight: np.ndarray | None = None
) -> np.ndarray:
    """Coefficient kernel ``c[..., i, j] = sum_k tr(B_i^k eta B_j^k* W)``.

    With ``weight`` omitted, ``W`` is the identity.  ``weight`` may carry
    leading batch axes, such as the outcome axis of a meter; the result has
    shape ``weight.shape[:-2] + (dim_base, dim_base)``, one kernel per
    weight.  These kernels drive every closed form for measured and reduced
    outputs.
    """
    t = nd.table
    left = t @ eta
    right = np.conj(np.swapaxes(t, -1, -2))
    if weight is not None:
        right = right @ np.asarray(weight, dtype=complex)[..., None, None, :, :]
    return np.einsum("ikab,...jkba->...ij", left, right)


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
