"""Operators on a composite space that leave a measurement context alone.

An operator ``A`` on base x probe commutes with every context atom
``P_i (x) I`` exactly when it splits into per-atom probe blocks:
``A = sum_i P_i (x) B_i``.  This module detects that structure, extracts
and reassembles the blocks, and provides the closed forms that follow
from it: partial traces, structural classification, operator order, and
conjugation of product operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    as_complex_stack,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
)
from .objects import Context

__all__ = [
    "ProbeDecomposition",
    "ProbeFlags",
    "ReducedTraceFlags",
    "commutator_defect",
    "is_c_nondisturbing",
    "extract_probes",
    "extract_probes_by_matrix_elements",
    "closed_form_partial_traces",
    "classify",
    "reduced_trace_flags",
    "order_leq_via_probes",
    "conjugate",
]


@dataclass(frozen=True, eq=False)
class ProbeDecomposition:
    """A nondisturbing operator split into its per-atom probe blocks.

    ``probes`` is one read-only array of shape ``(dim_base, dim_probe,
    dim_probe)``; ``probes[i]`` is the block of context atom ``i``.
    """

    context: Context
    probes: np.ndarray

    def __post_init__(self):
        if len(self.probes) != self.context.dim:
            raise ValueError(
                f"need one probe block per context atom: "
                f"{len(self.probes)} blocks for dimension {self.context.dim}"
            )
        shapes = {np.shape(b) for b in self.probes}
        shape = next(iter(shapes), ())
        if len(shapes) != 1 or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"probe blocks must be square and same-shaped, got {shapes}")
        object.__setattr__(self, "probes", as_complex_stack(self.probes, "probe block"))

    @property
    def dim_base(self) -> int:
        return self.context.dim

    @property
    def dim_probe(self) -> int:
        return self.probes[0].shape[0]

    def assemble(self) -> np.ndarray:
        """Rebuild the full operator ``sum_i P_i (x) B_i``.

        Places the blocks on the diagonal in the context basis and rotates
        back: ``(V (x) I) blockdiag(B) (V* (x) I)``, one base-index
        contraction against ``V``.
        """
        n, dk = self.dim_base, self.dim_probe
        basis = self.context.basis
        # placed[i, p, b, q] = B_i[p, q] conj(V[b, i]) is blockdiag(B) (V* (x) I)
        placed = self.probes[:, :, None, :] * basis.conj().T[:, None, :, None]
        return (basis @ placed.reshape(n, -1)).reshape(n * dk, n * dk)

    def adjoint(self) -> "ProbeDecomposition":
        return ProbeDecomposition(self.context, np.conj(np.swapaxes(self.probes, -1, -2)))


@dataclass(frozen=True)
class ProbeFlags:
    """Structural properties shared by a nondisturbing operator and its blocks."""

    self_adjoint: bool
    unitary: bool
    projection: bool
    effect: bool
    observable_family: bool


@dataclass(frozen=True)
class ReducedTraceFlags:
    """Structural properties of the probe-traced operator, read off block traces.

    The projection flag tests block traces for membership in the two-point
    set {0, 1}: a diagonal operator is idempotent exactly when each diagonal
    entry is 0 or 1.
    """

    self_adjoint: bool
    unitary: bool
    effect: bool
    projection: bool


def _check_composite(a: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    total = context.dim * dim_probe
    if arr.ndim != 2 or arr.shape != (total, total):
        raise ValueError(
            f"operator must be {total} x {total} for base dimension "
            f"{context.dim} and probe dimension {dim_probe}, got {arr.shape}"
        )
    return arr


def _atom_rows(arr: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    """``W_i* A`` for every atom, with ``W_i = v_i (x) I``; shape (n, dk, n, dk).

    One base-index contraction ``V* @ A.reshape(n, -1)``.
    """
    n = context.dim
    rows = context.basis.conj().T @ arr.reshape(n, -1)
    return rows.reshape(n, dim_probe, n, dim_probe)


def _probe_blocks(arr: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    """Diagonal blocks of ``(V* (x) I) A (V (x) I)``, shape (n, dk, dk), untested.

    Block ``i`` is ``W_i* A W_i``, which equals the base-side partial trace
    of ``A (P_i (x) I)``.  Callers run the commutator test first.
    """
    return np.einsum("ipbq,bi->ipq", _atom_rows(arr, context, dim_probe), context.basis)


def commutator_defect(a, context: Context, dim_probe: int) -> float:
    """Largest commutator norm ``max_i ||[A, P_i (x) I]||_max``.

    The max-entry norm is read in the original basis.  Each lifted atom
    factors as ``W_i W_i*`` with the rank-``dk`` isometry ``W_i = v_i (x) I``,
    so ``[A, P_i (x) I] = (A W_i) W_i* - W_i (W_i* A)``.  All ``A W_i`` and
    ``W_i* A`` come from two base-index contractions, ``O(n^3 dk^2)`` each;
    the commutators are then formed one atom at a time in one reused
    ``(n dk) x (n dk)`` buffer.
    """
    arr = _check_composite(a, context, dim_probe)
    n, dk = context.dim, dim_probe
    basis = context.basis
    rows = _atom_rows(arr, context, dk)                        # [i, p, b, q]
    # A W_i for every atom; the reordered copy of A is freed before the loop
    # so that peak memory stays at rows, cols and one commutator buffer
    by_column = arr.reshape(n * dk, n, dk).transpose(1, 0, 2).reshape(n, -1)
    cols = (basis.T @ by_column).reshape(n, n, dk, dk)         # [i, a, p, q]
    del by_column
    comm = np.empty((n, dk, n, dk), dtype=complex)
    worst = 0.0
    for i in range(n):
        v = basis[:, i]
        np.multiply(cols[i][:, :, None, :], v.conj()[:, None], out=comm)
        comm -= v[:, None, None, None] * rows[i]
        worst = max(worst, max_abs(comm))
    return worst


def is_c_nondisturbing(a, context: Context, dim_probe: int, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``a`` commutes with every lifted context atom within ``atol``."""
    return commutator_defect(a, context, dim_probe) <= atol


def extract_probes(a, context: Context, dim_probe: int) -> ProbeDecomposition:
    """Recover the probe blocks of a nondisturbing operator.

    Block ``i`` is the ``i``-th diagonal block of ``(V* (x) I) A (V (x) I)``,
    with the context basis ``V`` as columns.  It equals the base-side
    partial trace of ``A (P_i (x) I)`` and does not depend on any
    probe-space basis choice.  Rejects operators that fail the commutator
    test at ``DEFAULT_ATOL``, reporting the largest defect.
    """
    arr = _check_composite(a, context, dim_probe)
    defect = commutator_defect(arr, context, dim_probe)
    if defect > DEFAULT_ATOL:
        raise ValueError(
            f"operator is not nondisturbing for this context "
            f"(largest commutator norm {defect:.3e} > {DEFAULT_ATOL:.3e})"
        )
    return ProbeDecomposition(context, _probe_blocks(arr, context, dim_probe))


def extract_probes_by_matrix_elements(
    a, context: Context, dim_probe: int, probe_basis: np.ndarray | None = None
) -> ProbeDecomposition:
    """Recover probe blocks from matrix elements against an explicit probe basis.

    Computes ``B_i phi = sum_j <v_i (x) u_j, A (v_i (x) phi)> u_j`` column by
    column, for any orthonormal probe basis ``{u_j}`` (default standard).
    Independent implementation of :func:`extract_probes`, kept as a
    cross-check; the result must not depend on the basis chosen.
    """
    arr = _check_composite(a, context, dim_probe)
    if probe_basis is None:
        probe_basis = np.eye(dim_probe, dtype=complex)
    else:
        probe_basis = np.asarray(probe_basis, dtype=complex)
        if probe_basis.shape != (dim_probe, dim_probe):
            raise ValueError(f"probe basis must be {dim_probe} x {dim_probe}")
    eye = np.eye(dim_probe, dtype=complex)
    blocks = []
    for i in range(context.dim):
        v = context.vector(i).reshape(-1, 1)
        bra = kron(v, probe_basis).conj().T     # rows <v_i (x) u_j|
        ket = arr @ kron(v, eye)                # columns A(v_i (x) e_l)
        blocks.append(probe_basis @ (bra @ ket))
    return ProbeDecomposition(context, blocks)


def closed_form_partial_traces(decomp: ProbeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces of the assembled operator, straight from the blocks.

    Returns ``(over_base, over_probe)``: tracing out the base gives the
    block sum (an operator on the probe space); tracing out the probe
    gives the block traces spread over the atoms (an operator on the base
    space, measurable in the context by construction).
    """
    over_base = sum(decomp.probes)
    over_probe = sum(
        np.trace(b) * decomp.context.atom(i) for i, b in enumerate(decomp.probes)
    )
    return over_base, over_probe


def classify(decomp: ProbeDecomposition, atol: float = DEFAULT_ATOL) -> ProbeFlags:
    """Read structural properties of the assembled operator off its blocks.

    Each flag holds for the full operator exactly when it holds for every
    block; the observable-family flag additionally requires the blocks to
    sum to the probe identity.
    """
    probes = decomp.probes
    effect = all(is_effect_matrix(b, atol) for b in probes)
    family = effect and max_abs(
        sum(probes) - np.eye(decomp.dim_probe)
    ) <= atol
    return ProbeFlags(
        self_adjoint=all(is_hermitian(b, atol) for b in probes),
        unitary=all(is_unitary(b, atol) for b in probes),
        projection=all(is_projection_matrix(b, atol) for b in probes),
        effect=effect,
        observable_family=family,
    )


def reduced_trace_flags(decomp: ProbeDecomposition, atol: float = DEFAULT_ATOL) -> ReducedTraceFlags:
    """Classify the probe-traced operator from the block traces alone."""
    traces = np.trace(decomp.probes, axis1=1, axis2=2)
    real = bool(np.all(np.abs(traces.imag) <= atol))
    return ReducedTraceFlags(
        self_adjoint=real,
        unitary=bool(np.all(np.abs(np.abs(traces) - 1.0) <= atol)),
        effect=real and bool(
            np.all(traces.real >= -atol) and np.all(traces.real <= 1 + atol)
        ),
        projection=real and bool(
            np.all(
                (np.abs(traces.real) <= atol)
                | (np.abs(traces.real - 1.0) <= atol)
            )
        ),
    )


def order_leq_via_probes(
    a: ProbeDecomposition, d: ProbeDecomposition, atol: float = DEFAULT_ATOL
) -> bool:
    """Operator order of assembled operators, decided blockwise."""
    if a.context is not d.context and max_abs(a.context.basis - d.context.basis) > atol:
        raise ValueError("decompositions use different contexts")
    if a.dim_probe != d.dim_probe:
        raise ValueError(
            f"probe dimension mismatch: {a.dim_probe} vs {d.dim_probe}"
        )
    return all(
        loewner_leq(b, c, atol) for b, c in zip(a.probes, d.probes)
    )


def conjugate(decomp: ProbeDecomposition, base_factor, probe_factor) -> np.ndarray:
    """Closed form for ``A (B (x) D) A*`` with ``A`` assembled from the blocks.

    Equals ``sum_{i,j} (P_i B P_j) (x) (B_i D B_j*)``.  In the context basis
    block ``(i, j)`` is ``<v_i, B v_j> B_i D B_j*``; the blocks are placed
    there and rotated back once with ``V (x) I``, forming no Kronecker
    product and never touching the full operator ``A``.
    """
    b = np.asarray(base_factor, dtype=complex)
    d = np.asarray(probe_factor, dtype=complex)
    n, dk = decomp.dim_base, decomp.dim_probe
    if b.shape != (n, n):
        raise ValueError(f"base factor must be {n} x {n}, got {b.shape}")
    if d.shape != (dk, dk):
        raise ValueError(f"probe factor must be {dk} x {dk}, got {d.shape}")
    basis = decomp.context.basis
    weights = basis.conj().T @ b @ basis                       # <v_i, B v_j>
    stacked = decomp.probes.reshape(n * dk, dk)               # rows of B_i
    # placed[i, p, j, q] = <v_i, B v_j> (B_i D B_j*)[p, q]
    placed = ((stacked @ d) @ stacked.conj().T).reshape(n, dk, n, dk)
    placed *= weights[:, None, :, None]
    rotated = basis @ placed.reshape(n, -1)                    # (V (x) I) placed
    # right factor V* (x) I: contract the second base index against conj(V)
    return (basis.conj() @ rotated.reshape(n * dk, n, dk)).reshape(n * dk, n * dk)
