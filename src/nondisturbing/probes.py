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
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    _UNIT_ROUNDOFF,
    _check_parts,
    _dot_rounding,
    as_complex_stack,
    fold_max,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_unitary,
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

_TINY = np.finfo(float).tiny  # smallest normal float
# The full scan's entry count, n (n dk)^2, from which _certify prunes it.  Below
# it, forming the pair bounds costs more than the entries they let the scan
# skip; at n = dk = 8 (2^15 entries) the two break even.
_PRUNED_SCAN_ENTRIES = 2**15


@dataclass(frozen=True, eq=False)
class ProbeDecomposition:
    """A nondisturbing operator split into its per-atom probe blocks.

    ``probes`` is one read-only array of shape ``(dim_base, dim_probe,
    dim_probe)``; ``probes[i]`` is the block of context atom ``i``.
    """

    context: Context
    probes: np.ndarray

    def __post_init__(self):
        probes = as_complex_stack(self.probes, "probe blocks", 3)
        if len(probes) != self.context.dim:
            raise ValueError(
                f"need one probe block per context atom: "
                f"{len(probes)} blocks for dimension {self.context.dim}"
            )
        object.__setattr__(self, "probes", probes)

    @property
    def dim_base(self) -> int:
        return self.context.dim

    @property
    def dim_probe(self) -> int:
        return self.probes[0].shape[0]

    def assemble(self) -> np.ndarray:
        """Rebuild the full operator ``sum_i P_i (x) B_i``."""
        return _assemble(self.context.basis, self.probes)


def _assemble(basis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``sum_i P_i (x) B_i`` for the context basis ``V`` and the blocks ``B_i``.

    Places the blocks on the diagonal in the context basis and rotates
    back: ``(V (x) I) blockdiag(B) (V* (x) I)``, one base-index
    contraction against ``V``.
    """
    n, dk = blocks.shape[:2]
    # placed[i, p, b, q] = B_i[p, q] conj(V[b, i]) is blockdiag(B) (V* (x) I)
    placed = blocks[:, :, None, :] * basis.conj().T[:, None, :, None]
    return (basis @ placed.reshape(n, -1)).reshape(n * dk, n * dk)


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


def _check_size(shape: tuple, context: Context, dim_probe: int) -> None:
    """Refuse an operator ``shape`` other than ``n dk x n dk``."""
    total = context.dim * dim_probe
    if shape != (total, total):
        raise ValueError(
            f"operator must be {total} x {total} for base dimension "
            f"{context.dim} and probe dimension {dim_probe}, got {shape}"
        )


def _check_composite(a: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    _check_size(arr.shape, context, dim_probe)
    # No defect could reject a NaN, which compares false, or a part whose products overflow.
    _check_parts(arr, "operator")
    return arr


def _atom_rows(arr: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    """``W_i* A`` for every atom, with ``W_i = v_i (x) I``; shape (n, dk, n, dk).

    One base-index contraction ``V* @ A.reshape(n, -1)``.
    """
    n = context.dim
    rows = context.basis.conj().T @ arr.reshape(n, -1)
    return rows.reshape(n, dim_probe, n, dim_probe)


def _atom_cols(arr: np.ndarray, context: Context, dim_probe: int) -> np.ndarray:
    """``A W_i`` for every atom; shape (n, n, dk, dk), indexed ``[i, a, p, q]``.

    One base-index contraction against ``V`` on a reordered copy of ``A``,
    which is freed on return.
    """
    n, dk = context.dim, dim_probe
    by_column = arr.reshape(n * dk, n, dk).transpose(1, 0, 2).reshape(n, -1)
    return (context.basis.T @ by_column).reshape(n, n, dk, dk)


def _column_blocks(context: Context, cols: np.ndarray) -> np.ndarray:
    """``B_i = W_i* C_i`` for the ``C_i = A W_i`` of :func:`_atom_cols`; shape (n, dk, dk)."""
    n, dk = context.dim, cols.shape[-1]
    return (context.basis.conj().T[:, None, :] @ cols.reshape(n, n, -1)).reshape(n, dk, dk)


class _Certificate(NamedTuple):
    """The decided commutator test of one operator; see :func:`_certify`."""

    defect: float
    blocks: np.ndarray
    residual: float


def _context_bound(
    arr: np.ndarray, context: Context, dim_probe: int
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """An upper bound on :func:`commutator_defect`, read in the context basis.

    Returns ``(bound, blocks, residual, R)``.  With ``W = V (x) I`` the
    rotated operator ``T = W* A W``, indexed ``[i, p, j, q]``, is the
    batched product ``V^T R`` on the rows ``R = W* A`` of
    :func:`_atom_rows`, which are returned for the exact scan.  It is
    formed one block row ``T_i`` at a time in one reused buffer, whose
    block norms are read at once, so ``T`` is never held whole.  The
    blocks are its diagonal blocks ``T_ii``, shape (n, dk, dk).  With
    ``G = W* W``, ``E_i = e_i e_i* (x) I`` and ``eta = eps / (1 - eps)``
    for the context's ``_orthonormality_bound`` ``eps``,

        [A, P_i (x) I] = W (G^-1 T E_i - E_i T G^-1) W*,

    so ``||[A, P_i (x) I]||_max <= (1 + eps) (||[T, E_i]||_F + 2 eta ||T||_F)``,
    where ``||[T, E_i]||_F^2`` sums ``||T_ij||_F^2 + ||T_ji||_F^2`` over
    ``j != i``.  Every block norm comes from one pass over ``T``.  In the
    same way ``residual >= ||A - sum_i P_i (x) blocks[i]||_F`` widens the
    Frobenius norm of the off-diagonal blocks.  Both add the rounding of
    the two contractions, at most ``s ||A||_F`` with
    ``s = gamma (1 + eps) (2 sqrt(n) + gamma n)`` and
    ``gamma = _dot_rounding(n)``, where ``||A||_F <= ||T||_F / (1 - eps - s)``;
    a relative ``_dot_rounding(2 (n dk)^2 + 16)`` for the norm sums and the
    arithmetic of the bound; and ``n dk 2^-536`` for squares that
    underflow.  Beside ``A`` this holds one ``(n dk)^2`` buffer, ``R``.
    Derivation: ``docs/rounding.md``, section ``_context_bound``.
    """
    basis = context.basis
    n, dk = context.dim, dim_probe
    rows = _atom_rows(arr, context, dk)                        # R, [i, p, b, q]
    rotated = np.empty((dk, n, dk), dtype=complex)             # T_i, [p, j, q]
    flat = rotated.view(float)
    norms = np.empty((n, n))                                   # ||T_ij||_F^2
    blocks = np.empty((n, dk, dk), dtype=complex)              # T_ii
    for i in range(n):
        np.matmul(basis.T, rows[i], out=rotated)
        np.einsum("pjq,pjq->j", flat, flat, out=norms[i])
        blocks[i] = rotated[:, i]
    floor = n * dk * 2.0**-536                                 # squares that underflow
    scale = np.sqrt(norms.sum()) + floor                       # ||T||_F
    np.fill_diagonal(norms, 0.0)
    commutators = np.sqrt(norms.sum(axis=0) + norms.sum(axis=1)) + floor   # ||[T, E_i]||_F
    off = np.sqrt(norms.sum()) + floor                         # ||T - blockdiag(T_ii)||_F
    eps = context._orthonormality_bound
    eta = eps / (1 - eps) if eps < 1 else np.inf               # >= ||G^-1 - I||_2
    # the norm sums and the arithmetic below
    slack = 1 + _dot_rounding(2 * (n * dk) ** 2 + 16)
    gamma = _dot_rounding(n)
    spread = gamma * (1 + eps) * (2 * np.sqrt(n) + gamma * n)  # per unit of ||A||_F
    room = 1 - eps - spread
    spill = spread * scale / room if room > 0 else np.inf      # >= ||fl(T) - T||_F
    bound = (1 + eps) * slack * (commutators + 2 * eta * scale + (1 + 2 * eta) * spill)
    drift = eta * (2 + eta)
    residual = (1 + eps) * slack * (off + drift * scale + (1 + drift) * spill)
    return float(bound.max()), blocks, float(residual), rows


def _residuals(basis, squared, rows, cols, left, blocks):
    """Yield ``X_i`` for every atom, then ``Y_i``, each in one scratch buffer.

    ``X_i`` ([i, a, p, q]) and ``Y_i`` ([i, p, b, q]) are those of
    :func:`_pair_bounds`, formed entrywise with ``squared = |v_i|^2``.
    ``Y_i`` overwrites ``X_i``, so a caller reduces each, and may
    overwrite it, before asking for the next; ``R_i`` and ``C_i`` are left
    untouched.
    """
    term = np.empty_like(cols)
    np.multiply(basis.T[:, :, None, None], (left / squared)[:, None], out=term)
    yield np.subtract(cols, term, out=term)
    term = term.reshape(rows.shape)
    np.multiply((blocks / squared)[:, :, None, :], basis.conj().T[:, None, :, None], out=term)
    yield np.subtract(rows, term, out=term)


def _modulus_bounds(z: np.ndarray) -> np.ndarray:
    """``|Re z| + |Im z| >= |z|`` for each entry, formed in place over ``z``.

    Returns a float view into ``z``'s memory; ``z`` is spent.
    """
    parts = z.view(float)
    np.abs(parts, out=parts)
    real = parts[..., ::2]
    return np.add(real, parts[..., 1::2], out=real)


def _pair_bounds(context: Context, rows, cols, left, blocks) -> np.ndarray:
    """Per-probe-pair bounds on the entries that :func:`_exact_defect` computes.

    ``bounds[i, p, q]`` is at least the computed modulus of every entry
    ``(a p, b q)`` of ``[A, P_i (x) I]``, ``a, b`` running over the base.
    With ``C_i = A W_i``, ``R_i = W_i* A``, ``B_i = W_i* C_i``, any blocks
    ``B'_i``, ``X_i = C_i - W_i B_i / |v_i|^2`` and
    ``Y_i = R_i - B'_i W_i* / |v_i|^2``, for any nonzero ``v_i``

        [A, P_i (x) I] = X_i W_i* - W_i Y_i + W_i (B_i - B'_i) W_i* / |v_i|^2.

    Read entry by entry, this gives, with ``m_i = max_a |v_i[a]|``,

        |[A, P_i (x) I]|_(ap, bq) <= m_i (max_a |X_i[a, p, q]| + max_b |Y_i[p, b, q]|
                                          + m_i |B_i - B'_i|[p, q] / |v_i|^2),

    for the computed ``R_i``, ``C_i``, ``B_i``, ``B'_i`` and ``|v_i|^2``
    taken as exact data: the identity holds for any blocks and any nonzero
    length.  The moduli of ``X_i`` and ``Y_i`` are bounded by
    ``|Re| + |Im|``, which needs no ``hypot``.  The rounding of ``X_i``,
    ``Y_i``, of the scanned entry and of this bound is covered by a
    relative ``64 u`` and ``8 u (|B_i| + |B'_i|)[p, q]`` added to
    ``|B_i - B'_i|[p, q]``, with ``u`` the unit roundoff; the smallest
    normal float covers underflow (derivation: ``docs/rounding.md``,
    section ``_pair_bounds``).  ``X_i`` and ``Y_i`` come from
    :func:`_residuals`, so beyond ``R`` and ``C`` this holds one
    ``(n dk)^2`` scratch buffer, whose moduli are formed in place.
    """
    basis = context.basis
    squared = np.linalg.norm(basis, axis=0)[:, None, None] ** 2
    largest = np.abs(basis).max(axis=0)[:, None, None]         # m_i
    residuals = _residuals(basis, squared, rows, cols, left, blocks)
    x = _modulus_bounds(next(residuals)).max(axis=1)           # max_a |X_i[a, p, q]|
    y = _modulus_bounds(next(residuals)).max(axis=2)           # max_b |Y_i[p, b, q]|
    gap = (np.abs(left - blocks) + 8 * _UNIT_ROUNDOFF * (np.abs(left) + np.abs(blocks))) / squared
    return (1 + 64 * _UNIT_ROUNDOFF) * largest * (x + y + largest * gap) + _TINY


def _largest_entry(c, vbar, v, r, entries, products, moduli) -> float:
    """Largest computed modulus of ``c * vbar - v * r``, formed in ``entries``.

    The caller lays out one atom's ``C_i``, ``conj(v_i)``, ``v_i`` and
    ``R_i`` so that the entries are those of ``[A, P_i (x) I]`` on the
    probe pairs it visits.  The products ``v * r`` go to ``products``, and
    ``moduli`` may share their memory, since they are spent by then.
    """
    np.multiply(c, vbar, out=entries)
    np.subtract(entries, np.multiply(v, r, out=products), out=entries)
    return float(np.abs(entries, out=moduli).max())


def _exact_defect(
    arr: np.ndarray,
    context: Context,
    dim_probe: int,
    contractions: tuple | None = None,
    bounds: np.ndarray | None = None,
) -> float:
    """The entry-by-entry scan behind :func:`commutator_defect`.

    ``contractions`` are ``(R_i, C_i)`` of ``arr`` as :func:`_atom_rows`
    and :func:`_atom_cols` make them; they are made here when omitted.
    Entry ``(a p, b q)`` of ``[A, P_i (x) I] = C_i W_i* - W_i R_i`` is
    ``C_i[a, p, q] conj(v_i[b]) - v_i[a] R_i[p, b, q]``: one multiply each
    side, one subtraction and one modulus.  The scan visits one atom at a
    time and forms its entries on the probe pairs ``k = (p, q)`` it visits
    with :func:`_largest_entry`, laid out ``[a, b, k]``: ``C_i`` is read
    as an ``[a, k]`` view, ``R_i`` as one ``[b, k]`` copy of ``n dk^2``
    entries, and the visited pairs are taken as columns of both.  The
    entries go to two reused buffers of ``(n dk)^2`` entries, the second
    of which also takes the moduli; with ``R`` and ``C`` that is four
    ``(n dk)^2`` buffers at its peak, of which a pruned scan touches only
    the visited pairs.

    Without ``bounds`` every pair of every atom is visited.  With the
    per-pair ``bounds`` of :func:`_pair_bounds`, the running maximum starts
    at the pairs of the largest bound, the atoms are visited in decreasing
    order of their largest bound, and only the pairs whose bound is not
    below the running maximum are formed; ``bounds`` need more than one
    atom.  A skipped pair's computed entries lie below a maximum already
    reached.  Every visit runs the same products, with the pairs
    innermost, so a pruned scan returns the full scan's float as long as
    NumPy rounds a product the same way at every length of that loop,
    which holds for its vector loops with their fused multiply-add.  That
    is NumPy's choice, not a guarantee: the tests check it on each build.
    """
    n, dk = context.dim, dim_probe
    if contractions is None:
        contractions = _atom_rows(arr, context, dk), _atom_cols(arr, context, dk)
    rows, cols = contractions                                  # [i, p, b, q], [i, a, p, q]
    basis, vbar = context.basis, context.basis.conj()
    scratch = np.empty((2, n * n * dk * dk), dtype=complex)

    def visit(i: int, keep=slice(None)) -> float:
        c = cols[i].reshape(n, dk * dk)[:, keep]                         # [a, k]
        r = rows[i].transpose(1, 0, 2).reshape(n, dk * dk)[:, keep]      # [b, k]
        size = n * n * c.shape[1]
        entries, products = scratch[:, :size].reshape(2, n, n, -1)       # [a, b, k]
        moduli = scratch[1].view(float)[:size].reshape(n, n, -1)
        return _largest_entry(
            c[:, None, :], vbar[:, i, None], basis[:, i, None, None], r, entries, products, moduli
        )

    if bounds is None:
        return fold_max(0.0, *map(visit, range(n)))
    assert n > 1, "a one-atom scan is not pruned; see _certify"
    top = bounds.max(axis=(1, 2))
    order = np.argsort(-top, kind="stable")
    worst = visit(order[0], np.flatnonzero(~(bounds[order[0]] < top[order[0]])))
    for i in order:
        keep = np.flatnonzero(~(bounds[i] < worst))
        if keep.size:
            worst = fold_max(worst, visit(i, keep))
    return worst


def _certify(arr: np.ndarray, context: Context, dim_probe: int, atol: float) -> _Certificate:
    """Decide the commutator test for a checked ``arr``; return ``(defect, blocks, residual)``.

    ``defect <= atol`` decides the test.  ``arr`` has passed
    :func:`_check_composite`, or its size and parts are checked otherwise.
    The bound of :func:`_context_bound` is returned when it is within
    ``atol``, and nothing more is formed: one rotation into the context
    basis and one pass over its block norms.  Otherwise the rotated
    operator is dropped, the blocks are kept, and the exact scan runs on
    the bound's rows ``R`` and the columns ``C`` of :func:`_atom_cols`.
    When the full scan would form at least ``_PRUNED_SCAN_ENTRIES``
    entries, those contractions first give the per-pair bounds of
    :func:`_pair_bounds`, with the returned blocks as ``B'``, and the scan
    visits only the pairs that can hold the maximum, in the layout and
    with the products of the full scan.  Either way a defect above
    ``atol`` is the exact max-entry norm of :func:`commutator_defect`, bit
    for bit on a NumPy build that passes the tests (see
    :func:`_exact_defect`).  ``residual`` bounds
    ``||arr - sum_i P_i (x) blocks[i]||_F``.
    """
    bound, blocks, residual, rows = _context_bound(arr, context, dim_probe)
    if bound > atol:
        cols = _atom_cols(arr, context, dim_probe)
        bounds = None
        # At n = 1 a visit of one pair is a one-entry product, which NumPy forms
        # without the fused multiply-add of its vector loops: scan it whole.
        if context.dim > 1 and context.dim * len(arr) ** 2 >= _PRUNED_SCAN_ENTRIES:
            bounds = _pair_bounds(context, rows, cols, _column_blocks(context, cols), blocks)
        bound = _exact_defect(arr, context, dim_probe, (rows, cols), bounds)
    return _Certificate(bound, blocks, residual)


def commutator_defect(a, context: Context, dim_probe: int) -> float:
    """Largest commutator norm ``max_i ||[A, P_i (x) I]||_max``.

    The max-entry norm is read in the original basis.  Each lifted atom
    factors as ``W_i W_i*`` with the rank-``dk`` isometry ``W_i = v_i (x) I``,
    so ``[A, P_i (x) I] = (A W_i) W_i* - W_i (W_i* A)``.  All ``A W_i`` and
    ``W_i* A`` come from two base-index contractions, ``O(n^3 dk^2)`` each;
    the scan of :func:`_exact_defect` then forms every entry of every
    commutator, one atom at a time in reused buffers.  :func:`extract_probes`,
    :func:`is_c_nondisturbing` and ``nd_channel_from_kraus`` decide with a
    cheaper bound first, read off the block norms of ``A`` rotated into the
    context basis; only when it exceeds the tolerance do they scan.  At
    size that scan keeps only the probe pairs that per-pair bounds cannot
    rule out; every other pair is formed as here, so it returns the same
    float as this function.
    """
    return _exact_defect(_check_composite(a, context, dim_probe), context, dim_probe)


def is_c_nondisturbing(a, context: Context, dim_probe: int, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``a`` commutes with every lifted context atom within ``atol``.

    Decided as ``commutator_defect(a, context, dim_probe) <= atol``, with the
    entry-by-entry scan run only when a bound read off the block norms of
    ``a`` in the context basis exceeds ``atol``.
    """
    return _certify(_check_composite(a, context, dim_probe), context, dim_probe, atol)[0] <= atol


def extract_probes(a, context: Context, dim_probe: int) -> ProbeDecomposition:
    """Recover the probe blocks of a nondisturbing operator.

    Block ``i`` is the ``i``-th diagonal block of ``(V* (x) I) A (V (x) I)``,
    with the context basis ``V`` as columns.  It equals the base-side
    partial trace of ``A (P_i (x) I)`` and does not depend on any
    probe-space basis choice.  Rejects operators that fail the commutator
    test at ``DEFAULT_ATOL``, reporting the largest defect.
    """
    arr = _check_composite(a, context, dim_probe)
    defect, blocks, _ = _certify(arr, context, dim_probe, DEFAULT_ATOL)
    if defect > DEFAULT_ATOL:
        raise ValueError(
            f"operator is not nondisturbing for this context "
            f"(largest commutator norm {defect:.3e} > {DEFAULT_ATOL:.3e})"
        )
    return ProbeDecomposition(context, blocks)


def extract_probes_by_matrix_elements(
    a, context: Context, dim_probe: int, probe_basis: np.ndarray | None = None
) -> ProbeDecomposition:
    """Recover probe blocks from matrix elements against an explicit probe basis.

    Computes ``B_i = U (v_i* (x) U*) A (v_i (x) I)`` for any orthonormal
    probe basis ``U`` (default standard; one that ``is_unitary`` rejects
    raises ``ValueError``), i.e. ``B_i phi = sum_j <v_i (x)
    u_j, A (v_i (x) phi)> u_j``.  The column base index of ``A`` meets
    ``V`` in one product; the row base index then meets ``V*`` atom by
    atom, and ``U`` is applied last.  Independent implementation of
    :func:`extract_probes`, kept as a cross-check: it shares none of the
    commutator test's contractions, and the result must not depend on the
    basis chosen.
    """
    arr = _check_composite(a, context, dim_probe)
    if probe_basis is None:
        probe_basis = np.eye(dim_probe, dtype=complex)
    else:
        probe_basis = np.asarray(probe_basis, dtype=complex)
        if probe_basis.shape != (dim_probe, dim_probe):
            raise ValueError(f"probe basis must be {dim_probe} x {dim_probe}")
        _check_parts(probe_basis, "probe basis")
        if not is_unitary(probe_basis):
            raise ValueError("probe basis must be unitary")
    n, dk = context.dim, dim_probe
    basis = context.basis
    # kets[a, p, i, l] = (A (v_i (x) e_l))[a dk + p]
    kets = np.matmul(basis.T, arr.reshape(n * dk, n, dk)).reshape(n, dk, n, dk)
    # elements[i, p, l] = <v_i (x) e_p, A (v_i (x) e_l)>
    elements = np.einsum("ai,apil->ipl", basis.conj(), kets)
    return ProbeDecomposition(context, probe_basis @ (probe_basis.conj().T @ elements))


def closed_form_partial_traces(decomp: ProbeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces of the assembled operator, straight from the blocks.

    Returns ``(over_base, over_probe)``: tracing out the base gives the
    block sum (an operator on the probe space); tracing out the probe
    gives the block traces spread over the atoms (an operator on the base
    space, measurable in the context by construction).
    """
    over_base = sum(decomp.probes)
    over_probe = sum(
        np.trace(b) * atom for atom, b in zip(decomp.context.atoms, decomp.probes)
    )
    return over_base, over_probe


def classify(decomp: ProbeDecomposition, atol: float = DEFAULT_ATOL) -> ProbeFlags:
    """Read structural properties of the assembled operator off its blocks.

    Each flag holds for the full operator exactly when it holds for every
    block; the observable-family flag additionally requires the blocks to
    sum to the probe identity.
    """
    probes = decomp.probes
    effect = bool(is_effect_matrix(probes, atol).all())
    family = effect and max_abs(probes.sum(axis=0) - np.eye(decomp.dim_probe)) <= atol
    return ProbeFlags(
        self_adjoint=bool(is_hermitian(probes, atol).all()),
        unitary=bool(is_unitary(probes, atol).all()),
        projection=bool(is_projection_matrix(probes, atol).all()),
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
    """Operator order of assembled operators, decided blockwise.

    A block of either decomposition that is not Hermitian within ``atol``
    raises ``ValueError``, as :func:`~nondisturbing.linalg.loewner_leq` does.
    """
    if (a.dim_base, a.dim_probe) != (d.dim_base, d.dim_probe):
        raise ValueError(
            f"dimension mismatch: base {a.dim_base}, probe {a.dim_probe} "
            f"vs base {d.dim_base}, probe {d.dim_probe}"
        )
    if a.context is not d.context and max_abs(a.context.basis - d.context.basis) > atol:
        raise ValueError("decompositions use different contexts")
    return bool(loewner_leq(a.probes, d.probes, atol).all())


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
