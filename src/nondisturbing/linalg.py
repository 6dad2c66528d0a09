"""Dense complex linear algebra primitives shared by the whole package.

Composite systems are flattened base-major: the product of basis vector
``i`` on the left (base) factor and basis vector ``j`` on the right
(probe) factor sits at flat index ``i * dim_right + j``.  This is the
convention of ``numpy.kron(left, right)`` and makes partial traces
contiguous block sums.

Value types, decoders, builders and :func:`psd_sqrt` validate at the
fixed ``DEFAULT_ATOL``; it cannot be set per object or per call.
Semantic predicates (Hermiticity, positivity, unitarity, operator order)
default to ``DEFAULT_ATOL`` and take their tolerance as an explicit
argument.

All functions treat matrices as immutable values and return freshly
allocated arrays; random state is always passed explicitly as a seed or
``numpy.random.Generator``, never read from global state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "as_complex_stack",
    "completeness_defects",
    "max_abs",
    "fold_max",
    "hermitian_part",
    "kron",
    "partial_trace",
    "is_hermitian",
    "is_psd",
    "is_unitary",
    "is_projection_matrix",
    "is_effect_matrix",
    "psd_sqrt",
    "loewner_leq",
    "random_unitary",
    "random_unitaries",
    "random_hermitian",
    "random_density",
    "random_effect",
    "random_projection",
    "random_povm",
    "random_kraus_channel",
]

DEFAULT_ATOL = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def as_complex_stack(family, name: str, ndim: int) -> np.ndarray:
    """Coerce a family of square matrices to one read-only complex array.

    ``family`` is an array, or nested sequences, with ``ndim`` axes whose
    last two index each matrix.  A ragged or non-numeric family, the
    wrong number of axes, non-square or ``0 x 0`` matrices and non-finite
    entries or parts above ``1e150`` all raise ``ValueError`` naming ``name``.
    """
    try:
        arr = np.array(family, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{name} must hold numbers in matrices that share one dimension"
        ) from exc
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {arr.shape[-2:]}")
    if arr.shape[-1] == 0:
        raise ValueError(f"{name} must have a dimension of at least 1, got shape {arr.shape}")
    _check_parts(arr, name)
    arr.setflags(write=False)
    return arr


def _check_parts(arr: np.ndarray, name: str) -> None:
    """Refuse non-finite entries and parts above ``1e150``; smaller ones square and sum finitely.

    Reads the extreme parts of ``arr`` viewed as floats, copying only a non-contiguous ``arr``.
    """
    parts = np.ascontiguousarray(arr).view(float)
    largest = np.maximum(parts.max(initial=0.0), -parts.min(initial=0.0))
    if not largest <= 1e150:
        what = "non-finite entries" if not np.isfinite(largest) else "a part above 1e150"
        raise ValueError(f"{name} contains {what}")


def completeness_defects(stack: np.ndarray) -> np.ndarray:
    """``max|sum_k K_k* K_k - I|`` for each Kraus family of a ``(..., K, d, d)`` stack.

    The sum is the Gram matrix ``M* M`` of the family stacked into one
    ``(K d) x d`` block column ``M``, so no per-term product is formed.
    """
    *lead, count, dim, _ = stack.shape
    column = stack.reshape(*lead, count * dim, dim)
    gram = np.conj(np.swapaxes(column, -1, -2)) @ column
    return np.abs(gram - np.eye(dim)).max(axis=(-2, -1))


def _dot_rounding(terms: int) -> float:
    """Relative rounding bound of a complex sum of ``terms`` products.

    Twice Higham's ``gamma_(m+2) = (m+2) u / (1 - (m+2) u)`` for a complex
    inner product of length ``m = terms``, with ``u`` the unit roundoff;
    see ``docs/rounding.md``, section ``_dot_rounding``.
    """
    mu = (terms + 2) * _UNIT_ROUNDOFF
    return 2 * mu / (1 - mu) if mu < 0.5 else math.inf


def _square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """``m`` as a complex square matrix, or with ``stack`` a stack of them."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or (arr.ndim > 2 and not stack) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def max_abs(m) -> float:
    """Largest entrywise modulus, the norm used for equality checks."""
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.abs(arr).max())


def fold_max(worst: float, *residuals: float) -> float:
    """Largest of ``worst`` and ``residuals``.

    A NaN is kept, unlike with ``max``, so a check that saw one fails.
    """
    for r in residuals:
        if math.isnan(r) or r > worst:
            worst = r
    return worst


def hermitian_part(m) -> np.ndarray:
    """Return ``(m + m*) / 2`` for a matrix, or for each matrix of a stack."""
    arr = np.asarray(m, dtype=complex)
    return (arr + np.swapaxes(arr.conj(), -1, -2)) / 2


def kron(a, b) -> np.ndarray:
    """Kronecker product with base-major indexing.

    Basis vector ``i`` of ``a`` tensored with basis vector ``j`` of ``b``
    maps to flat index ``i * b.shape[1] + j``.  Both inputs must be 2-D;
    any other shape raises ``ValueError``.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes two matrices, got shapes {a.shape} and {b.shape}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def partial_trace(m, dim_left: int, dim_right: int, over: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    Parameters
    ----------
    m:
        Square matrix of dimension ``dim_left * dim_right`` in the
        base-major convention of :func:`kron`.
    dim_left, dim_right:
        Dimensions of the two factors.
    over:
        ``"left"`` traces out the left factor (result acts on the right
        space); ``"right"`` traces out the right factor.
    """
    if over not in ("left", "right"):
        raise ValueError(f"over must be 'left' or 'right', got {over!r}")
    arr = _square(m)
    total = dim_left * dim_right
    if dim_left < 1 or dim_right < 1 or arr.shape[0] != total:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} does not factor as "
            f"{dim_left} * {dim_right}"
        )
    blocks = arr.reshape(dim_left, dim_right, dim_left, dim_right)
    if over == "right":
        return np.trace(blocks, axis1=1, axis2=3)
    return np.trace(blocks, axis1=0, axis2=2)


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def _hermitian(arr: np.ndarray, atol: float) -> bool:
    return max_abs(arr - _adjoint(arr)) <= atol


# Each predicate takes one square matrix or a ``(..., d, d)`` stack and
# answers with one ``bool``: whether every member has the property.  An
# empty stack answers True.


def is_hermitian(m, atol: float = DEFAULT_ATOL) -> bool:
    return _hermitian(_square(m, stack=True), atol)


def _spectrum_within(arr: np.ndarray, atol: float, upper: float | None) -> bool:
    """Every member Hermitian with spectrum ``>= -atol`` (and ``<= upper + atol``).

    A stack with a member that is not Hermitian, a NaN member included,
    answers False before it reaches ``eigvalsh``.
    """
    if not _hermitian(arr, atol):
        return False
    w = np.linalg.eigvalsh(arr)
    inside = w[..., 0].min(initial=np.inf) >= -atol
    if upper is not None:
        inside &= w[..., -1].max(initial=-np.inf) <= upper + atol
    return bool(inside)


def is_psd(m, atol: float = DEFAULT_ATOL) -> bool:
    return _spectrum_within(_square(m, stack=True), atol, None)


def is_unitary(m, atol: float = DEFAULT_ATOL) -> bool:
    """``A* A`` and ``A A*`` both within ``atol`` of the identity.

    ``A A*`` is formed only when ``A* A`` passes.
    """
    arr = _square(m, stack=True)
    eye = np.eye(arr.shape[-1])
    adj = _adjoint(arr)
    return max_abs(adj @ arr - eye) <= atol and max_abs(arr @ adj - eye) <= atol


def is_projection_matrix(m, atol: float = DEFAULT_ATOL) -> bool:
    """True for Hermitian idempotents (orthogonal projections)."""
    arr = _square(m, stack=True)
    return _hermitian(arr, atol) and max_abs(arr @ arr - arr) <= atol


def is_effect_matrix(m, atol: float = DEFAULT_ATOL) -> bool:
    """True for Hermitian operators with spectrum inside ``[0, 1]``."""
    return _spectrum_within(_square(m, stack=True), atol, 1.0)


def psd_sqrt(m) -> np.ndarray:
    """Positive semidefinite square root of a PSD Hermitian matrix, or of each of a stack.

    Rejects non-finite entries, parts above ``1e150`` and inputs that are
    not Hermitian within ``DEFAULT_ATOL``.
    Eigenvalues in ``[-DEFAULT_ATOL, 0)`` are clamped to zero; anything
    below ``-DEFAULT_ATOL`` is rejected as not positive semidefinite.
    """
    arr = _square(m, stack=True)
    _check_parts(arr, "matrix")
    defect = max_abs(arr - _adjoint(arr))
    if defect > DEFAULT_ATOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {DEFAULT_ATOL:.3e})")
    w, v = np.linalg.eigh(hermitian_part(arr))
    lowest = float(w[..., 0].min())
    if lowest < -DEFAULT_ATOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lowest:.3e})")
    root = np.sqrt(np.clip(w, 0.0, None))
    return hermitian_part((v * root[..., None, :]) @ _adjoint(v))


def loewner_leq(a, b, atol: float = DEFAULT_ATOL) -> bool:
    """Operator-order comparison: True iff ``b - a`` is PSD within ``atol``.

    ``a`` and ``b`` are two matrices, or two stacks of one shape; for
    stacks, True iff every pair is ordered.  A member of either that is
    not Hermitian within ``atol`` raises ``ValueError``.
    """
    a = _square(a, "a", stack=True)
    b = _square(b, "b", stack=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, arr in (("a", a), ("b", b)):
        if not _hermitian(arr, atol):
            raise ValueError(f"{name} is not Hermitian within {atol:.3e}")
    return bool(np.linalg.eigvalsh(hermitian_part(b - a))[..., 0].min(initial=np.inf) >= -atol)


# ---------------------------------------------------------------------------
# Seeded random generators for test instances.
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussians(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` complex Gaussian ``dim x dim`` matrices, shape ``(count, dim, dim)``.

    One ``(count, 2, dim, dim)`` draw holds each matrix's real part, then
    its imaginary part, so the stream is the same as ``count`` draws of
    one matrix each.  A ``dim`` below 1 raises ``ValueError`` before any draw.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = rng.standard_normal((count, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _gaussians(dim, 1, rng)[0]


def random_unitaries(dim: int, count: int, seed) -> np.ndarray:
    """``count`` Haar-like random unitaries, shape ``(count, dim, dim)``.

    One stacked QR of complex Gaussian matrices, with the phases of the
    diagonal of ``R`` moved into ``Q``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    q, r = np.linalg.qr(_gaussians(dim, count, _rng(seed)))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-like random unitary: :func:`random_unitaries` with ``count = 1``."""
    return random_unitaries(dim, 1, seed)[0]


def random_hermitian(dim: int, seed) -> np.ndarray:
    return hermitian_part(_gaussian(dim, _rng(seed)))


def random_density(dim: int, seed) -> np.ndarray:
    """Random state: ``g g* / tr(g g*)`` for complex Gaussian ``g``."""
    rng = _rng(seed)
    g = _gaussian(dim, rng)
    rho = g @ g.conj().T
    return hermitian_part(rho / np.trace(rho).real)


def random_effect(dim: int, seed) -> np.ndarray:
    """Random effect: Hermitian with spectrum drawn uniformly from [0, 1]."""
    rng = _rng(seed)
    v = random_unitary(dim, rng)
    w = rng.uniform(0.0, 1.0, size=dim)
    return hermitian_part((v * w) @ v.conj().T)


def random_projection(dim: int, rank: int, seed) -> np.ndarray:
    """Random rank-``rank`` orthogonal projection."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    v = random_unitary(dim, _rng(seed))
    cols = v[:, :rank]
    return hermitian_part(cols @ cols.conj().T)


def random_povm(dim: int, count: int, seed) -> np.ndarray:
    """Random ``count``-outcome POVM, one ``(count, dim, dim)`` stack.

    Random PSD parts ``g g*`` are jointly normalized, ``N g g* N`` with
    ``N = (sum g g*)^(-1/2)``, so the family sums to the identity up to
    rounding.  The blocks ``g* N`` are read off the polar factor of the
    stacked ``g*``, which keeps that rounding at machine precision
    however ill-conditioned the draws are.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    polar = _polar_blocks(_adjoint(_gaussians(dim, count, _rng(seed))))
    return hermitian_part(_adjoint(polar) @ polar)


def random_kraus_channel(dim: int, count: int, seed) -> np.ndarray:
    """Random ``count``-term Kraus channel, one ``(count, dim, dim)`` stack.

    Completeness holds up to rounding: the Kraus operators
    ``g (sum g* g)^(-1/2)`` are the blocks of the polar factor of the
    stacked draws ``g``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _polar_blocks(_gaussians(dim, count, _rng(seed)))


def _polar_blocks(blocks: np.ndarray) -> np.ndarray:
    """Square blocks of ``M (M* M)^(-1/2)`` for ``M`` the blocks stacked.

    ``blocks`` has shape ``(..., K, d, d)``; each family of ``K`` blocks
    is stacked into one ``(K d) x d`` column ``M`` and the result has the
    shape of ``blocks``.  The factor is taken from the SVD ``M = U S V*``
    as ``U V*``, an exact isometry up to rounding, rather than through an
    inverse square root, whose rounding grows with the condition number
    of ``M* M``.  All families share one batched SVD.
    """
    *lead, count, dim, _ = blocks.shape
    u, s, vh = np.linalg.svd(blocks.reshape(*lead, count * dim, dim), full_matrices=False)
    lowest = float(s[..., -1].min()) ** 2
    if lowest <= DEFAULT_ATOL:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {lowest:.3e})")
    return (u @ vh).reshape(blocks.shape)
