"""Dense complex linear algebra primitives shared by the whole package.

Composite systems are flattened base-major: the product of basis vector
``i`` on the left (base) factor and basis vector ``j`` on the right
(probe) factor sits at flat index ``i * dim_right + j``.  This is the
convention of ``numpy.kron(left, right)`` and makes partial traces
contiguous block sums.

Value types, decoders, builders and the eigen-routines below validate at
the fixed ``DEFAULT_ATOL``; it cannot be set per object or per call.
Semantic predicates (Hermiticity, positivity, unitarity, operator order)
default to ``DEFAULT_ATOL`` and take their tolerance as an explicit
argument.  ``CONSTRUCTION_ATOL`` is the much tighter bound that the
random generators' identities, such as completeness, meet by
construction; only the tests use it, to check exactly that.

All functions treat matrices as immutable values and return freshly
allocated arrays; random state is always passed explicitly as a seed or
``numpy.random.Generator``, never read from global state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "CONSTRUCTION_ATOL",
    "as_complex_matrix",
    "as_complex_stack",
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
    "hermitian_eig",
    "psd_sqrt",
    "psd_inv_sqrt",
    "loewner_leq",
    "random_unitary",
    "random_hermitian",
    "random_density",
    "random_effect",
    "random_projection",
    "random_povm",
    "random_kraus_channel",
]

DEFAULT_ATOL = 1e-9
CONSTRUCTION_ATOL = 1e-12


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a read-only complex matrix with finite entries."""
    if np.ndim(m) != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {np.shape(m)}")
    return as_complex_stack(m, name)


def as_complex_stack(family, name: str) -> np.ndarray:
    """Coerce a family of same-shaped matrices to one read-only complex array.

    ``family`` is an array whose last two axes index each matrix, or
    nested sequences of matrices; callers check the shapes first.
    """
    arr = np.array(family, dtype=complex, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _square(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def max_abs(m) -> float:
    """Largest entrywise modulus, the norm used for equality checks."""
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def fold_max(worst: float, *residuals: float) -> float:
    """Largest of ``worst`` and ``residuals``.

    A NaN is kept, unlike with ``max``, so a check that saw one fails.
    """
    for r in residuals:
        if math.isnan(r) or r > worst:
            worst = r
    return worst


def hermitian_part(m) -> np.ndarray:
    """Return ``(m + m*) / 2``."""
    arr = np.asarray(m, dtype=complex)
    return (arr + arr.conj().T) / 2


def kron(a, b) -> np.ndarray:
    """Kronecker product with base-major indexing.

    Basis vector ``i`` of ``a`` tensored with basis vector ``j`` of ``b``
    maps to flat index ``i * b.shape[1] + j``.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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


def is_hermitian(m, atol: float = DEFAULT_ATOL) -> bool:
    arr = _square(m)
    return max_abs(arr - arr.conj().T) <= atol


def is_psd(m, atol: float = DEFAULT_ATOL) -> bool:
    arr = _square(m)
    if not is_hermitian(arr, atol):
        return False
    return float(np.linalg.eigvalsh(arr)[0]) >= -atol


def is_unitary(m, atol: float = DEFAULT_ATOL) -> bool:
    arr = _square(m)
    eye = np.eye(arr.shape[0])
    return max_abs(arr @ arr.conj().T - eye) <= atol and max_abs(
        arr.conj().T @ arr - eye
    ) <= atol


def is_projection_matrix(m, atol: float = DEFAULT_ATOL) -> bool:
    """True for Hermitian idempotents (orthogonal projections)."""
    arr = _square(m)
    return is_hermitian(arr, atol) and max_abs(arr @ arr - arr) <= atol


def is_effect_matrix(m, atol: float = DEFAULT_ATOL) -> bool:
    """True for Hermitian operators with spectrum inside ``[0, 1]``."""
    arr = _square(m)
    if not is_hermitian(arr, atol):
        return False
    w = np.linalg.eigvalsh(arr)
    return float(w[0]) >= -atol and float(w[-1]) <= 1 + atol


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    eigenvector matrix ``v`` whose columns satisfy ``m = v diag(w) v*``.
    Rejects inputs that are not Hermitian within ``DEFAULT_ATOL``.
    """
    arr = _square(m)
    defect = max_abs(arr - arr.conj().T)
    if defect > DEFAULT_ATOL:
        raise ValueError(
            f"matrix is not Hermitian (defect {defect:.3e} > {DEFAULT_ATOL:.3e})"
        )
    w, v = np.linalg.eigh(hermitian_part(arr))
    return w, v


def psd_sqrt(m) -> np.ndarray:
    """Positive semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in ``[-DEFAULT_ATOL, 0)`` are clamped to zero; anything
    below ``-DEFAULT_ATOL`` is rejected as not positive semidefinite.
    """
    w, v = hermitian_eig(m)
    if float(w[0]) < -DEFAULT_ATOL:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    return hermitian_part((v * root) @ v.conj().T)


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix."""
    w, v = hermitian_eig(m)
    if float(w[0]) <= DEFAULT_ATOL:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return hermitian_part((v / np.sqrt(w)) @ v.conj().T)


def loewner_leq(a, b, atol: float = DEFAULT_ATOL) -> bool:
    """Operator-order comparison: True iff ``b - a`` is PSD within ``atol``."""
    a = _square(a, "a")
    b = _square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, arr in (("a", a), ("b", b)):
        if not is_hermitian(arr, atol):
            raise ValueError(f"{name} is not Hermitian within {atol:.3e}")
    return float(np.linalg.eigvalsh(hermitian_part(b - a))[0]) >= -atol


# ---------------------------------------------------------------------------
# Seeded random generators for test instances.
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-like random unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = _rng(seed)
    q, r = np.linalg.qr(_gaussian(dim, rng))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


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


def random_povm(dim: int, count: int, seed) -> list[np.ndarray]:
    """Random ``count``-outcome POVM.

    Random PSD parts are jointly normalized so the family sums to the
    identity exactly up to rounding.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _rng(seed)
    parts = []
    for _ in range(count):
        g = _gaussian(dim, rng)
        parts.append(g @ g.conj().T)
    norm = psd_inv_sqrt(sum(parts))
    return [hermitian_part(norm @ p @ norm) for p in parts]


def random_kraus_channel(dim: int, count: int, seed) -> list[np.ndarray]:
    """Random ``count``-term Kraus channel with completeness up to rounding."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _rng(seed)
    raw = [_gaussian(dim, rng) for _ in range(count)]
    norm = psd_inv_sqrt(sum(g.conj().T @ g for g in raw))
    return [g @ norm for g in raw]
