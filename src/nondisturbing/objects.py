"""Validated value types for finite-dimensional quantum objects.

States, observables, Kraus channels and measurement contexts.  An
observable holds its outcome labels and its effects as one stacked
array, validated in one batched pass.  Every type validates its
defining invariants at construction at the fixed tolerance
``DEFAULT_ATOL``, so invalid objects are unrepresentable downstream.
Instances are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    _dot_rounding,
    _square,
    as_complex_stack,
    completeness_defects,
    is_hermitian,
    max_abs,
    random_unitary,
)

__all__ = [
    "State",
    "Observable",
    "KrausOperation",
    "Context",
    "sharp_observable",
]


@dataclass(frozen=True, eq=False)
class State:
    """PSD Hermitian operator with unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_stack(self.matrix, "state", 2)
        if not is_hermitian(m):
            raise ValueError("state must be Hermitian")
        w = np.linalg.eigvalsh(m)
        if float(w[0]) < -DEFAULT_ATOL:
            raise ValueError(f"state must be PSD, min eigenvalue {w[0]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"state trace {tr!r} out of range")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """Outcome-labeled family of effects summing to the identity.

    ``effects`` is one read-only array of shape ``(outcomes, dim, dim)``:
    ``effects[x]`` is the effect of outcome ``labels[x]``, a Hermitian
    operator with spectrum in [0, 1].
    """

    labels: tuple[str, ...]
    effects: np.ndarray

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        if not labels:
            raise ValueError("observable needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be unique, got {list(labels)}")
        effects = as_complex_stack(self.effects, "effects", 3)
        if len(effects) != len(labels):
            raise ValueError(
                f"need one effect per outcome label: "
                f"{len(effects)} effects for {len(labels)} labels"
            )
        if not is_hermitian(effects):
            raise ValueError("effect must be Hermitian")
        w = np.linalg.eigvalsh(effects)
        outside = (w[:, 0] < -DEFAULT_ATOL) | (w[:, -1] > 1 + DEFAULT_ATOL)
        if outside.any():
            lo, hi = w[np.argmax(outside)][[0, -1]]
            raise ValueError(f"effect spectrum must lie in [0, 1], got [{lo:.3e}, {hi:.3e}]")
        defect = max_abs(effects.sum(axis=0) - np.eye(effects.shape[1]))
        if defect > DEFAULT_ATOL:
            raise ValueError(f"effects must sum to the identity (defect {defect:.3e})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", effects)

    @classmethod
    def from_matrices(cls, matrices: Sequence[np.ndarray]) -> "Observable":
        """The observable of ``matrices``, with outcomes labeled "0", "1", ..."""
        return cls(tuple(map(str, range(len(matrices)))), matrices)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]


@dataclass(frozen=True, eq=False)
class KrausOperation:
    """Channel given by its Kraus operators: ``sum_k k* k`` equals the identity.

    ``kraus`` is one read-only array of shape ``(count, dim, dim)``.  The
    completeness check is one ``(count dim) x dim`` Gram product.
    """

    kraus: np.ndarray

    def __post_init__(self):
        kraus = as_complex_stack(self.kraus, "Kraus operators", 3)
        defect = float(completeness_defects(kraus))
        if defect > DEFAULT_ATOL:
            raise ValueError(f"channel completeness violated (defect {defect:.3e})")
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return sum(k @ m @ k.conj().T for k in self.kraus)


@dataclass(frozen=True, eq=False)
class Context:
    """Orthonormal basis of the base space together with its atoms.

    ``basis`` holds the basis vectors as columns; ``atoms`` stacks the
    rank-one projections onto them, which sum to the identity.
    ``_orthonormality_defect`` is the checked max-entry defect of
    ``V* V - I`` for the basis ``V`` as stored; ``_orthonormality_bound``
    is an upper bound on ``||V* V - I||_2``: ``n`` times that defect plus
    the rounding of the ``n``-term sums that computed it.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_complex_stack(self.basis, "context basis", 2)
        n = b.shape[0]
        defect = max_abs(b.conj().T @ b - np.eye(n))
        if defect > DEFAULT_ATOL:
            raise ValueError(
                f"context basis must be orthonormal (defect {defect:.3e})"
            )
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_orthonormality_defect", defect)
        bound = n * (defect + _dot_rounding(n) * (1 + defect))
        object.__setattr__(self, "_orthonormality_bound", bound)

    @classmethod
    def standard(cls, dim: int) -> "Context":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def random(cls, dim: int, seed) -> "Context":
        return cls(random_unitary(dim, seed))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def atoms(self) -> np.ndarray:
        """Rank-one projections ``atoms[i] = v_i v_i*``, read-only; shape ``(dim, dim, dim)``."""
        vectors = self.basis.T
        out = vectors[:, :, None] * vectors.conj()[:, None, :]
        out.setflags(write=False)
        return out

    def weights(self, rho: np.ndarray) -> np.ndarray:
        """Diagonal of ``rho`` in this basis: real vector of <v_i, rho v_i>."""
        return np.real(np.einsum("ai,ab,bi->i", self.basis.conj(), rho, self.basis))

    def is_measurable(self, m: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
        """True iff the ``dim x dim`` matrix ``m`` is a combination of the atoms."""
        m = _square(m)
        if len(m) != self.dim:
            raise ValueError(f"matrix is {len(m)} x {len(m)}, context dimension is {self.dim}")
        inner = self.basis.conj().T @ m @ self.basis
        return max_abs(inner - np.diag(np.diagonal(inner))) <= atol


def sharp_observable(dim: int) -> Observable:
    """Projective observable onto the standard basis, labels "0".."dim-1"."""
    eye = np.eye(dim, dtype=complex)
    return Observable.from_matrices(eye[:, :, None] * eye[:, None, :])
