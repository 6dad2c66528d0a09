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
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    as_complex_matrix,
    as_complex_stack,
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


def _validated_square(m, name: str) -> np.ndarray:
    arr = as_complex_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class State:
    """PSD Hermitian operator with unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _validated_square(self.matrix, "state")
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

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


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
        if len(self.effects) != len(labels):
            raise ValueError(
                f"need one effect per outcome label: "
                f"{len(self.effects)} effects for {len(labels)} labels"
            )
        shapes = {np.shape(m) for m in self.effects}
        for shape in shapes:
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"effect must be square, got shape {shape}")
        if len(shapes) != 1:
            raise ValueError(
                f"effects must share one dimension, got {sorted(s[0] for s in shapes)}"
            )
        effects = as_complex_stack(self.effects, "effect")
        if max_abs(effects - np.conj(np.swapaxes(effects, -1, -2))) > DEFAULT_ATOL:
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
    def from_matrices(
        cls, matrices: Iterable[np.ndarray], labels: Iterable[str] | None = None
    ) -> "Observable":
        mats = list(matrices)
        if labels is None:
            labels = [str(i) for i in range(len(mats))]
        return cls(tuple(labels), mats)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def effect_matrix(self, label: str) -> np.ndarray:
        try:
            return self.effects[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None


@dataclass(frozen=True, eq=False)
class KrausOperation:
    """Channel given by its Kraus operators: ``sum_k k* k`` equals the identity."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_complex_matrix(k, "kraus operator") for k in self.kraus)
        if not mats:
            raise ValueError("operation needs at least one Kraus operator")
        dims = {m.shape for m in mats}
        if len(dims) != 1 or mats[0].shape[0] != mats[0].shape[1]:
            raise ValueError(f"Kraus operators must be square and same-shaped, got {dims}")
        total = sum(m.conj().T @ m for m in mats)
        defect = max_abs(total - np.eye(mats[0].shape[0]))
        if defect > DEFAULT_ATOL:
            raise ValueError(f"channel completeness violated (defect {defect:.3e})")
        object.__setattr__(self, "kraus", mats)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return sum(k @ m @ k.conj().T for k in self.kraus)

    def dual_matrix(self, a: np.ndarray) -> np.ndarray:
        """Adjoint action on effects: ``a -> sum_k k* a k``."""
        return sum(k.conj().T @ a @ k for k in self.kraus)


@dataclass(frozen=True, eq=False)
class Context:
    """Orthonormal basis of the base space together with its atoms.

    ``basis`` holds the basis vectors as columns; ``atoms`` are the
    rank-one projections onto them, which sum to the identity.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _validated_square(self.basis, "context basis")
        defect = max_abs(b.conj().T @ b - np.eye(b.shape[0]))
        if defect > DEFAULT_ATOL:
            raise ValueError(
                f"context basis must be orthonormal (defect {defect:.3e})"
            )
        object.__setattr__(self, "basis", b)

    @classmethod
    def standard(cls, dim: int) -> "Context":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def random(cls, dim: int, seed) -> "Context":
        return cls(random_unitary(dim, seed))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.basis[:, i]

    @cached_property
    def atoms(self) -> tuple[np.ndarray, ...]:
        out = []
        for i in range(self.dim):
            v = self.basis[:, i]
            p = np.outer(v, v.conj())
            p.setflags(write=False)
            out.append(p)
        return tuple(out)

    def atom(self, i: int) -> np.ndarray:
        return self.atoms[i]

    def weights(self, rho: np.ndarray) -> np.ndarray:
        """Diagonal of ``rho`` in this basis: real vector of <v_i, rho v_i>."""
        return np.real(np.einsum("ai,ab,bi->i", self.basis.conj(), rho, self.basis))

    def dephase(self, rho: np.ndarray) -> np.ndarray:
        """Project ``rho`` onto the atoms: ``sum_i P_i rho P_i``."""
        return (self.basis * self.weights(rho)) @ self.basis.conj().T

    def is_measurable(self, m: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
        """True iff ``m`` is a combination of the atoms (diagonal in this basis)."""
        inner = self.basis.conj().T @ np.asarray(m, dtype=complex) @ self.basis
        return max_abs(inner - np.diag(np.diagonal(inner))) <= atol


def sharp_observable(dim: int) -> Observable:
    """Projective observable onto the standard basis, labels "0".."dim-1"."""
    eye = np.eye(dim, dtype=complex)
    return Observable.from_matrices(
        [np.outer(eye[:, j], eye[:, j].conj()) for j in range(dim)]
    )
