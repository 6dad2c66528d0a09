"""Validated value types for finite-dimensional quantum objects.

Effects, states, observables, Kraus channels and measurement contexts.
Every type validates its defining invariants at construction at the
fixed tolerance ``DEFAULT_ATOL``, so invalid objects are unrepresentable
downstream.  Instances are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    as_complex_matrix,
    is_hermitian,
    max_abs,
    random_unitary,
)

__all__ = [
    "Effect",
    "State",
    "Observable",
    "KrausOperation",
    "Context",
    "probability",
    "sharp_observable",
]


def _validated_square(m, name: str) -> np.ndarray:
    arr = as_complex_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator sitting between 0 and the identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _validated_square(self.matrix, "effect")
        if not is_hermitian(m):
            raise ValueError("effect must be Hermitian")
        w = np.linalg.eigvalsh(m)
        if float(w[0]) < -DEFAULT_ATOL or float(w[-1]) > 1 + DEFAULT_ATOL:
            raise ValueError(
                f"effect spectrum must lie in [0, 1], got [{w[0]:.3e}, {w[-1]:.3e}]"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    """Outcome-labeled family of effects summing to the identity."""

    outcomes: tuple[tuple[str, Effect], ...]

    def __post_init__(self):
        outcomes = tuple((str(label), effect) for label, effect in self.outcomes)
        if not outcomes:
            raise ValueError("observable needs at least one outcome")
        labels = [label for label, _ in outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be unique, got {labels}")
        dims = {effect.dim for _, effect in outcomes}
        if len(dims) != 1:
            raise ValueError(f"effects must share one dimension, got {sorted(dims)}")
        total = sum(effect.matrix for _, effect in outcomes)
        defect = max_abs(total - np.eye(dims.pop()))
        if defect > DEFAULT_ATOL:
            raise ValueError(f"effects must sum to the identity (defect {defect:.3e})")
        object.__setattr__(self, "outcomes", outcomes)

    @classmethod
    def from_matrices(
        cls, matrices: Iterable[np.ndarray], labels: Iterable[str] | None = None
    ) -> "Observable":
        mats = list(matrices)
        if labels is None:
            labels = [str(i) for i in range(len(mats))]
        return cls(
            tuple((label, Effect(m)) for label, m in zip(labels, mats, strict=True))
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim

    def effect(self, label: str) -> Effect:
        for known, effect in self.outcomes:
            if known == label:
                return effect
        raise KeyError(f"unknown outcome label {label!r}")

    def effect_matrix(self, label: str) -> np.ndarray:
        return self.effect(label).matrix


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


def probability(rho: State, a: Effect) -> float:
    """Outcome probability ``tr(rho a)``, clamped to [0, 1] on output."""
    if rho.dim != a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, effect {a.dim}")
    value = float(np.trace(rho.matrix @ a.matrix).real)
    return min(max(value, 0.0), 1.0)


def sharp_observable(dim: int) -> Observable:
    """Projective observable onto the standard basis, labels "0".."dim-1"."""
    eye = np.eye(dim, dtype=complex)
    return Observable.from_matrices(
        [np.outer(eye[:, j], eye[:, j].conj()) for j in range(dim)]
    )
