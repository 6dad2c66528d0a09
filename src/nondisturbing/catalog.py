"""Built-in nondisturbing model families with their closed-form outputs.

Two unitary families, both using the standard context, the standard
probe basis, and the first probe basis state as the initial probe state:

* the swap family, where atom ``i`` of the base swaps probe basis
  vectors 0 and ``i``; and
* the Fourier-phase family, where atom ``j`` applies a discrete-Fourier
  phase unitary to the probe.

Each family's unitaries come as one ``(n, d, d)`` stack, one per atom, and
each constructor returns a full :class:`~nondisturbing.models.MeasurementModel`;
the accompanying helpers evaluate the families' pencil-and-paper closed
forms independently of the general machinery, so tests can pit one
against the other.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .objects import Context, Observable, State, sharp_observable
from .channels import NDChannel
from .models import MeasurementModel

__all__ = [
    "swap_unitaries",
    "swap_model",
    "swap_product_output",
    "swap_instrument_output",
    "swap_observable_effect",
    "fourier_unitaries",
    "fourier_model",
    "fourier_pair_traces",
    "fourier_observable_effect",
]


def _pure_first_basis_state(dim: int) -> State:
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return State(m)


def swap_unitaries(n: int) -> np.ndarray:
    """Unitaries ``V_i`` exchanging probe basis vectors 0 and ``i``.

    One ``(n, n, n)`` stack; ``V_0`` is the identity and every ``V_i`` is an involution.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i, a = np.ogrid[:n, :n]
    # Row a of V_i is basis row t_i(a), for t_i the transposition of 0 and i.
    return np.eye(n, dtype=complex)[np.where(a == 0, i, np.where(a == i, 0, a))]


def swap_model(n: int, meter: Observable | None = None) -> MeasurementModel:
    """Swap-interaction model on an ``n``-dimensional base and probe.

    The probe starts in the first basis state.  The meter defaults to the
    sharp observable on the probe basis; any other meter on the probe
    space can be passed in.
    """
    if meter is None:
        meter = sharp_observable(n)
    channel = NDChannel(Context.standard(n), swap_unitaries(n)[:, None])
    return MeasurementModel(_pure_first_basis_state(n), channel, meter)


def swap_product_output(rho: State) -> np.ndarray:
    """Channel output of the swap model on ``rho (x) |0><0|``.

    Closed form ``sum_{i,j} (P_i rho P_j) (x) |i><j|`` over the standard
    bases.
    """
    n = rho.dim
    out = np.zeros((n * n, n * n), dtype=complex)
    d = np.arange(n) * (n + 1)  # the index of |i>|i>
    out[np.ix_(d, d)] = rho.matrix
    return out


def swap_instrument_output(rho: State, meter_effect: np.ndarray) -> np.ndarray:
    """Instrument outcome of the swap model: ``sum_{i,j} <j|F|i> P_i rho P_j``.

    Over the standard bases this is just an entrywise product with the
    transposed meter effect.  ``meter_effect`` is one ``n x n`` effect or a
    ``(..., n, n)`` stack of them; the result has the same shape.
    """
    f = np.asarray(meter_effect, dtype=complex)
    if f.ndim < 2 or f.shape[-2:] != (rho.dim, rho.dim):
        raise ValueError(f"meter effect must be {rho.dim} x {rho.dim}, got {f.shape}")
    return np.swapaxes(f, -1, -2) * rho.matrix


def swap_observable_effect(meter_effect: np.ndarray) -> np.ndarray:
    """Measured-observable effect of the swap model: ``sum_i <i|F|i> P_i``.

    Takes one effect or a stack, like :func:`swap_instrument_output`.
    """
    f = np.asarray(meter_effect, dtype=complex)
    if f.ndim < 2 or f.shape[-1] != f.shape[-2]:
        raise ValueError(f"meter effect must be square, got {f.shape}")
    return f * np.eye(f.shape[-1])


def fourier_unitaries(n: int, m: int) -> np.ndarray:
    """Discrete-Fourier phase unitaries ``V_1 .. V_n`` on an ``m``-dimensional probe.

    One ``(n, m, m)`` stack.  ``V_j`` maps probe basis vector ``r`` (counted from 1) to
    ``m^(-1/2) sum_s exp(2 pi i j r s / m) |s>``.  The columns are
    orthonormal exactly when ``gcd(j, m) = 1``, so every ``j`` in
    ``1..n`` must be coprime to ``m``; choosing ``m`` prime with
    ``n <= m - 1`` always works.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    for j in range(1, n + 1):
        if gcd(j, m) != 1:
            raise ValueError(
                f"phase unitary {j} is not unitary: gcd({j}, {m}) = {gcd(j, m)} != 1"
            )
    j, s, r = np.ogrid[1:n + 1, 1:m + 1, 1:m + 1]
    return np.exp(2j * np.pi * j * (s * r) / m) / np.sqrt(m)


def fourier_model(n: int, m: int, meter: Observable | None = None) -> MeasurementModel:
    """Fourier-phase model on an ``n``-dimensional base and ``m``-dimensional probe.

    The probe starts in the first basis state; the meter defaults to the
    sharp observable on the probe basis.
    """
    if meter is None:
        meter = sharp_observable(m)
    channel = NDChannel(Context.standard(n), fourier_unitaries(n, m)[:, None])
    return MeasurementModel(_pure_first_basis_state(m), channel, meter)


def fourier_pair_traces(n: int, m: int, meter_effect: np.ndarray) -> np.ndarray:
    """Pair coefficients of the Fourier-phase instrument, straight from phases.

    Entry ``[j - 1, k - 1]`` is the coefficient of atoms ``j`` and ``k``
    (counted from 1), ``(1/m) sum_{s,t} exp(2 pi i (j s - k t) / m) <t|F|s>``.
    With ``a[j, s] = exp(2 pi i j s / m)`` that is the matrix
    ``a F^T a* / m``.  ``meter_effect`` is one ``m x m`` effect or a
    ``(..., m, m)`` stack of them; the result has shape ``(..., n, n)``.
    """
    f = np.asarray(meter_effect, dtype=complex)
    if f.ndim < 2 or f.shape[-2:] != (m, m):
        raise ValueError(f"meter effect must be {m} x {m}, got {f.shape}")
    a = np.exp(2j * np.pi * np.outer(np.arange(1, n + 1), np.arange(1, m + 1)) / m)
    return a @ np.swapaxes(f, -1, -2) @ a.conj().T / m


def fourier_observable_effect(n: int, m: int, meter_effect: np.ndarray) -> np.ndarray:
    """Measured-observable effect of the Fourier-phase model.

    Diagonal over the base atoms, holding the diagonal of
    :func:`fourier_pair_traces`: ``(1/m) sum_{s,t} exp(2 pi i j (s - t) / m) <t|F|s>``
    for atom ``j``.  Takes one effect or a stack, like :func:`fourier_pair_traces`.
    """
    return fourier_pair_traces(n, m, meter_effect) * np.eye(n)
