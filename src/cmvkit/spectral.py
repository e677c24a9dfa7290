"""Spectral moments, first-return amplitudes, and subspace Schur functions.

For a unitary U and a coordinate subspace V with projection P, the n-th
first-return amplitude is a_n = P U (Q U)^{n-1} P with Q = 1 - P, and the
Schur function of V is the series f_V(z) = sum_{n>=1} a_n^dagger z^{n-1}.
Two independent computations are kept side by side: the amplitude
recursion, and the resolvent compression P (U - z Q)^{-1} P sampled on a
small disk.  Any disagreement is raised, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import Subspace, certify, column_selector, require_unitary
from .series import MatrixPowerSeries

RESOLVENT_TOL = 1e-8
# Eight sample points on |z| = 0.5.  At that radius a horizon of 48 leaves
# a geometric tail below 1e-14, far inside RESOLVENT_TOL.
RESOLVENT_SAMPLES = tuple(0.5 * np.exp(2j * np.pi * t / 8) for t in range(8))
_CHECK_HORIZON = 48


def index_tuple(dim: int, v) -> tuple[int, ...]:
    """Basis indices of ``v`` in the order that defines its basis.

    ``v`` is either a Subspace (ascending index order) or an explicit index
    sequence, kept in the given order.
    """
    if isinstance(v, Subspace):
        if v.ambient_dim != dim:
            raise ValueError("subspace ambient dimension does not match")
        return v.indices
    idx = tuple(int(i) for i in v)
    if len(set(idx)) != len(idx):
        raise ValueError("basis indices must be distinct")
    if idx and (min(idx) < 0 or max(idx) >= dim):
        raise ValueError("basis index out of range")
    return idx


def basis_columns(dim: int, v) -> np.ndarray:
    """Column-selector matrix for ``v``; column order fixes the basis order."""
    return column_selector(dim, index_tuple(dim, v))


@dataclass(frozen=True)
class ReturnAmplitudes:
    """First-return amplitudes a_1..a_horizon of a subspace."""

    basis_indices: tuple[int, ...]
    horizon: int
    amplitudes: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis_indices)

    def amplitude(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"amplitude index {n} outside 1..{self.horizon}")
        return self.amplitudes[n - 1]


def spectral_moments(U, v, n: int) -> np.ndarray:
    """Compression P U^n P of a power of the unitary, as a dim(v) matrix.

    Negative n uses the adjoint, so moments satisfy mu_{-n} = mu_n^dagger.
    """
    u = require_unitary(U)
    b = basis_columns(u.shape[0], v)
    if n < 0:
        u = u.conj().T
        n = -n
    return b.conj().T @ np.linalg.matrix_power(u, n) @ b


def first_return_amplitudes(U, v, horizon: int) -> ReturnAmplitudes:
    """a_n = P U (Q U)^{n-1} P for n = 1..horizon, via the obvious recursion:
    keep a block of vectors, apply U, record the compression (v's rows, in
    v's order), project out V (zero those rows), repeat."""
    u = require_unitary(U)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    idx = index_tuple(u.shape[0], v)
    rows = np.array(idx, dtype=np.intp)
    amps = []
    x = column_selector(u.shape[0], idx)
    for _ in range(horizon):
        x = u @ x
        amps.append(x[rows])
        x[rows] = 0.0
    return ReturnAmplitudes(idx, horizon, tuple(amps))


def amplitudes_to_schur(ra: ReturnAmplitudes, order: int) -> MatrixPowerSeries:
    """Assemble f(z) = sum a_n^dagger z^{n-1} up to the given order."""
    if order + 1 > ra.horizon:
        raise ValueError("horizon too small for the requested order")
    coeffs = np.stack([ra.amplitudes[n].conj().T for n in range(order + 1)])
    return MatrixPowerSeries(coeffs)


def resolvent_compression(U, v, z) -> np.ndarray:
    """Direct evaluation P (U - z Q)^{-1} P, the closed form of f_V(z).

    ``z`` is one point or a sequence of points; a sequence gives the values
    stacked along a leading axis, with U certified unitary once.
    """
    u = require_unitary(U)
    n = u.shape[0]
    idx = index_tuple(n, v)
    rows = np.array(idx, dtype=np.intp)
    b = column_selector(n, idx)
    # U - z Q differs from U only on the diagonal outside V
    keep = np.ones(n, dtype=bool)
    keep[rows] = False
    diagonal = np.flatnonzero(keep) * (n + 1)

    def compress(w):
        shifted = u.copy()
        shifted.flat[diagonal] -= w
        return np.linalg.solve(shifted, b)[rows]

    if np.ndim(z) == 0:
        return compress(z)
    # one solve per point: a stacked solve holds every shifted matrix at once
    return np.stack([compress(w) for w in z])


def schur_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """Schur function of the subspace, as a truncated series.

    The Taylor route is compared with the resolvent route at the standard
    sample points; a mismatch beyond RESOLVENT_TOL raises ArithmeticError,
    since it would mean one of the two primary computations is wrong.
    ``U`` is certified once, here, unless it is already a Unitary.
    """
    u = certify(U)
    horizon = max(order + 1, _CHECK_HORIZON)
    ra = first_return_amplitudes(u, v, horizon)
    long_series = amplitudes_to_schur(ra, horizon - 1)
    taylor = long_series.values_at(RESOLVENT_SAMPLES)
    worst = float(np.abs(taylor - resolvent_compression(u, v, RESOLVENT_SAMPLES)).max())
    if worst > RESOLVENT_TOL:
        raise ArithmeticError(
            "internal-consistency failure: Taylor and resolvent routes "
            f"disagree by {worst:.3e}"
        )
    f = amplitudes_to_schur(ra, order)
    return MatrixPowerSeries(f.coeffs, schur=True)


def caratheodory_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """F(z) = 1 + 2 sum_{n>=1} mu_n^dagger z^n built from spectral moments."""
    u = require_unitary(U)
    b = basis_columns(u.shape[0], v)
    k = b.shape[1]
    coeffs = np.zeros((order + 1, k, k), dtype=np.complex128)
    coeffs[0] = np.eye(k)
    x = b
    for n in range(1, order + 1):
        x = u @ x
        coeffs[n] = 2.0 * (b.conj().T @ x).conj().T
    return MatrixPowerSeries(coeffs)


@dataclass(frozen=True)
class ReturnStatistics:
    """First-return probabilities of a state, with partial sums."""

    probabilities: tuple[float, ...]
    cumulative: float
    partial_expected_time: float

    def rows(self):
        return [(n + 1, p) for n, p in enumerate(self.probabilities)]


def return_statistics(U, v, psi, horizon: int) -> ReturnStatistics:
    """p_n = |a_n psi|^2 for a unit vector psi written in the basis of v."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized (|psi| = {norm:.6f})")
    ra = first_return_amplitudes(U, v, horizon)
    if ra.dim != psi.size:
        raise ValueError("state length does not match the subspace dimension")
    probs = tuple(float(np.linalg.norm(a @ psi) ** 2) for a in ra.amplitudes)
    cumulative = float(sum(probs))
    expected = float(sum((n + 1) * p for n, p in enumerate(probs)))
    return ReturnStatistics(probs, cumulative, expected)
