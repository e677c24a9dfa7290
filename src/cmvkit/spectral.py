"""First-return amplitudes and Schur functions of coordinate subspaces.

A coordinate subspace V is a sequence of distinct basis indices whose
order is the order of V's basis.  For a unitary U and V with projection
P, the n-th first-return amplitude is a_n = P U (Q U)^{n-1} P with
Q = 1 - P, and the Schur function of V is the series
f_V(z) = sum_{n>=1} a_n^dagger z^{n-1}.  Amplitudes a_1..a_h travel as
one (h, k, k) stack whose entry n - 1 is a_n, the adjoint of f_V's z^{n-1}
coefficient.
Two independent computations are kept side by side: the amplitude
recursion, and the resolvent compression P (U - z Q)^{-1} P sampled on a
small disk.  Any disagreement is raised, never papered over.

The recursion permutes U once so that V comes first; each step is then a
single product with U's columns outside V, and a_n is the head of the
result.  The resolvent solves at every sample point in one stacked
``np.linalg.solve`` in the original basis.  A ``linalg.Unitary`` passes
through both without another unitarity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_integer, certify, index_tuple, unit_vector
from .series import MatrixPowerSeries

RESOLVENT_TOL = 1e-8
# Eight sample points on |z| = 0.5.  At that radius a horizon of 48 leaves
# a geometric tail below 1e-14, far inside RESOLVENT_TOL.
RESOLVENT_SAMPLES = tuple(0.5 * np.exp(2j * np.pi * t / 8) for t in range(8))
_CHECK_HORIZON = 48


def first_return_amplitudes(U, v, horizon: int) -> np.ndarray:
    """a_n = P U (Q U)^{n-1} P for n = 1..horizon, as a (horizon, k, k)
    stack whose entry n - 1 is a_n.

    U's rows are read once in a V-first order (v's indices in v's order,
    then the rest ascending).  After the first step the block of vectors
    lies outside V, so only U's columns outside V, M, act on it: each
    step is one product M x into an n x k buffer whose first k rows are
    a_n and whose other rows are the next block, with Q applied by
    dropping V's rows.
    """
    u = certify(U).matrix
    horizon = as_integer(horizon, "horizon")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n = u.shape[0]
    idx, rest = _split(n, v)
    k = idx.size
    perm = np.concatenate((idx, rest))
    amps = np.empty((horizon, k, k), dtype=np.complex128)
    if horizon == 0:
        return amps
    m = u[np.ix_(perm, rest)]
    x = u[np.ix_(perm, idx)]
    y = np.empty_like(x)
    amps[0] = x[:k]
    for step in range(1, horizon):
        np.matmul(m, x[k:], out=y)
        amps[step] = y[:k]
        x, y = y, x
    return amps


def resolvent_compression(U, v, z) -> np.ndarray:
    """Direct evaluation P (U - z Q)^{-1} P, the closed form of f_V(z).

    ``z`` is one point or a sequence of points; a sequence gives the values
    stacked along a leading axis.  Every point goes through one stacked
    solve, with U certified unitary once.
    """
    u = certify(U).matrix
    n = u.shape[0]
    idx, rest = _split(n, v)
    k = idx.size
    points = np.asarray(z, dtype=np.complex128)
    zs = points.reshape(-1)
    # U - z Q differs from U only on the diagonal outside V
    shifted = np.repeat(u[None], zs.size, axis=0)
    shifted.reshape(zs.size, n * n)[:, rest * (n + 1)] -= zs[:, None]
    b = np.zeros((n, k), dtype=np.complex128)
    b[idx, np.arange(k)] = 1.0
    values = np.linalg.solve(shifted, np.broadcast_to(b, (zs.size, n, k)))[:, idx]
    return values.reshape(points.shape + (k, k))


def schur_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """Schur function of the subspace, as a truncated series.

    The Taylor route is compared with the resolvent route at the standard
    sample points; a mismatch beyond RESOLVENT_TOL raises ArithmeticError,
    since it would mean one of the two primary computations is wrong.
    ``U`` is certified once, here, unless it is already a Unitary.
    """
    u, order = certify(U), as_integer(order, "order")
    horizon = max(order + 1, _CHECK_HORIZON)
    # entry n of the stack is a_{n+1}, so its adjoints are f_V's coefficients
    coeffs = np.ascontiguousarray(
        first_return_amplitudes(u, v, horizon).transpose(0, 2, 1).conj())
    taylor = MatrixPowerSeries(coeffs).values_at(RESOLVENT_SAMPLES)
    worst = float(np.abs(taylor - resolvent_compression(u, v, RESOLVENT_SAMPLES)).max())
    if worst > RESOLVENT_TOL:
        raise ArithmeticError(
            "internal-consistency failure: Taylor and resolvent routes "
            f"disagree by {worst:.3e}"
        )
    return MatrixPowerSeries(coeffs[: order + 1].copy())


def caratheodory_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """F(z) = 1 + 2 sum_{n>=1} mu_n^dagger z^n built from spectral moments."""
    u = certify(U).matrix
    rows = np.array(index_tuple(u.shape[0], v), dtype=np.intp)
    k = rows.size
    coeffs = np.zeros((order + 1, k, k), dtype=np.complex128)
    coeffs[0] = np.eye(k)
    x = u[:, rows]  # U^n restricted to v's columns, for n = 1, 2, ...
    for n in range(1, order + 1):
        coeffs[n] = 2.0 * x[rows].conj().T
        x = u @ x
    return MatrixPowerSeries(coeffs)


@dataclass(frozen=True)
class ReturnStatistics:
    """First-return probabilities of a state, with partial sums."""

    probabilities: tuple[float, ...]
    cumulative: float
    partial_expected_time: float


def return_statistics(U, v, psi, horizon: int) -> ReturnStatistics:
    """p_n = |a_n psi|^2 for a unit vector psi written in the basis of v."""
    psi = unit_vector(psi)
    amps = first_return_amplitudes(U, v, horizon)
    if amps.shape[1] != psi.size:
        raise ValueError("state length does not match the subspace dimension")
    probs = tuple(float(np.linalg.norm(a @ psi) ** 2) for a in amps)
    cumulative = float(sum(probs))
    expected = float(sum((n + 1) * p for n, p in enumerate(probs)))
    return ReturnStatistics(probs, cumulative, expected)


def _split(n: int, v) -> tuple[np.ndarray, np.ndarray]:
    """V's indices in V's order, and the other indices below n ascending."""
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return idx, np.flatnonzero(keep)
