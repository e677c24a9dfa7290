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
ring of eight points.  Any disagreement is raised, never papered over.

The recursion permutes U once so that V comes first; a step is then one
product with U's columns outside V into one buffer; a_n heads block n - 1.
Where powers of the block outside V are cheap (see _takes_stages), it
takes the first _CHUNK steps one at a time and the rest in stages, each
applying one power of that block to the last _CHUNK Krylov blocks in one
wide product.  Whether it stages reads the shape, never the horizon, and
stages are whole, so a_n has the same bits at every horizon.  The
resolvent reads U's adjoint once in the same V-first order and takes all
eight sample points from one solve: they are a ring, z_t = r w^t with
w^8 = 1, so prod_t (1 - z_t x) = 1 - r^8 x^8 and every (1 - z_t E)^{-1}
is a polynomial in E times the one inverse (1 - r^8 E^8)^{-1}.  E is a
block of a unitary, so ||E|| <= 1 and that matrix has condition number
at most (1 + 2^-8) / (1 - 2^-8) for every V, the empty one included.
A ``linalg.Unitary`` passes through both without another unitarity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_integer, certify, index_tuple, unit_vector
from .series import MatrixPowerSeries, vandermonde

RESOLVENT_TOL = 1e-8
# Eight sample points on |z| = 0.5.  At that radius a horizon of 48 leaves
# a geometric tail below 1e-14, far inside RESOLVENT_TOL.  They are the
# ring z_t = 0.5 w^t, w^8 = 1, so z_t^8 = 2^-8 at every point, and
# resolvent_compression takes all eight from one solve with I - 2^-8 E^8.
_RING_RADIUS = 0.5
RESOLVENT_SAMPLES = tuple(_RING_RADIUS * np.exp(2j * np.pi * t / 8) for t in range(8))
# z_t^{m+1} for m = 0..7: row t sums the terms C^dagger E^m X into f_V(z_t)
_RING_POWERS = np.vander(np.array(RESOLVENT_SAMPLES), 9, increasing=True)[:, 1:]
_CONJ_SAMPLES = tuple(np.conj(RESOLVENT_SAMPLES))  # their powers sum the amplitudes to f_V's adjoint
_CHECK_HORIZON = 48
# the amplitude recursion's stage width, in blocks, and the two bounds
# of _takes_stages
_CHUNK = 8
_POWER_RATIO = 48
_POWER_DIM = 72


def first_return_amplitudes(U, v, horizon: int) -> np.ndarray:
    """a_n = P U (Q U)^{n-1} P for n = 1..horizon, as a (horizon, k, k)
    stack whose entry n - 1 is a_n.

    U is read once in a V-first order (v's indices in v's order, then the
    rest ascending).  With B = U[v, rest], C = U[rest, v] and
    D = U[rest, rest], a_1 = U[v, v] and a_{c+1} = B D^{c-1} C; the Krylov
    block of step c is [a_{c+1}; D^c C], and m = [B; D] takes one to the
    next, in one product into the next block of one buffer.  Where
    _takes_stages admits powers of D and the horizon exceeds _CHUNK, the
    buffer holds the blocks side by side, block c in columns c k..(c+1) k - 1,
    and after _CHUNK steps m_CHUNK = [B D^{CHUNK-1}; D^CHUNK], formed by
    squarings m_{2p} = m_p @ m_p[k:], takes the last _CHUNK blocks' tails,
    one slice, to the next _CHUNK in one product.  Otherwise it stacks
    them, each contiguous for its step.  The heads are read out once, at
    the end.  Stages are whole, so a_n has the same bits at every horizon,
    and a powered shape asked for at most _CHUNK amplitudes costs what
    one-block steps cost.
    """
    u = certify(U).matrix
    horizon = as_integer(horizon, "horizon")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n = u.shape[0]
    idx, rest = _split(n, v)
    k = idx.size
    perm = np.concatenate((idx, rest))[:, None]
    m = u[perm, rest]
    if not (horizon > _CHUNK and _takes_stages(n, k)):
        krylov = np.empty((max(horizon, 1), n, k), dtype=np.complex128)
        krylov[0] = u[perm, idx]
        for c in range(1, horizon):
            np.matmul(m, krylov[c - 1, k:], out=krylov[c])
        return krylov[:horizon, :k].copy()
    width = -(-horizon // _CHUNK) * _CHUNK  # whole stages
    krylov = np.empty((n, width * k), dtype=np.complex128)
    krylov[:, :k] = u[perm, idx]
    for c in range(1, _CHUNK):
        np.matmul(m, krylov[k:, (c - 1) * k : c * k], out=krylov[:, c * k : (c + 1) * k])
    for _ in range(_CHUNK.bit_length() - 1):  # m_{2p} = m_p @ m_p[k:], up to m_CHUNK
        m = m @ m[k:]
    for c in range(_CHUNK, horizon, _CHUNK):  # blocks c-CHUNK..c-1 to c..c+CHUNK-1
        np.matmul(m, krylov[k:, (c - _CHUNK) * k : c * k], out=krylov[:, c * k : (c + _CHUNK) * k])
    return krylov[:k].reshape(k, width, k)[:, :horizon].transpose(1, 0, 2).copy()


def resolvent_compression(U, v) -> np.ndarray:
    """Direct evaluation of f_V(z) = P (U - z Q)^{-1} P at the eight
    RESOLVENT_SAMPLES, as an (8, k, k) stack whose entry t is f_V(z_t).

    U's adjoint is read once in the V-first order of
    first_return_amplitudes: with A = U[v, v], B = U[v, rest],
    C = U[rest, v] and E = U[rest, rest]^dagger it is
    [[A^dagger, C^dagger], [B^dagger, E]], and, U being unitary,
    f_V(z) = A^dagger + z C^dagger (1 - z E)^{-1} B^dagger.  (For any
    square U this last form is the sum of the amplitudes' Taylor series,
    so the check reads the recursion; unitarity is certify's.)  On the ring
    z_t^8 = r^8 (r = 0.5), so (1 - z_t E)^{-1} = (sum_{m<8} z_t^m E^m) X0
    with X0 = (1 - r^8 E^8)^{-1}, shared by every point.  Three squarings
    of [C^dagger E^0..C^dagger E^{p-1}; E^p], each one product, give the
    rows C^dagger E^m, m < 8, and E^8 together; one solve gives
    X = X0 B^dagger; and f_V(z_t) = A^dagger + sum_m z_t^{m+1} C^dagger E^m X
    is one product and one 8 x 8 Vandermonde.  ||E|| <= 1, so the solved
    matrix has condition number at most (1 + 2^-8) / (1 - 2^-8), V empty
    (E = U^dagger) and V the whole space (E is 0 x 0) included.  U is
    certified unitary once, unless it is already a Unitary.
    """
    u = certify(U).matrix
    n = u.shape[0]
    idx, rest = _split(n, v)
    k = idx.size
    perm = np.concatenate((idx, rest))
    adj = u.T[perm[:, None], perm]
    np.conjugate(adj, out=adj)
    krylov = adj[:, k:]  # [C^dagger; E]
    for p in (1, 2, 4):  # [C^dagger E^0..E^{p-1}; E^p] -> the same up to 2p
        krylov = np.concatenate((krylov[: p * k], krylov @ krylov[p * k :]))
    shifted = krylov[8 * k :]  # E^8, made 1 - r^8 E^8 in place
    shifted *= -(_RING_RADIUS**8)
    shifted.reshape(-1)[:: n - k + 1] += 1.0
    terms = krylov[: 8 * k] @ np.linalg.solve(shifted, adj[k:, :k])  # C^dagger E^m X
    return adj[:k, :k] + (_RING_POWERS @ terms.reshape(8, k * k)).reshape(8, k, k)


def schur_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """Schur function of the subspace, as a truncated series.

    The Taylor route is compared with the resolvent route at the standard
    sample points; a mismatch beyond RESOLVENT_TOL raises ArithmeticError,
    since it would mean one of the two primary computations is wrong.
    Both sides read one amplitude stack: the Taylor sums at the points are
    the adjoints of sum_n conj(z_t)^n a_{n+1}, one product with the stack.
    ``U`` is certified once, here, unless it is already a Unitary.
    """
    u, order = certify(U), _order(order)
    amps = first_return_amplitudes(u, v, max(order + 1, _CHECK_HORIZON))
    h, k = amps.shape[:2]
    # entry n is a_{n+1}, the adjoint of f_V's z^n coefficient
    taylor = (vandermonde(_CONJ_SAMPLES, h) @ amps.reshape(h, k * k)).reshape(8, k, k)
    # V empty compares empty stacks; a NaN fails
    worst = float(np.abs(resolvent_compression(u, v).transpose(0, 2, 1).conj() - taylor).max(initial=0.0))
    if not worst <= RESOLVENT_TOL:
        raise ArithmeticError(
            "internal-consistency failure: Taylor and resolvent routes "
            f"disagree by {worst:.3e}"
        )
    return MatrixPowerSeries(np.conjugate(amps[: order + 1].transpose(0, 2, 1), order="C"))


def caratheodory_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """F(z) = 1 + 2 sum_{n>=1} mu_n^dagger z^n built from spectral moments."""
    u, order = certify(U).matrix, _order(order)
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


def _takes_stages(n: int, k: int) -> bool:
    """Whether first_return_amplitudes forms powers of D for a subspace of
    dimension k in dimension n.  The squarings to m_CHUNK cost
    3 n (n - k)^2 once, against the n (n - k) k of one step, so they are
    repaid only on a small operator.  Both bounds are measured at the
    cross-check horizon of 48: for k >= 2 stages win up to n = 68, break
    even near n = 72 and lose by n = 88; for k = 1, whose steps are
    matrix-vector products, they win up to n = 48 and lose from n = 56.
    The rule reads the shape only, never the horizon, so a_n keeps its
    bits at every horizon."""
    return n - k <= _POWER_RATIO * k and n <= _POWER_DIM


def _order(order) -> int:
    """A series order: an integer, and nonnegative."""
    order = as_integer(order, "order")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return order


def _split(n: int, v) -> tuple[np.ndarray, np.ndarray]:
    """V's indices in V's order, and the other indices below n ascending."""
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return idx, np.flatnonzero(keep)
