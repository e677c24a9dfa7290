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
On a small operator (see _takes_stages) it takes the first _CHUNK steps
one at a time and the rest in stages, each applying one power of the
block outside V to the last _CHUNK Krylov blocks in one wide product.
Whether it stages reads the shape, never the horizon, and stages are
whole, so a_n has the same bits at every horizon.  The resolvent reads
U's adjoint once in the same V-first order.  Its eight sample points
are a ring, z_t = r w^t with w^8 = 1, so prod_t (1 - z_t x) = 1 - r^8 x^8
and every (1 - z_t E)^{-1} is a polynomial in E times the one inverse
(1 - r^8 E^8)^{-1}.  The whole ring, f_V itself, takes all eight points
from one solve with 1 - r^8 E^8; E is a block of a unitary, so
||E|| <= 1 and that matrix has condition number at most
(1 + 2^-8) / (1 - 2^-8) for every V, the empty one included.  f_V less
its exact tail past a_{8q+1} needs no solve: on the ring
z_t^{8q} = r^{8q}, and since 1 - x^q = (1 - x)(1 + x + ... + x^{q-1})
the inverse cancels, leaving the finite geometric sum
sum_{j<q} (r^8 E^8)^j.  schur_of_subspace compares that form with the
Taylor sum of the first 8q + 1 >= order + 1 amplitudes, with nothing
left over, at every order, so its check inverts nothing.  For any square
U the ring form is the amplitudes' Taylor sum, so the check reads the
recursion's code, never U's unitarity, which certify vouches for.
A ``linalg.Unitary`` passes through both without another unitarity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_integer, certify, index_tuple, unit_vector
from .series import MatrixPowerSeries, vandermonde

RESOLVENT_TOL = 1e-8
# Eight sample points on |z| = 0.5, the ring z_t = 0.5 w^t, w^8 = 1, so
# z_t^8 = 2^-8 at every point, and resolvent_compression takes all eight
# from one solve with I - 2^-8 E^8, or, less the tail, from a finite sum
# of powers of 2^-8 E^8.
_RING_RADIUS = 0.5
RESOLVENT_SAMPLES = tuple(_RING_RADIUS * np.exp(2j * np.pi * t / 8) for t in range(8))
# z_t^{m+1} for m = 0..7: row t sums the terms C^dagger E^m X into f_V(z_t)
_RING_POWERS = np.vander(np.array(RESOLVENT_SAMPLES), 9, increasing=True)[:, 1:]
_CONJ_SAMPLES = tuple(np.conj(RESOLVENT_SAMPLES))  # their powers sum the amplitudes to f_V's adjoint
# the amplitude recursion's stage width, in blocks, and the largest
# operator that takes stages (see _takes_stages)
_CHUNK = 8
_POWER_DIM = 14


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


def resolvent_compression(U, v, horizon: int | None = None) -> np.ndarray:
    """Direct evaluation of f_V(z) = P (U - z Q)^{-1} P at the eight
    RESOLVENT_SAMPLES, as an (8, k, k) stack whose entry t is f_V(z_t);
    given a horizon h = 8q + 1, f_V less its tail past a_h, which is the
    Taylor sum of a_1..a_h at the points.

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
    rows C^dagger E^m, m < 8, and E^8 together; then
    f_V(z_t) = A^dagger + sum_m z_t^{m+1} C^dagger E^m X is one product and
    one 8 x 8 Vandermonde.  Without a horizon, the whole ring, one solve
    gives X = X0 B^dagger; ||E|| <= 1, so the solved matrix has condition
    number at most (1 + 2^-8) / (1 - 2^-8), V empty (E = U^dagger) and V
    the whole space (E is 0 x 0) included.  The tail past a_{8q+1} is
    sum_{m>=8q+1} z^m C^dagger E^{m-1} B^dagger, which on the ring is
    r^{8q} z C^dagger (1 - z E)^{-1} E^{8q} B^dagger, so with a horizon
    X = X0 (1 - r^{8q} E^{8q}) B^dagger, and as
    1 - x^q = (1 - x)(1 + x + ... + x^{q-1}) that is the finite sum
    X = sum_{j<q} (r^8 E^8)^j B^dagger: no solve, q - 1 thin products with
    r^8 E^8 by Horner from X = B^dagger, and X = 0 at q = 0, where every
    point reads A^dagger.  U is certified unitary once, unless it is
    already a Unitary.
    """
    u = certify(U).matrix
    if horizon is not None:
        horizon = as_integer(horizon, "horizon")
        if horizon < 1 or (horizon - 1) % 8:
            raise ValueError(f"horizon must be 8q + 1 for an integer q >= 0, got {horizon}")
    n = u.shape[0]
    idx, rest = _split(n, v)
    k = idx.size
    perm = np.concatenate((idx, rest))
    adj = u.T[perm[:, None], perm]
    np.conjugate(adj, out=adj)
    krylov = adj[:, k:]  # [C^dagger; E]
    for p in (1, 2, 4):  # [C^dagger E^0..E^{p-1}; E^p] -> the same up to 2p
        krylov = np.concatenate((krylov[: p * k], krylov @ krylov[p * k :]))
    power = krylov[8 * k :]  # E^8
    rhs = adj[k:, :k]  # B^dagger
    if horizon is None:  # X = (1 - r^8 E^8)^{-1} B^dagger, 1 - r^8 E^8 made in place
        power *= -(_RING_RADIUS**8)
        power.reshape(-1)[:: n - k + 1] += 1.0
        x = np.linalg.solve(power, rhs)
    else:  # X = sum_{j<q} (r^8 E^8)^j B^dagger by Horner, q = horizon // 8; 0 at q = 0
        power *= _RING_RADIUS**8  # r^8 = 2^-8, so exact
        x = rhs if horizon > 1 else np.zeros_like(rhs)
        for _ in range(horizon // 8 - 1):
            x = rhs + power @ x
    terms = krylov[: 8 * k] @ x  # C^dagger E^m X
    return adj[:k, :k] + (_RING_POWERS @ terms.reshape(8, k * k)).reshape(8, k, k)


def schur_of_subspace(U, v, order: int) -> MatrixPowerSeries:
    """Schur function of the subspace, as a truncated series.

    The Taylor route is compared with the resolvent route at the standard
    sample points; a mismatch beyond RESOLVENT_TOL raises ArithmeticError,
    since it would mean one of the two primary computations is wrong.
    Both sides read one amplitude stack: the Taylor sums at the points are
    the adjoints of sum_n conj(z_t)^n a_{n+1}, one product with the stack.
    The stack runs to h = 8q + 1, q = max(1, ceil(order / 8)), the first
    such horizon past the order, and the ring returns f_V less its exact
    tail past a_h, a finite geometric sum in E^8 with no solve, so the two
    agree to rounding and every returned amplitude weighs 2^{1-n} in the
    comparison.  The ring form is the amplitudes' Taylor sum for any
    square U, so the check reads the recursion, not U's unitarity, which
    certify vouches for.  ``U`` is certified once, and V validated once,
    here, unless ``U`` is already a Unitary.
    """
    u, order = certify(U), _order(order)
    split = _split(u.matrix.shape[0], v)
    horizon = 8 * max(1, -(-order // 8)) + 1
    amps = first_return_amplitudes(u, split, horizon)
    h, k = amps.shape[:2]
    # entry n is a_{n+1}, the adjoint of f_V's z^n coefficient
    taylor = (vandermonde(_CONJ_SAMPLES, h) @ amps.reshape(h, k * k)).reshape(8, k, k)
    # V empty compares empty stacks; a NaN fails
    ring = resolvent_compression(u, split, horizon)
    worst = float(np.abs(ring.transpose(0, 2, 1).conj() - taylor).max(initial=0.0))
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
    repaid only on a small operator and a long horizon, and the rule sees
    no horizon.  Staged over one-block time, n 2-80, k 1-4 (BENCH_33.json
    regimes): at horizon 17, which every order 9-16 asks for, a median
    1.25x at k = 1 and 1.00x at k >= 2 up to n = 14, and a loss at every k
    from n = 17; at 65, order 64's, a median 0.61x (0.35-1.01x) over
    n 15-72 at k >= 2, and ahead up to n = 48 at k = 1.  The bound is no
    knee of that table (n = 14 and n = 15 measure the same): it is the
    largest operator of the order-64 Hessenberg checks on sets of at most
    6 blocks with d <= 2, (6 + 1) * 2 coordinates, which it keeps staged.
    An order >= 24 check on a larger operator takes one-block steps, at a
    median 1.6x the staged time at horizon 65 for k >= 2.
    V empty never stages.  The rule reads the shape only, never the
    horizon, so a_n keeps its bits at every horizon."""
    return 0 < k and n <= _POWER_DIM


def _order(order) -> int:
    """A series order: an integer, and nonnegative."""
    order = as_integer(order, "order")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return order


class _Split(NamedTuple):
    """V validated: its indices in V's order, and the other indices
    ascending.  _split hands one back as it is, so the two routes of one
    schur_of_subspace call validate V once."""

    idx: np.ndarray
    rest: np.ndarray


def _split(n: int, v) -> _Split:
    """V's indices in V's order, and the other indices below n ascending."""
    if isinstance(v, _Split):  # made by _split for this operator
        return v
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return _Split(idx, np.flatnonzero(keep))
