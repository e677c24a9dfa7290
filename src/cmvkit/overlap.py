"""Overlapping factorizations of finite unitaries.

Given a partition of the coordinate basis into left, center, and right
groups, a unitary U factorizes as U = (U_LC + 1_R)(1_L + U_CR), with the
factors supported on left+center and center+right, exactly when the corner
P_R U P_L vanishes (the rank condition on P_LC U P_CR comes for free in
finite dimension and is kept as a consistency check).  The factor pair is
unique up to a gauge unitary acting on the center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Unitary, as_integer, as_matrix, certify, embed, numerical_rank
from .series import MatrixPowerSeries, coeff_distance, convolve
from .spectral import schur_of_subspace

CORNER_REL_TOL = 1e-10
FACTOR_TOL = 1e-10
TIE_REL_TOL = 1e-12
KHRUSHCHEV_TOL = 1e-8  # abstract_khrushchev_check's bound on its residual


@dataclass(frozen=True)
class SubspacePartition:
    """Disjoint left/center/right index groups covering 0..ambient_dim-1."""

    ambient_dim: int
    left: tuple[int, ...]
    center: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(as_integer(i) for i in self.left))
        center = tuple(sorted(as_integer(i) for i in self.center))
        right = tuple(sorted(as_integer(i) for i in self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "right", right)
        seen = left + center + right
        if len(set(seen)) != len(seen):
            raise ValueError("partition groups must be disjoint")
        if sorted(seen) != list(range(self.ambient_dim)):
            raise ValueError("partition must cover every index exactly once")

    @property
    def lc(self) -> tuple[int, ...]:
        return tuple(sorted(self.left + self.center))

    @property
    def cr(self) -> tuple[int, ...]:
        return tuple(sorted(self.center + self.right))


@dataclass(frozen=True)
class OverlapCheck:
    """Outcome of the corner/rank characterization."""

    ok: bool
    corner_norm: float
    corner_tol: float
    rank: int
    center_dim: int


@dataclass(frozen=True)
class OverlapFactorization:
    """Factor pair (u_lc, u_cr) of an overlapping factorization.

    The factors are stored on their own index groups (ascending ambient
    order); embedding extends them by the identity elsewhere.  Their
    unitarity certificates are kept once made: ``construct_overlap`` and
    ``cmv.standard_overlap`` hand theirs over, and a factorization built
    from bare arrays is certified on first use.
    """

    partition: SubspacePartition
    u_lc: np.ndarray
    u_cr: np.ndarray
    _certs: tuple = field(default=(), init=False, compare=False, repr=False)

    @classmethod
    def of_certified(cls, partition: SubspacePartition, u_lc: Unitary, u_cr: Unitary) -> OverlapFactorization:
        """The factorization of two certified factors, keeping the certificates."""
        fact = cls(partition, u_lc.matrix, u_cr.matrix)
        object.__setattr__(fact, "_certs", (u_lc, u_cr))
        return fact

    def certified(self) -> tuple[Unitary, Unitary]:
        """The factors as ``linalg.Unitary``, certified at most once; the
        certificates hold read-only copies of the factors as first used."""
        if not self._certs:
            object.__setattr__(self, "_certs", (
                certify(self.u_lc, what="left-center factor"),
                certify(self.u_cr, what="center-right factor"),
            ))
        return self._certs

    def product(self) -> np.ndarray:
        part = self.partition
        n = part.ambient_dim
        return embed(self.u_lc, part.lc, n) @ embed(self.u_cr, part.cr, n)

    def reconstruction_residual(self, U) -> float:
        return float(np.linalg.norm(self.product() - as_matrix(U)))


def check_overlap(U, partition: SubspacePartition) -> OverlapCheck:
    """Corner test P_R U P_L = 0 to CORNER_REL_TOL ||U||_F, plus the rank check."""
    u = certify(U).matrix
    if u.shape[0] != partition.ambient_dim:
        raise ValueError("matrix size does not match the partition")
    if partition.right and partition.left:
        corner = u[np.ix_(partition.right, partition.left)]
        corner_norm = float(np.linalg.norm(corner))
    else:
        corner_norm = 0.0
    corner_tol = CORNER_REL_TOL * float(np.linalg.norm(u))
    k = u[np.ix_(partition.lc, partition.cr)]
    rank = numerical_rank(k) if k.size else 0
    center_dim = len(partition.center)
    ok = corner_norm <= corner_tol and rank == center_dim
    return OverlapCheck(ok, corner_norm, corner_tol, rank, center_dim)


def construct_overlap(U, partition: SubspacePartition) -> OverlapFactorization:
    """Build the factor pair via the partial isometry K = P_LC U P_CR.

    Everything is read on index slices: K is U's lc rows and cr columns.
    K^dagger K is the projection onto the initial space of K; a gauge
    isometry W maps an orthonormal basis of that space onto the canonical
    basis of the center.  The basis is chosen deterministically: pivoted
    orthonormalization of the columns of K^dagger K, largest column norm
    first, matched to the center indices in ascending order.  Norms
    within a relative TIE_REL_TOL of the largest are tied, and a tie goes
    to the lowest index, so rounding does not pick the pivot.
    """
    cert = certify(U)
    chk = check_overlap(cert, partition)
    if not chk.ok:
        raise ValueError(
            "no overlapping factorization: corner norm "
            f"{chk.corner_norm:.3e} (tol {chk.corner_tol:.3e}), rank "
            f"{chk.rank} vs center dimension {chk.center_dim}"
        )
    u = cert.matrix
    left, center, right = partition.left, partition.center, partition.right
    lc, cr = partition.lc, partition.cr
    k = u[np.ix_(lc, cr)]
    kdk = k.conj().T @ k
    proj_defect = float(np.linalg.norm(kdk @ kdk - kdk))
    scale = max(1.0, float(np.linalg.norm(u)))
    if proj_defect > FACTOR_TOL * scale:
        raise ValueError(f"K^dagger K is not a projection (defect {proj_defect:.3e})")

    # the gauge W, center x cr: row t is the conjugate of the t-th basis vector
    cols = kdk.copy()
    w = np.zeros((len(center), len(cr)), dtype=np.complex128)
    for t in range(len(center)):
        norms = np.linalg.norm(cols, axis=0)
        top = float(norms.max())
        if top <= 1e-8:
            raise ValueError("rank collapse while orthonormalizing the overlap basis")
        b = cols[:, np.flatnonzero(norms >= (1.0 - TIE_REL_TOL) * top)[0]].copy()
        for e in w[:t].conj():
            b -= e * (e.conj() @ b)
        b /= np.linalg.norm(b)
        w[t] = b.conj()
        cols -= np.outer(b, b.conj() @ cols)

    # U_CR is 1_L + U_CR = P_L + W K^dagger K + P_R U read on cr x cr, and
    # U_LC is U_LC + 1_R = U P_L + K W^dagger P_C + P_R read on lc x lc
    u_cr = np.empty((len(cr), len(cr)), dtype=np.complex128)
    u_cr[_positions(cr, center)] = w @ kdk
    u_cr[_positions(cr, right)] = u[np.ix_(right, cr)]
    u_lc = np.empty((len(lc), len(lc)), dtype=np.complex128)
    u_lc[:, _positions(lc, left)] = u[np.ix_(lc, left)]
    u_lc[:, _positions(lc, center)] = k @ w.conj().T
    fact = OverlapFactorization.of_certified(
        partition,
        certify(u_lc, what="left-center factor"),
        certify(u_cr, what="center-right factor"),
    )
    resid = fact.reconstruction_residual(u)
    if resid > FACTOR_TOL * scale:
        raise ArithmeticError(f"factor product misses the source by {resid:.3e}")
    return fact


def _positions(whole: tuple[int, ...], part) -> list[int]:
    table = {amb: t for t, amb in enumerate(whole)}
    return [table[int(i)] for i in part]


def verify_gauge(f1: OverlapFactorization, f2: OverlapFactorization) -> np.ndarray:
    """Extract the gauge unitary connecting two factorizations of one source.

    The left factors must differ by 1 + U_C on the center and the right
    factors by the adjoint relation; anything else raises.
    """
    if f1.partition != f2.partition:
        raise ValueError("factorizations use different partitions")
    part = f1.partition
    pc_lc = _positions(part.lc, part.center)
    g = f1.u_lc.conj().T @ f2.u_lc
    expected = np.eye(len(part.lc), dtype=np.complex128)
    u_c = g[np.ix_(pc_lc, pc_lc)]
    expected[np.ix_(pc_lc, pc_lc)] = u_c
    scale = max(1.0, float(np.linalg.norm(g)))
    if float(np.linalg.norm(g - expected)) > FACTOR_TOL * scale:
        raise ValueError("left factors are not related by a center gauge")
    certify(u_c, what="gauge")

    pc_cr = _positions(part.cr, part.center)
    h = f2.u_cr @ f1.u_cr.conj().T
    expected = np.eye(len(part.cr), dtype=np.complex128)
    expected[np.ix_(pc_cr, pc_cr)] = u_c.conj().T
    if float(np.linalg.norm(h - expected)) > FACTOR_TOL * scale:
        raise ValueError("right factors do not carry the adjoint gauge")
    return u_c


@dataclass(frozen=True)
class KhrushchevResidual:
    """Residual of the factorization f_V = (1 + f^R)(f^L + 1).

    Carries the three Schur functions it compared, so callers can test
    them against closed forms without computing them again.
    """

    residual: float
    order: int
    tolerance: float
    f_v: MatrixPowerSeries
    f_left: MatrixPowerSeries
    f_right: MatrixPowerSeries

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def abstract_khrushchev_check(
    U,
    partition: SubspacePartition,
    v_l,
    v_r,
    order: int,
    factorization: OverlapFactorization | None = None,
) -> KhrushchevResidual:
    """Check the Schur-function factorization across an overlap.

    For V = V_L + center + V_R with V_L inside the left group and V_R
    inside the right group, the V-Schur function of U must equal
    (1_{V_L} + f^R)(f^L + 1_{V_R}), where f^L is computed from the
    left-center factor on V_L + center and f^R from the center-right
    factor on center + V_R.  The product is gauge invariant even though
    the individual factors are not; overlap_product forms it.  U and the
    factors are each certified unitary at most once: a ``linalg.Unitary``
    passes through, and so do the certificates a factorization already
    holds.
    """
    u = certify(U)
    vl = tuple(sorted(as_integer(i) for i in v_l))
    vr = tuple(sorted(as_integer(i) for i in v_r))
    if not set(vl) <= set(partition.left):
        raise ValueError("V_L must lie inside the left group")
    if not set(vr) <= set(partition.right):
        raise ValueError("V_R must lie inside the right group")
    if factorization is not None and factorization.partition != partition:
        raise ValueError("factorization uses a different partition")
    fact = factorization if factorization is not None else construct_overlap(u, partition)

    ordered_v = vl + partition.center + vr
    f_v = schur_of_subspace(u, ordered_v, order)

    u_lc, u_cr = fact.certified()
    lc_local = _positions(partition.lc, vl + partition.center)
    cr_local = _positions(partition.cr, partition.center + vr)
    f_left = schur_of_subspace(u_lc, lc_local, order)
    f_right = schur_of_subspace(u_cr, cr_local, order)

    residual = coeff_distance(f_v, overlap_product(f_left, f_right, len(vl)))
    return KhrushchevResidual(residual, order, KHRUSHCHEV_TOL, f_v, f_left, f_right)


def overlap_product(
    f_left: MatrixPowerSeries, f_right: MatrixPowerSeries, n_left: int
) -> MatrixPowerSeries:
    """(1_{V_L} + f^R)(f^L + 1_{V_R}), f^L on V_L + center, f^R on
    center + V_R and n_left = dim V_L, by blocks: the rows of V_L are rows
    of f^L, the columns of V_R are columns of f^R, and the rest is the one
    product of two series, f^R's center columns times f^L's center rows."""
    nc = f_left.block_dim - n_left
    if not 0 <= nc <= f_right.block_dim:
        raise ValueError("f^L and f^R do not share a center of that size")
    n = min(f_left.order, f_right.order)
    fl, fr = f_left.coeffs[: n + 1], f_right.coeffs[: n + 1]
    w = n_left + f_right.block_dim
    out = np.zeros((n + 1, w, w), dtype=np.complex128)
    out[:, :n_left, : n_left + nc] = fl[:, :n_left]
    out[:, n_left:, n_left + nc :] = fr[:, :, nc:]
    out[:, n_left:, : n_left + nc] = convolve(fr[:, :, :nc], fl[:, n_left:])
    return MatrixPowerSeries(out)
