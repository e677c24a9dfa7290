"""Truncated matrix-valued formal power series.

A series holds coefficients c_0..c_N of z^0..z^N, each a d x d complex
matrix.  Binary operations truncate to the shorter order, and every output
coefficient depends only on input coefficients of the same or lower index,
so fixed-order pipelines lose nothing below the truncation order.

The scalar case is d = 1 with 1x1 coefficient matrices; nothing is
special-cased for it.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .linalg import COEFF_TOL, as_matrix

# Fixed sampling grid for the contractivity check: two rings of eight
# points inside the closed disk of radius 0.9.
_RINGS = (0.45, 0.9)
CONTRACTIVITY_GRID: tuple[complex, ...] = tuple(
    r * np.exp(2j * np.pi * k / 8) for r in _RINGS for k in range(8)
)
CONTRACTIVITY_TOL = 1e-6


class MatrixPowerSeries:
    """Matrix-valued power series truncated at a fixed order."""

    __slots__ = ("coeffs", "schur")

    def __init__(self, coeffs, schur: bool = False):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim == 1:
            # convenience: a flat list of scalars is a d = 1 series
            arr = arr.reshape(-1, 1, 1)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ValueError(f"coefficients must have shape (N+1, d, d), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("series coefficients must be finite")
        self.coeffs = arr
        self.schur = bool(schur)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, matrix, order: int) -> "MatrixPowerSeries":
        m = as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("constant term must be square")
        c = np.zeros((order + 1, m.shape[0], m.shape[0]), dtype=np.complex128)
        c[0] = m
        return cls(c)

    @classmethod
    def zero(cls, block_dim: int, order: int) -> "MatrixPowerSeries":
        return cls(np.zeros((order + 1, block_dim, block_dim), dtype=np.complex128))

    @classmethod
    def one(cls, block_dim: int, order: int) -> "MatrixPowerSeries":
        return cls.constant(np.eye(block_dim), order)

    @classmethod
    def from_scalar(cls, values: Sequence[complex]) -> "MatrixPowerSeries":
        return cls(np.asarray(list(values), dtype=np.complex128).reshape(-1, 1, 1))

    # -- basic queries --------------------------------------------------------

    @property
    def block_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def coeff(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside 0..{self.order}")
        return self.coeffs[k]

    def scalar_coeffs(self) -> np.ndarray:
        if self.block_dim != 1:
            raise ValueError("scalar_coeffs requires block_dim 1")
        return self.coeffs[:, 0, 0].copy()

    def __repr__(self):
        return f"MatrixPowerSeries(d={self.block_dim}, order={self.order}, schur={self.schur})"

    # -- arithmetic -----------------------------------------------------------

    def _promote(self, other, order: int) -> "MatrixPowerSeries":
        if isinstance(other, MatrixPowerSeries):
            return other
        if np.isscalar(other):
            return MatrixPowerSeries.constant(
                complex(other) * np.eye(self.block_dim), order
            )
        return MatrixPowerSeries.constant(other, order)

    def __add__(self, other) -> "MatrixPowerSeries":
        o = self._promote(other, self.order)
        if o.block_dim != self.block_dim:
            raise ValueError("block dimension mismatch")
        n = min(self.order, o.order)
        return MatrixPowerSeries(self.coeffs[: n + 1] + o.coeffs[: n + 1])

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other) -> "MatrixPowerSeries":
        return self.__add__(self._promote(other, self.order).__neg__())

    def __rsub__(self, other):
        return self._promote(other, self.order).__sub__(self)

    def __neg__(self) -> "MatrixPowerSeries":
        return MatrixPowerSeries(-self.coeffs)

    def __mul__(self, other) -> "MatrixPowerSeries":
        if np.isscalar(other):
            return MatrixPowerSeries(complex(other) * self.coeffs)
        o = self._promote(other, self.order)
        if o.block_dim != self.block_dim:
            raise ValueError("block dimension mismatch")
        n = min(self.order, o.order)
        d = self.block_dim
        out = np.zeros((n + 1, d, d), dtype=np.complex128)
        for i in range(n + 1):
            # broadcasts (d, d) @ (n+1-i, d, d) over the coefficient axis
            out[i:] += self.coeffs[i] @ o.coeffs[: n + 1 - i]
        return MatrixPowerSeries(out)

    def __rmul__(self, other) -> "MatrixPowerSeries":
        if np.isscalar(other):
            return MatrixPowerSeries(complex(other) * self.coeffs)
        return self._promote(other, self.order).__mul__(self)

    def lmul_const(self, matrix) -> "MatrixPowerSeries":
        """Multiply by a constant matrix on the left."""
        m = as_matrix(matrix)
        return MatrixPowerSeries(np.einsum("ij,njk->nik", m, self.coeffs))

    def rmul_const(self, matrix) -> "MatrixPowerSeries":
        """Multiply by a constant matrix on the right."""
        m = as_matrix(matrix)
        return MatrixPowerSeries(np.einsum("nij,jk->nik", self.coeffs, m))

    def inverse(self) -> "MatrixPowerSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        try:
            inv0 = np.linalg.inv(self.coeffs[0])
        except np.linalg.LinAlgError:
            raise ValueError("constant term is singular; series has no inverse") from None
        d = self.block_dim
        n = self.order
        out = np.zeros((n + 1, d, d), dtype=np.complex128)
        out[0] = inv0
        for k in range(1, n + 1):
            acc = np.einsum("iab,ibc->ac", self.coeffs[1 : k + 1], out[:k][::-1])
            out[k] = -inv0 @ acc
        return MatrixPowerSeries(out)

    def dagger(self) -> "MatrixPowerSeries":
        """Coefficient-wise adjoint: the series f†(z) = f(conj(z))†."""
        return MatrixPowerSeries(np.conj(np.transpose(self.coeffs, (0, 2, 1))))

    def shift(self, k: int = 1) -> "MatrixPowerSeries":
        """Multiply by z^k; the order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        d = self.block_dim
        pad = np.zeros((k, d, d), dtype=np.complex128)
        return MatrixPowerSeries(np.concatenate([pad, self.coeffs]))

    def unshift(self, k: int = 1, tol: float = 1e-12) -> "MatrixPowerSeries":
        """Divide by z^k; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("unshift exponent must be nonnegative")
        if k > self.order:
            raise ValueError("unshift exceeds the series order")
        head = float(np.abs(self.coeffs[:k]).max()) if k else 0.0
        if head > tol:
            raise ValueError(f"cannot divide by z^{k}: leading coefficient {head:.3e}")
        return MatrixPowerSeries(self.coeffs[k:].copy(), schur=self.schur)

    def truncate(self, order: int) -> "MatrixPowerSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        return MatrixPowerSeries(self.coeffs[: order + 1].copy(), schur=self.schur)

    def pad_zeros(self, order: int) -> "MatrixPowerSeries":
        """Extend with zero coefficients.  Only valid when the tail is known
        to vanish, e.g. for polynomials."""
        if order < self.order:
            raise ValueError("pad_zeros cannot shorten a series")
        d = self.block_dim
        pad = np.zeros((order - self.order, d, d), dtype=np.complex128)
        return MatrixPowerSeries(np.concatenate([self.coeffs, pad]), schur=self.schur)

    # -- evaluation and checks ------------------------------------------------

    def evaluate(self, z: complex) -> np.ndarray:
        """Horner evaluation of the truncated sum."""
        acc = np.array(self.coeffs[-1])
        for k in range(self.order - 1, -1, -1):
            acc = acc * z + self.coeffs[k]
        return acc

    def values_at(self, grid: Iterable[complex]) -> np.ndarray:
        """The truncated sum at each grid point, stacked along the first
        axis, from one Vandermonde product."""
        z = np.asarray(list(grid), dtype=np.complex128)
        return np.einsum("gn,nij->gij", np.vander(z, self.order + 1, increasing=True), self.coeffs)

    def _norms_at(self, grid: Iterable[complex]) -> np.ndarray:
        """Operator norms of the truncated sum at each grid point."""
        return np.linalg.norm(self.values_at(grid), ord=2, axis=(1, 2))

    def max_disk_norm(self, grid: Iterable[complex] = CONTRACTIVITY_GRID) -> float:
        return float(self._norms_at(grid).max())

    def mark_schur(self, tol: float = CONTRACTIVITY_TOL) -> "MatrixPowerSeries":
        """Flag the series as a Schur function after a contractivity sample.

        Two necessary conditions are sampled, both exact for truncations:
        every coefficient is a contraction, and on each sample ring the
        values stay within 1 plus the truncation tail bound.
        """
        coeff_worst = float(np.linalg.norm(self.coeffs, ord=2, axis=(1, 2)).max())
        if coeff_worst > 1.0 + tol:
            raise ValueError(
                f"series has a coefficient of norm {coeff_worst:.6f}; "
                "a Schur function's coefficients are contractions"
            )
        # a contractive function has coefficient norms <= 1, so truncating
        # at order N can push |f| above 1 on |z| = r by at most
        # r^{N+1}/(1-r); sampling must grant exactly that much slack
        radii = np.repeat(_RINGS, 8)
        values = self._norms_at(CONTRACTIVITY_GRID)
        failing = np.flatnonzero(values > 1.0 + tol + radii ** (self.order + 1) / (1.0 - radii))
        if failing.size:
            raise ValueError(
                f"series is not contractive on the sample grid "
                f"({values[failing[0]]:.6f} at |z| = {radii[failing[0]]})"
            )
        self.schur = True
        return self

    # -- CSV ------------------------------------------------------------------

    def to_csv(self, path_or_file) -> None:
        """Write coefficients as rows n,row,col,re,im."""
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            w = csv.writer(fh)
            w.writerow(["n", "row", "col", "re", "im"])
            for n in range(self.order + 1):
                for r in range(self.block_dim):
                    for c in range(self.block_dim):
                        v = self.coeffs[n, r, c]
                        w.writerow([n, r, c, repr(float(v.real)), repr(float(v.imag))])
        finally:
            if own:
                fh.close()

    @classmethod
    def from_csv(cls, path_or_file) -> "MatrixPowerSeries":
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "r", newline="") if own else path_or_file
        try:
            rows = list(csv.reader(fh))
        finally:
            if own:
                fh.close()
        if not rows or [h.strip() for h in rows[0]] != ["n", "row", "col", "re", "im"]:
            raise ValueError("coefficient CSV must start with header n,row,col,re,im")
        entries = {}
        max_n = max_d = 0
        for line in rows[1:]:
            if not line:
                continue
            n, r, c = int(line[0]), int(line[1]), int(line[2])
            entries[(n, r, c)] = complex(float(line[3]), float(line[4]))
            max_n = max(max_n, n)
            max_d = max(max_d, r + 1, c + 1)
        coeffs = np.zeros((max_n + 1, max_d, max_d), dtype=np.complex128)
        for (n, r, c), v in entries.items():
            coeffs[n, r, c] = v
        return cls(coeffs)


def coeff_distance(a: MatrixPowerSeries, b: MatrixPowerSeries, order: int | None = None) -> float:
    """Maximum absolute entry-wise coefficient difference up to the given
    order (default: the shorter of the two)."""
    if a.block_dim != b.block_dim:
        raise ValueError("block dimension mismatch")
    n = min(a.order, b.order) if order is None else order
    if n > min(a.order, b.order):
        raise ValueError("comparison order exceeds a series order")
    diff = a.coeffs[: n + 1] - b.coeffs[: n + 1]
    return float(np.abs(diff).max())


def series_close(a: MatrixPowerSeries, b: MatrixPowerSeries, tol: float = COEFF_TOL) -> bool:
    return coeff_distance(a, b) <= tol


def direct_sum_series(*parts: MatrixPowerSeries) -> MatrixPowerSeries:
    """Block-diagonal direct sum; the order is the shortest one involved."""
    if not parts:
        raise ValueError("need at least one part")
    n = min(p.order for p in parts)
    d = sum(p.block_dim for p in parts)
    out = np.zeros((n + 1, d, d), dtype=np.complex128)
    at = 0
    for p in parts:
        k = p.block_dim
        out[:, at : at + k, at : at + k] = p.coeffs[: n + 1]
        at += k
    return MatrixPowerSeries(out)


def embed_series(s: MatrixPowerSeries, positions: Sequence[int], total_dim: int) -> MatrixPowerSeries:
    """Embed a series at the given coordinate positions, acting as the
    identity on the remaining positions."""
    pos = [int(p) for p in positions]
    if s.block_dim != len(pos):
        raise ValueError("series block_dim does not match the position list")
    if any(p < 0 or p >= total_dim for p in pos):
        raise ValueError("embedding position out of range")
    out = np.zeros((s.order + 1, total_dim, total_dim), dtype=np.complex128)
    out[0] = np.eye(total_dim)
    out[0][np.ix_(pos, pos)] = 0.0
    out[:, np.array(pos).reshape(-1, 1), np.array(pos)] = s.coeffs
    return MatrixPowerSeries(out)


def schur_to_caratheodory(f: MatrixPowerSeries) -> MatrixPowerSeries:
    """F = (1 + z f)(1 - z f)^(-1); F(0) = 1.  The result carries one more
    coefficient than f."""
    zf = f.shift()
    one = MatrixPowerSeries.one(f.block_dim, zf.order)
    return (one + zf) * (one - zf).inverse()


def caratheodory_to_schur(F: MatrixPowerSeries) -> MatrixPowerSeries:
    """f = z^(-1)(F - 1)(F + 1)^(-1); inverse of schur_to_caratheodory.
    The result carries one coefficient fewer than F."""
    d = F.block_dim
    if F.order < 1:
        raise ValueError("need at least order 1 to recover a Schur function")
    c0_defect = float(np.abs(F.coeffs[0] - np.eye(d)).max())
    if c0_defect > 1e-8:
        raise ValueError(f"constant term must be the identity (defect {c0_defect:.3e})")
    one = MatrixPowerSeries.one(d, F.order)
    num = F - one
    num = MatrixPowerSeries(np.concatenate([np.zeros((1, d, d)), num.coeffs[1:]])).unshift()
    return num * (F + one).inverse()
