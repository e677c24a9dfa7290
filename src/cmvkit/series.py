"""Truncated matrix-valued formal power series.

A series holds coefficients c_0..c_N of z^0..z^N, each a d x d complex
matrix.  Binary operations truncate to the shorter order, and every output
coefficient depends only on input coefficients of the same or lower index,
so fixed-order pipelines lose nothing below the truncation order.

Every series product of two non-constant factors runs through one
kernel, convolve, that forms all coefficient products in one GEMM.
Every series quotient runs through one causal loop, left_divide (D^(-1) N),
which scales both stacks by D_0^(-1) first and then spends one GEMM per
coefficient: inverse() is D^(-1) 1, and a / b = a b^(-1) runs it on
transposes.  Sampling on a grid (values_at) is one GEMM as well.

The scalar case is d = 1 with 1x1 coefficient matrices; nothing is
special-cased for it.
"""

from __future__ import annotations

import csv
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import as_matrix

# Fixed sampling grid for the contractivity check: two rings of eight
# points inside the closed disk of radius 0.9.
_RINGS = (0.45, 0.9)
CONTRACTIVITY_GRID: tuple[complex, ...] = tuple(
    r * np.exp(2j * np.pi * k / 8) for r in _RINGS for k in range(8)
)
CONTRACTIVITY_TOL = 1e-6
# relative margin below a limit under which a Frobenius norm clears a
# matrix without its SVD: it covers the rounding of both norms, so the
# cleared matrices are ones whose SVD norm is below the limit as well
_CLEAR_MARGIN = 256 * np.finfo(np.float64).eps


class MatrixPowerSeries:
    """Matrix-valued power series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim == 1:
            # convenience: a flat list of scalars is a d = 1 series
            arr = arr.reshape(-1, 1, 1)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ValueError(f"coefficients must have shape (N+1, d, d), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("series coefficients must be finite")
        self.coeffs = arr

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
        return f"MatrixPowerSeries(d={self.block_dim}, order={self.order})"

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
        # a constant factor makes every other product of the convolution
        # an exact zero; adding 0.0 turns -0.0 into 0.0 as convolve does
        if not o.coeffs[1 : n + 1].any():
            return MatrixPowerSeries(self.coeffs[: n + 1] @ o.coeffs[0] + 0.0)
        if not self.coeffs[1 : n + 1].any():
            return MatrixPowerSeries(self.coeffs[0] @ o.coeffs[: n + 1] + 0.0)
        return MatrixPowerSeries(convolve(self.coeffs[: n + 1], o.coeffs[: n + 1]))

    def __rmul__(self, other) -> "MatrixPowerSeries":
        if np.isscalar(other):
            return MatrixPowerSeries(complex(other) * self.coeffs)
        return self._promote(other, self.order).__mul__(self)

    def inverse(self) -> "MatrixPowerSeries":
        """Multiplicative inverse, the left quotient of 1 by this series;
        requires an invertible constant term."""
        one = MatrixPowerSeries.one(self.block_dim, self.order)
        return MatrixPowerSeries(left_divide(self.coeffs, one.coeffs))

    def __truediv__(self, other) -> "MatrixPowerSeries":
        """Right quotient a / b = a b^(-1) of two series at the shorter order:
        (a / b)^T = (b^T)^(-1) a^T, coefficient by coefficient."""
        if not isinstance(other, MatrixPowerSeries):
            return NotImplemented
        if other.block_dim != self.block_dim:
            raise ValueError("block dimension mismatch")
        n = min(self.order, other.order)
        quotient = left_divide(other.coeffs[: n + 1].transpose(0, 2, 1),
                               self.coeffs[: n + 1].transpose(0, 2, 1))
        return MatrixPowerSeries(quotient.transpose(0, 2, 1))

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
        return MatrixPowerSeries(self.coeffs[k:].copy())

    def truncate(self, order: int) -> "MatrixPowerSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        return MatrixPowerSeries(self.coeffs[: order + 1].copy())

    # -- evaluation and checks ------------------------------------------------

    def evaluate(self, z: complex) -> np.ndarray:
        """Horner evaluation of the truncated sum."""
        acc = np.array(self.coeffs[-1])
        for k in range(self.order - 1, -1, -1):
            acc = acc * z + self.coeffs[k]
        return acc

    def values_at(self, grid: Iterable[complex]) -> np.ndarray:
        """The truncated sum at each grid point, stacked along the first
        axis: one GEMM of the grid's Vandermonde matrix (kept by _vandermonde)
        with the coefficients, each flattened to a row of d^2 entries."""
        z = tuple(grid)
        m, d = self.order + 1, self.block_dim
        values = _vandermonde(z, m) @ self.coeffs.reshape(m, d * d)
        return values.reshape(len(z), d, d)

    def mark_schur(self) -> "MatrixPowerSeries":
        """Check that the series can be a Schur function and return it.

        Two necessary conditions are sampled, both exact for truncations:
        every coefficient is a contraction, and on each sample ring the
        values stay within 1 plus CONTRACTIVITY_TOL plus the truncation tail.
        """
        coeff_worst = float(_screened_norms(self.coeffs, 1.0 + CONTRACTIVITY_TOL).max())
        if coeff_worst > 1.0 + CONTRACTIVITY_TOL:
            raise ValueError(
                f"series has a coefficient of norm {coeff_worst:.6f}; "
                "a Schur function's coefficients are contractions"
            )
        # a contractive function has coefficient norms <= 1, so truncating
        # at order N can push |f| above 1 on |z| = r by at most
        # r^{N+1}/(1-r); sampling must grant exactly that much slack
        radii = np.repeat(_RINGS, 8)
        limits = 1.0 + CONTRACTIVITY_TOL + radii ** (self.order + 1) / (1.0 - radii)
        values = _screened_norms(self.values_at(CONTRACTIVITY_GRID), limits)
        failing = np.flatnonzero(values > limits)
        if failing.size:
            raise ValueError(
                f"series is not contractive on the sample grid "
                f"({values[failing[0]]:.6f} at |z| = {radii[failing[0]]})"
            )
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
        for number, line in enumerate(rows[1:], start=2):
            if not line:
                continue
            if len(line) != 5:
                raise ValueError(
                    f"coefficient CSV line {number}: expected 5 fields n,row,col,re,im, got {len(line)}"
                )
            try:
                n, r, c = (int(x) for x in line[:3])
                value = complex(float(line[3]), float(line[4]))
            except ValueError as exc:
                raise ValueError(f"coefficient CSV line {number}: {exc}") from None
            if min(n, r, c) < 0:
                raise ValueError(f"coefficient CSV line {number}: negative index in {line}")
            if (n, r, c) in entries:
                raise ValueError(f"coefficient CSV line {number}: repeats entry ({n},{r},{c})")
            entries[(n, r, c)] = value
            max_n = max(max_n, n)
            max_d = max(max_d, r + 1, c + 1)
        coeffs = np.zeros((max_n + 1, max_d, max_d), dtype=np.complex128)
        for (n, r, c), v in entries.items():
            coeffs[n, r, c] = v
        return cls(coeffs)


@lru_cache(maxsize=128)
def _vandermonde(grid: tuple, m: int) -> np.ndarray:
    """Powers 0..m-1 of the grid points as a read-only (len(grid), m) matrix,
    kept per (grid, m) since the sampling grids are fixed."""
    v = np.vander(np.asarray(grid, dtype=np.complex128), m, increasing=True)
    v.flags.writeable = False
    return v


def _screened_norms(stack: np.ndarray, limit) -> np.ndarray:
    """Operator norms of a (k, d, d) stack as far as a comparison with the
    limit (a number or one per member) needs them: a member whose Frobenius
    norm, an upper bound, is below the limit by _CLEAR_MARGIN keeps that
    bound; every other member gets its SVD norm.  Which members exceed the
    limit, and the values of those that do, are the SVD norms' own."""
    norms = np.linalg.norm(stack, axis=(1, 2))
    near = np.flatnonzero(norms > np.multiply(limit, 1.0 - _CLEAR_MARGIN))
    if near.size:
        norms[near] = np.linalg.norm(stack[near], ord=2, axis=(1, 2))
    return norms


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients c_k = sum_{i+j=k} a_i b_j, k < m, of the product of
    coefficient stacks of shapes (m, p, q) and (m, q, r).

    One GEMM forms every a_i b_j: the rows i*p+s of [a_0; ...; a_{m-1}]
    times the columns j*r+t of [b_0 ... b_{m-1}].  The products of a_i fill
    row block i of a buffer m-1 blocks in from the left; read with the
    row stride shortened by one column block (a skewed view), column k of
    row block i holds a_i b_{k-i}, or one of the padding zeros when i > k,
    so summing over i gives c_k.  Adding 0.0 turns -0.0 into 0.0 as sums
    from zero do.
    """
    m, p, q = a.shape
    r = b.shape[2]
    buf = np.zeros((m, p, 2 * m - 1, r), dtype=np.complex128)
    np.matmul(a.reshape(m * p, q), b.transpose(1, 0, 2).reshape(q, m * r),
              out=buf.reshape(m * p, (2 * m - 1) * r)[:, (m - 1) * r :])
    si, ss, sc, st = buf.strides
    skew = as_strided(buf[:, :, m - 1 :], shape=(m, m, p, r), strides=(si - sc, sc, ss, st))
    return skew.sum(axis=0) + 0.0


def left_divide(den: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Coefficients of D^(-1) N for coefficient stacks of one length, in
    one causal pass over the pre-scaled stacks D~_i = D_0^(-1) D_i and
    N~_k = D_0^(-1) N_k (two GEMMs, one per row of coefficients):

        X_k = N~_k - sum_{i=1..k} D~_i X_{k-i},

    one GEMM and one subtraction in place per coefficient.  Every series
    quotient runs here."""
    n, d = len(num) - 1, num.shape[1]
    try:
        inv0 = np.linalg.inv(den[0])
    except np.linalg.LinAlgError:
        raise ValueError("constant term is singular; series has no inverse") from None
    row = inv0 @ den[1:].transpose(1, 0, 2).reshape(d, n * d)  # [D~_1 ... D~_n]
    rhs = inv0 @ num.transpose(1, 0, 2).reshape(d, (n + 1) * d)  # [N~_0 ... N~_n]
    # rev[n - k] = X_k, so X_{k-1}, ..., X_0 is one contiguous slice; it
    # starts as N~ and each coefficient subtracts its sum in place
    rev = rhs.reshape(d, n + 1, d)[:, ::-1].transpose(1, 0, 2).copy()
    for k in range(1, n + 1):
        x = rev[n - k]
        np.subtract(x, row[:, : k * d] @ rev[n - k + 1 :].reshape(k * d, d), out=x)
    return rev[::-1].copy()


def coeff_distance(a: MatrixPowerSeries, b: MatrixPowerSeries) -> float:
    """Maximum absolute entry-wise coefficient difference up to the shorter
    order of the two."""
    if a.block_dim != b.block_dim:
        raise ValueError("block dimension mismatch")
    n = min(a.order, b.order)
    diff = a.coeffs[: n + 1] - b.coeffs[: n + 1]
    return float(np.abs(diff).max())


def schur_to_caratheodory(f: MatrixPowerSeries) -> MatrixPowerSeries:
    """F = (1 + z f)(1 - z f)^(-1); F(0) = 1.  The result carries one more
    coefficient than f."""
    zf = f.shift()
    one = MatrixPowerSeries.one(f.block_dim, zf.order)
    return (one + zf) / (one - zf)


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
    return (F - one).unshift(1, tol=np.inf) / (F + one)
