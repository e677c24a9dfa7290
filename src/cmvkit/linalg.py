"""Dense complex-matrix helpers shared by every other module.

Matrices are plain numpy arrays of dtype complex128.  The JSON wire
format for a matrix is ``{"rows": n, "cols": m, "data": [[re, im], ...]}``
with ``data`` flattened in row-major order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Default tolerances.  Everything in scope is a contraction or a unitary of
# dimension at most a few hundred, so double precision leaves ample headroom.
UNITARY_TOL = 1e-10
RANK_REL_TOL = 1e-9
EIG_CLAMP = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_integer(value, what: str = "index") -> int:
    """value as a Python int.  Python and numpy integers pass; bools,
    floats, strings and everything else raise, so nothing is truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    data = [[float(x.real), float(x.imag)] for x in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix object needs integer 'rows', 'cols' and a 'data' list") from exc
    rows, cols = as_integer(rows, "'rows'"), as_integer(cols, "'cols'")
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimensions")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} does not match {rows}x{cols}")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        try:
            re, im = pair
            flat[i] = complex(float(re), float(im))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"data entry {i} is not a [re, im] pair") from exc
    out = flat.reshape(rows, cols)
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def column_selector(dim: int, indices) -> np.ndarray:
    """dim x len(indices) matrix whose k-th column is the basis vector e_{indices[k]}."""
    b = np.zeros((dim, len(indices)), dtype=np.complex128)
    for col, i in enumerate(indices):
        b[i, col] = 1.0
    return b


def hermitian_psd_sqrt(m, clamp: float = EIG_CLAMP) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-clamp, 0) are clamped to zero; anything below -clamp is
    rejected.  The clamp matters for defect matrices 1 - a†a of contractions
    with norm close to 1, where roundoff can push eigenvalues slightly
    negative.
    """
    a = as_matrix(m)
    n, k = a.shape
    if n != k:
        raise ValueError("square matrix required")
    scale = max(1.0, float(np.linalg.norm(a)))
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    if w.size and float(w.min()) < -clamp:
        raise ValueError(f"eigenvalue {w.min():.3e} below -clamp; not PSD")
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2.0


def numerical_rank(m, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def unitary_residuals(stack) -> np.ndarray:
    """is_unitary's residual, max(||M^dagger M - 1||_F, ||M M^dagger - 1||_F),
    of each matrix M in a (k, n, n) stack, in one batched pass."""
    s = np.asarray(stack, dtype=np.complex128)
    adj = s.conj().swapaxes(-1, -2)
    eye = np.eye(s.shape[-1])
    return np.maximum(
        np.linalg.norm(adj @ s - eye, axis=(-2, -1)),
        np.linalg.norm(s @ adj - eye, axis=(-2, -1)),
    )


class UnitaryCheck(NamedTuple):
    ok: bool
    residual: float


def is_unitary(m, tol: float = UNITARY_TOL) -> UnitaryCheck:
    """Check M†M = MM† = 1 in Frobenius norm and report the residual."""
    a = as_matrix(m)
    n, k = a.shape
    if n != k:
        raise ValueError("unitarity is only defined for square matrices")
    eye = np.eye(n)
    residual = max(
        float(np.linalg.norm(a.conj().T @ a - eye)),
        float(np.linalg.norm(a @ a.conj().T - eye)),
    )
    return UnitaryCheck(residual <= tol, residual)


@dataclass(frozen=True, eq=False)
class Unitary:
    """A matrix certified unitary once: a read-only array and a bound on
    its is_unitary residual.  Made only by ``certify`` and by the operator
    assembler in ``cmv``, which bounds the residual from its Theta blocks."""

    matrix: np.ndarray
    residual: float


def certify(m, tol: float = UNITARY_TOL, what: str = "matrix") -> Unitary:
    """The is_unitary test, kept with its matrix; a Unitary passes through
    without recomputing anything."""
    if isinstance(m, Unitary):
        if m.residual > tol:
            raise ValueError(f"{what} is not unitary (residual {m.residual:.3e})")
        return m
    a = as_matrix(m)
    check = is_unitary(a, tol)
    if not check.ok:
        raise ValueError(f"{what} is not unitary (residual {check.residual:.3e})")
    a = a.copy()
    a.flags.writeable = False
    return Unitary(a, check.residual)


def op_norm(m) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(as_matrix(m), 2))


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    mats = [as_matrix(b) for b in blocks]
    for b in mats:
        if b.shape[0] != b.shape[1]:
            raise ValueError("direct_sum expects square blocks")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in mats:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def embed(m, positions, total_dim: int) -> np.ndarray:
    """Place a small square matrix at the given index positions of an
    identity of size total_dim."""
    a = as_matrix(m)
    pos = [int(p) for p in positions]
    if a.shape != (len(pos), len(pos)):
        raise ValueError("matrix size does not match the position list")
    if any(p < 0 or p >= total_dim for p in pos):
        raise ValueError("embedding position out of range")
    out = np.eye(total_dim, dtype=np.complex128)
    out[np.ix_(pos, pos)] = a
    return out
