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

# Tolerances.  Everything in scope is a contraction or a unitary of
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


def as_stack(m) -> np.ndarray:
    """Coerce to a finite complex128 array of one matrix or a (..., n, m)
    stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-d array or a stack of them, got shape {a.shape}")
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


def index_tuple(dim: int, v) -> tuple[int, ...]:
    """The index sequence ``v`` as a tuple, in the given order, which is
    the order of the basis; the indices must be distinct and below dim."""
    idx = tuple(as_integer(i) for i in v)
    if len(set(idx)) != len(idx):
        raise ValueError("basis indices must be distinct")
    if idx and (min(idx) < 0 or max(idx) >= dim):
        raise ValueError("basis index out of range")
    return idx


def unit_vector(psi) -> np.ndarray:
    """psi flattened to a complex vector, which must be finite with norm 1."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-8:  # a NaN entry makes the norm NaN
        raise ValueError(f"state must be normalized (|psi| = {norm:.6f})")
    return v


def hermitian_psd_sqrt(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition,
    or of each matrix of a (..., n, n) stack in one batched pass.

    Eigenvalues in [-EIG_CLAMP, 0) are clamped to zero and lower ones are
    rejected.  The clamp matters for defect matrices 1 - a†a of contractions
    with norm close to 1, where roundoff can push eigenvalues slightly
    negative.  A rejected member of a stack is named by its index.  Each
    member's root is the same bits as the root of that matrix alone.
    """
    a = as_stack(m)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("square matrix required")
    adj = a.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    defect = np.linalg.norm(a - adj, axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-10 * scale)
    if bad.size:
        i = bad[0]
        raise ValueError(f"matrix{_member(a, i)} is not Hermitian (defect {defect.flat[i]:.3e})")
    w, v = np.linalg.eigh((a + adj) / 2.0)
    low = w.min(axis=-1, initial=np.inf)
    bad = np.flatnonzero(low < -EIG_CLAMP)
    if bad.size:
        i = bad[0]
        raise ValueError(f"eigenvalue {low.flat[i]:.3e}{_member(a, i, ' of matrix')} below -EIG_CLAMP; not PSD")
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (r + r.conj().swapaxes(-1, -2)) / 2.0


def _member(a, i: int, what: str = "") -> str:
    """' <what> i' naming member i (in row-major order) of a stack a, ''
    when a is one matrix."""
    return f"{what} {i}" if a.ndim > 2 else ""


def numerical_rank(m) -> int:
    """Number of singular values above RANK_REL_TOL times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def unitary_residuals(stack) -> np.ndarray:
    """is_unitary's residual ||M†M - 1||_F of each matrix M in a (k, n, n)
    stack, in one batched pass; with M = UΣV† it is ||Σ² - 1||_F = ||MM† - 1||_F."""
    s = np.asarray(stack, dtype=np.complex128)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValueError("unitarity is only defined for square matrices")
    return np.linalg.norm(s.conj().swapaxes(-1, -2) @ s - np.eye(s.shape[-1]), axis=(-2, -1))


class UnitaryCheck(NamedTuple):
    ok: bool
    residual: float


def is_unitary(m) -> UnitaryCheck:
    """Check M†M = 1 to UNITARY_TOL in Frobenius norm, with the residual
    ||M†M - 1||_F.  For square M = UΣV† it equals ||MM† - 1||_F: both are
    ||Σ² - 1||_F, as M†M - 1 = V(Σ² - 1)V† and MM† - 1 = U(Σ² - 1)U†."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("unitarity is only defined for square matrices")
    gram = a.conj().T @ a
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    residual = float(np.linalg.norm(gram))
    return UnitaryCheck(residual <= UNITARY_TOL, residual)


@dataclass(frozen=True, eq=False)
class Unitary:
    """A matrix certified unitary once: a read-only array and a bound on
    its is_unitary residual ||M†M - 1||_F (which is ||MM† - 1||_F, M being
    square).  A NaN bound certifies nothing.  Made only by ``certify``, by
    ``certified_identity``, by the operator assembler in ``cmv``, which
    bounds the residual from its Theta blocks, by the superposition route
    in ``khrushchev``, which rotates a certified operator by a 2 x 2
    unitary and adds that rotation's residual, and by
    ``schur.schur_forward``, which hands on the is_unitary residual of the
    terminal it reads."""

    matrix: np.ndarray
    residual: float


def certified_identity(n: int) -> Unitary:
    """The n x n identity with its exact residual, 0."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return Unitary(eye, 0.0)


def certify(m, what: str = "matrix") -> Unitary:
    """The is_unitary test, kept with its matrix; a Unitary passes through
    without recomputing anything."""
    if isinstance(m, Unitary):
        if not m.residual <= UNITARY_TOL:  # a NaN residual fails too
            raise ValueError(f"{what} is not unitary (residual {m.residual:.3e})")
        return m
    check = is_unitary(m)  # validates m as as_matrix does
    if not check.ok:
        raise ValueError(f"{what} is not unitary (residual {check.residual:.3e})")
    a = np.array(m, dtype=np.complex128)
    a.flags.writeable = False
    return Unitary(a, check.residual)


def op_norm(m) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(as_matrix(m), 2))
