"""The matrix Schur algorithm.

Forward direction: peel Schur parameters off a contractive series.
Backward direction: synthesize the series back from its parameters

    f_j = (1 + g a_j†)^(-1) (a_j + g),      g = z rR_j f_{j+1} rL_j^(-1),

where rL = (1 - a†a)^(1/2) and rR = (1 - aa†)^(1/2) are the defect
matrices of the parameter.  Iterates drop leading parameters; inverse
iterates reverse a negated-adjoint prefix and terminate with the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    as_integer,
    as_matrix,
    hermitian_psd_sqrt,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .series import MatrixPowerSeries

# A parameter is accepted as a strict contraction only with this margin.
STRICT_MARGIN = 1e-10
# Forward algorithm: a coefficient at least this close to norm 1 is taken
# as the unitary terminal of a finitely supported sequence.
TERMINAL_DETECT = 1.0 - 1e-8


def rho_left(alpha) -> np.ndarray:
    """Left defect (1 - a†a)^(1/2)."""
    a = as_matrix(alpha)
    return hermitian_psd_sqrt(np.eye(a.shape[1]) - a.conj().T @ a)


def rho_right(alpha) -> np.ndarray:
    """Right defect (1 - aa†)^(1/2)."""
    a = as_matrix(alpha)
    return hermitian_psd_sqrt(np.eye(a.shape[0]) - a @ a.conj().T)


def _frozen(m) -> np.ndarray:
    """m as a read-only array owning its data, so no caller can alter a
    checked parameter later; one that already is such an array is shared."""
    a = as_matrix(m)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SchurParameters:
    """An ordered family of d x d strict contractions, optionally closed by
    a unitary terminal (the finitely supported case)."""

    block_dim: int
    alphas: tuple
    terminal: Optional[np.ndarray] = None
    # Derived data, computed once per parameter set and kept out of ==,
    # repr and JSON: the defects of each parameter, and the synthesized
    # iterates of p ("f") and of its reflection ("b") per (kind, order, m).
    _defects: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _series: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.block_dim
        if d < 1:
            raise ValueError("block_dim must be positive")
        mats = []
        for j, a in enumerate(self.alphas):
            m = _frozen(a)
            if m.shape != (d, d):
                raise ValueError(f"parameter {j} is not {d}x{d}")
            norm = op_norm(m)
            if norm >= 1.0 - STRICT_MARGIN:
                raise ValueError(f"parameter {j} has norm {norm:.12f}; need a strict contraction")
            mats.append(m)
        object.__setattr__(self, "alphas", tuple(mats))
        if self.terminal is not None:
            t = _frozen(self.terminal)
            if t.shape != (d, d):
                raise ValueError(f"terminal is not {d}x{d}")
            check = is_unitary(t)
            if not check.ok:
                raise ValueError(f"terminal is not unitary (residual {check.residual:.3e})")
            object.__setattr__(self, "terminal", t)

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def finite(self) -> bool:
        return self.terminal is not None

    def alpha(self, j: int) -> np.ndarray:
        return self.alphas[j]

    def defects(self, j: int) -> tuple:
        """(rho_L, rho_R, rho_L^-1, rho_R^-1) of alpha_j, computed on first
        use."""
        if j not in self._defects:
            a = self.alphas[j]
            rl, rr = rho_left(a), rho_right(a)
            self._defects[j] = (rl, rr, np.linalg.inv(rl), np.linalg.inv(rr))
        return self._defects[j]


def iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th Schur iterate: drop the first j entries."""
    if j < 0 or j > len(p):
        raise ValueError(f"iterate index {j} outside 0..{len(p)}")
    return SchurParameters(p.block_dim, p.alphas[j:], p.terminal)


def inverse_iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th inverse iterate:
    (-a_{j-1}†, ..., -a_0†) closed by the identity terminal."""
    if j < 0 or j > len(p):
        raise ValueError(f"inverse iterate index {j} outside 0..{len(p)}")
    rev = tuple(-p.alphas[i].conj().T for i in range(j - 1, -1, -1))
    return SchurParameters(p.block_dim, rev, np.eye(p.block_dim))


def mobius_step(alpha, f: MatrixPowerSeries, defects: tuple | None = None) -> MatrixPowerSeries:
    """One backward Schur step: the series with leading parameter alpha
    whose first iterate is f.

    ``defects`` is alpha's (rho_L, rho_R, rho_L^-1, rho_R^-1) when a
    SchurParameters has already validated alpha and computed them; the
    norm check is then skipped.
    """
    a = as_matrix(alpha)
    d = f.block_dim
    if a.shape != (d, d):
        raise ValueError("parameter dimension mismatch")
    if defects is None:
        if op_norm(a) >= 1.0 - STRICT_MARGIN:
            raise ValueError("backward step needs a strict contraction")
        rr, rl_inv = rho_right(a), np.linalg.inv(rho_left(a))
    else:
        rr, rl_inv = defects[1], defects[2]
    g = f.lmul_const(rr).rmul_const(rl_inv).shift()
    one = MatrixPowerSeries.one(d, g.order)
    return (one + g.rmul_const(a.conj().T)).inverse() * (g + MatrixPowerSeries.constant(a, g.order))


def synthesize(p: SchurParameters, order: int) -> MatrixPowerSeries:
    """Series of the measure with the given parameters, truncated at the
    stated order: iterate_series(p, 0, order), the read-only series shared
    with every other caller of p.

    Coefficient k depends only on a_0..a_k, so only a_0..a_order are used.
    """
    return iterate_series(p, 0, order)


def iterate_series(p: SchurParameters, j: int, order: int) -> MatrixPowerSeries:
    """synthesize(iterate(p, j), order), memoized on p."""
    if j < 0 or j > len(p):
        raise ValueError(f"iterate index {j} outside 0..{len(p)}")
    if j == len(p) and p.terminal is None:
        raise ValueError("need at least one parameter or a terminal")
    return _series(p, "f", j, order)


def inverse_iterate_series(p: SchurParameters, j: int, order: int) -> MatrixPowerSeries:
    """synthesize(inverse_iterate(p, j), order), memoized on p."""
    if j < 0 or j > len(p):
        raise ValueError(f"inverse iterate index {j} outside 0..{len(p)}")
    return _series(p, "b", len(p) - j, order)


def _series(p: SchurParameters, kind: str, m: int, order: int) -> MatrixPowerSeries:
    """The m-th iterate at the given order of p (kind "f") or of its
    reflection (kind "b"), memoized on p and read-only.

    The reflection of (a_0, ..., a_{n-1}) is (-a_{n-1}†, ..., -a_0†) closed
    by the identity, so its (n - j)-th iterate is inverse_iterate(p, j).
    It is read in place: its step i uses a_{n-1-i} with the defects of
    a_{n-1-i} swapped, since rho_L(-a†) = rho_R(a) and rho_R(-a†) = rho_L(a).

    The m-th iterate is one backward step from the (m+1)-th when that is
    cached at this order, otherwise a fresh run down from parameter
    min(n, m + order + 1) - 1, seeded with the terminal when that is the
    last parameter and with zero otherwise.  Both give the same bits: the
    coefficients a fresh run would not reach drop out below the truncation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    key = (kind, order, m)
    hit = p._series.get(key)
    if hit is not None:
        return hit
    n, d = len(p), p.block_dim
    f = p._series.get((kind, order, m + 1))
    stop = m + 1 if f is not None else min(n, m + order + 1)
    if f is None:
        terminal = p.terminal if kind == "f" else np.eye(d)
        if terminal is not None and stop == n:
            f = MatrixPowerSeries.constant(terminal, order)
        else:
            f = MatrixPowerSeries.zero(d, order)
    for i in range(stop - 1, m - 1, -1):
        if kind == "f":
            a, defects = p.alphas[i], p.defects(i)
        else:
            rl, rr, rl_inv, rr_inv = p.defects(n - 1 - i)
            # the same expression as inverse_iterate, so the same bits
            a, defects = -p.alphas[n - 1 - i].conj().T, (rr, rl, rr_inv, rl_inv)
        f = mobius_step(a, f, defects).truncate(order)
    f.mark_schur().coeffs.setflags(write=False)
    p._series[key] = f
    return f


def schur_forward(f: MatrixPowerSeries, steps: int) -> SchurParameters:
    """Run the Schur algorithm, peeling off one parameter per step.

    Stops early when a coefficient reaches the unit sphere, which closes
    the sequence with a unitary terminal.  The series order drops by one
    per step, so steps must not exceed the order of f.
    """
    if steps < 0 or steps > f.order:
        raise ValueError(f"steps must lie in 0..{f.order}")
    d = f.block_dim
    alphas = []
    cur = f
    for _ in range(steps):
        a = np.array(cur.coeff(0))
        norm = op_norm(a)
        if norm > TERMINAL_DETECT:
            check = is_unitary(a)
            if norm > 1.0 + 1e-6 or not check.ok:
                raise ValueError(
                    f"coefficient with norm {norm:.9f} is neither a strict "
                    "contraction nor a unitary terminal"
                )
            return SchurParameters(d, tuple(alphas), a)
        alphas.append(a)
        rl = rho_left(a)
        rr = rho_right(a)
        one = MatrixPowerSeries.one(d, cur.order)
        num = cur - MatrixPowerSeries.constant(a, cur.order)
        den = (one - cur.lmul_const(a.conj().T)).inverse()
        nxt = (num * den).unshift(1, tol=np.inf)
        cur = nxt.lmul_const(np.linalg.inv(rr)).rmul_const(rl)
    return SchurParameters(d, tuple(alphas), None)


def binary_transform(
    u: complex, v: complex, g: MatrixPowerSeries, h: MatrixPowerSeries
) -> MatrixPowerSeries:
    """Two-argument analog of the backward Schur step (scalar only):

        T_{u,v}(g, h) = (z g h + u g + v h) / (1 + conj(v) z g + conj(u) z h)

    defined for |u| + |v| <= 1; it maps pairs of Schur functions to Schur
    functions.
    """
    if g.block_dim != 1 or h.block_dim != 1:
        raise ValueError("binary_transform is scalar only")
    u = complex(u)
    v = complex(v)
    if abs(u) + abs(v) > 1.0 + 1e-12:
        raise ValueError(f"|u| + |v| = {abs(u) + abs(v):.12f} exceeds 1")
    n = min(g.order, h.order)
    gg = g.truncate(n)
    hh = h.truncate(n)
    num = (gg * hh).shift() + u * gg + v * hh
    den = 1 + np.conj(v) * gg.shift() + np.conj(u) * hh.shift()
    return (num * den.inverse()).mark_schur()


# -- random generation (used by tests and seeded campaigns) -------------------


def random_contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix rescaled to operator norm 0.9 r, r ~ U(0,1)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = 0.9 * rng.uniform(0.0, 1.0)
    norm = op_norm(g)
    if norm == 0.0:
        return np.zeros((d, d), dtype=np.complex128)
    return np.asarray(g, dtype=np.complex128) * (target / norm)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre
    matrix with the standard phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_parameters(
    d: int, length: int, rng: np.random.Generator, terminal: bool = False
) -> SchurParameters:
    alphas = tuple(random_contraction(d, rng) for _ in range(length))
    term = random_unitary(d, rng) if terminal else None
    return SchurParameters(d, alphas, term)


# -- JSON wire format ---------------------------------------------------------


def parameters_to_json(p: SchurParameters) -> dict:
    return {
        "d": p.block_dim,
        "alphas": [matrix_to_json(a) for a in p.alphas],
        "terminal": matrix_to_json(p.terminal) if p.terminal is not None else None,
    }


def parameters_from_json(obj) -> SchurParameters:
    try:
        d, alphas, terminal = obj["d"], obj["alphas"], obj.get("terminal")
    except (KeyError, TypeError) as exc:
        raise ValueError("parameter object needs 'd', 'alphas' and optional 'terminal'") from exc
    d = as_integer(d, "'d'")
    mats = tuple(matrix_from_json(a) for a in alphas)
    term = matrix_from_json(terminal) if terminal is not None else None
    return SchurParameters(d, mats, term)
