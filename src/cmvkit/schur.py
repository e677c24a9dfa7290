"""The matrix Schur algorithm.

Forward direction: peel Schur parameters off a contractive series.
Backward direction: synthesize the series back from its parameters

    f_j = (1 + g a_j†)^(-1) (a_j + g),      g = z rR_j f_{j+1} rL_j^(-1),

where rL = (1 - a†a)^(1/2) and rR = (1 - aa†)^(1/2) are the defect
matrices of the parameter.  A run of backward steps keeps f as one left
fraction D^(-1) N, packed as one array [D | N], which each step updates
linearly with two GEMMs against constants of the run,

    [D' | N'] = D [rR^(-1) | rR^(-1) a] + z N [rL^(-1) a† | rL^(-1)],

and divides out, in series.left_divide, once the growth bound allows no
further step.  Iterates drop leading parameters and hand on the
terminal's certificate; inverse iterates reverse a negated-adjoint prefix
and terminate with the certified identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    Unitary,
    as_integer,
    as_stack,
    certified_identity,
    certify,
    hermitian_psd_sqrt,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .series import MatrixPowerSeries, left_divide

# A parameter is accepted as a strict contraction only with this margin.
STRICT_MARGIN = 1e-10
# Forward algorithm: a coefficient at least this close to norm 1 is taken
# as the unitary terminal of a finitely supported sequence.
TERMINAL_DETECT = 1.0 - 1e-8
# Backward run: a step over a grows the fraction's coefficients by at most
# kappa(a) = (1 + |a|) / (1 - |a|^2)^(1/2); the fraction is divided out
# before a step would take the product of kappas since the last division
# past this bound.
GROWTH_BOUND = 1e2


def rho_left(alpha) -> np.ndarray:
    """Left defect (1 - a†a)^(1/2), of one parameter or of each parameter
    of a (..., d, d) stack in one batched pass."""
    a = as_stack(alpha)
    return hermitian_psd_sqrt(np.eye(a.shape[-1]) - a.conj().swapaxes(-1, -2) @ a)


def rho_right(alpha) -> np.ndarray:
    """Right defect (1 - aa†)^(1/2), of one parameter or of each parameter
    of a (..., d, d) stack in one batched pass."""
    a = as_stack(alpha)
    return hermitian_psd_sqrt(np.eye(a.shape[-2]) - a @ a.conj().swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class SchurParameters:
    """An ordered family of d x d strict contractions, optionally closed by
    a unitary terminal (the finitely supported case), stored once as one
    read-only (len, d, d) stack whose rows are ``alphas``."""

    block_dim: int
    alphas: tuple
    terminal: Optional[np.ndarray] = None
    # Derived data, computed once per parameter set and kept out of repr
    # and JSON: the operator norm of each parameter, the parameter stack
    # and, on first use, their defects as four more stacks, the Theta
    # blocks and their unitarity residuals (filled by cmv, which slices
    # them for every operator it builds), and the synthesized iterates of
    # p ("f") and of its reflection ("b") per (kind, order, m); and the
    # terminal's unitarity certificate, which iterates hand on instead of
    # certifying the terminal again.
    _norms: tuple = field(default=(), init=False, repr=False)
    _stack: np.ndarray = field(default=None, init=False, repr=False)
    _defects: tuple = field(default=(), init=False, repr=False)
    _thetas: tuple = field(default=(), init=False, repr=False)
    _series: dict = field(default_factory=dict, init=False, repr=False)
    _certificate: Optional[Unitary] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = as_integer(self.block_dim, "block_dim")
        if d < 1:
            raise ValueError("block_dim must be positive")
        # the input is read once; a stack of the right shape needs no list
        items = self.alphas
        if not (isinstance(items, np.ndarray) and items.shape[1:] == (d, d)):
            items = list(items)
            for j, a in enumerate(items):
                if np.shape(a) != (d, d):
                    raise ValueError(f"parameter {j} is not {d}x{d}")
        stack = as_stack(items) if len(items) else np.empty((0, d, d), dtype=np.complex128)
        if stack is items:
            stack = stack.copy()
        stack.setflags(write=False)
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        bad = np.flatnonzero(norms >= 1.0 - STRICT_MARGIN)
        if bad.size:
            j = bad[0]
            raise ValueError(f"parameter {j} has norm {norms[j]:.12f}; need a strict contraction")
        object.__setattr__(self, "block_dim", d)
        object.__setattr__(self, "alphas", tuple(stack))
        object.__setattr__(self, "_norms", tuple(norms.tolist()))
        object.__setattr__(self, "_stack", stack)
        if self.terminal is not None:
            cert = certify(self.terminal, what="terminal")
            if cert.matrix.shape != (d, d):
                raise ValueError(f"terminal is not {d}x{d}")
            object.__setattr__(self, "terminal", cert.matrix)
            object.__setattr__(self, "_certificate", cert)

    def __eq__(self, other):
        if not isinstance(other, SchurParameters):
            return NotImplemented
        if self.block_dim != other.block_dim or not np.array_equal(self._stack, other._stack):
            return False
        if self.terminal is None or other.terminal is None:
            return self.terminal is other.terminal
        return np.array_equal(self.terminal, other.terminal)

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def finite(self) -> bool:
        return self.terminal is not None

    def alpha(self, j: int) -> np.ndarray:
        return self.alphas[j]

    def stacks(self) -> tuple:
        """(alpha, rho_L, rho_R, rho_L^-1, rho_R^-1) of every parameter as
        five read-only (len, d, d) stacks.  The defects are computed for the
        whole set on first use: one batched root per side, checked Hermitian
        and PSD, and one batched inverse per side."""
        if not self._defects:
            rl, rr = rho_left(self._stack), rho_right(self._stack)
            defects = (rl, rr, np.linalg.inv(rl), np.linalg.inv(rr))
            for m in defects:
                m.setflags(write=False)
            object.__setattr__(self, "_defects", defects)
        return (self._stack, *self._defects)


def iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th Schur iterate: drop the first j entries.  The
    terminal keeps the parent's certificate."""
    if j < 0 or j > len(p):
        raise ValueError(f"iterate index {j} outside 0..{len(p)}")
    return SchurParameters(p.block_dim, p._stack[j:], p._certificate)


def inverse_iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th inverse iterate:
    (-a_{j-1}†, ..., -a_0†) closed by the identity terminal, which comes
    with its exact certificate."""
    if j < 0 or j > len(p):
        raise ValueError(f"inverse iterate index {j} outside 0..{len(p)}")
    rev = -p._stack[:j][::-1].conj().swapaxes(1, 2)
    return SchurParameters(p.block_dim, rev, certified_identity(p.block_dim))


def mobius_step(
    alpha, f: MatrixPowerSeries, defects=None, norms=None, order: int | None = None
) -> MatrixPowerSeries:
    """Backward Schur steps: the series whose leading parameters are alpha
    and whose next iterate is f.

    ``alpha`` is one d x d parameter or a run (a_0, ..., a_{r-1}), applied
    last first, so the result has leading parameter a_0 and its r-th
    iterate is f.  The run is one left fraction D^(-1) N, packed as one
    ((n+1)d x 2d) array [D | N] and seeded with D = 1 and N = f.  Each
    parameter is two GEMMs of its columns against the constants
    [rR^-1 | rR^-1 a] and [rL^-1 a† | rL^-1], computed for the whole run
    in one batched product per side.  The fraction is divided out when
    the product of the kappas since the last division would pass
    GROWTH_BOUND, and at the end.

    ``defects`` and ``norms`` give the run's (rho_L, rho_R, rho_L^-1,
    rho_R^-1) as four (r, d, d) stacks and its operator norms when a
    SchurParameters has already validated the run; without them the run,
    or the lone parameter as a run of one, is validated as one.  The
    result is truncated at ``order``, by default f.order + r, the last
    coefficient the run determines.
    """
    d = f.block_dim
    if defects is None:
        p = SchurParameters(d, (alpha,) if np.ndim(alpha) == 2 else alpha)
        run, *defects = p.stacks()
        norms = p._norms
    else:
        run = as_stack(alpha)
    n = f.order + len(run) if order is None else order
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > f.order + len(run):
        raise ValueError(f"the run determines coefficients 0..{f.order + len(run)} only")
    # the step constants of the whole run, one batched product per side:
    # [D' | N'] = D [rR^-1 | rR^-1 a] + z N [rL^-1 a† | rL^-1]
    _, _, rl_inv, rr_inv = defects
    on_den = np.concatenate([rr_inv, rr_inv @ run], axis=2)
    on_num = np.concatenate([rl_inv @ run.conj().swapaxes(1, 2), rl_inv], axis=2)
    frac = _fraction(f.coeffs[: n + 1], n, d)
    growth = 1.0
    for i in reversed(range(len(run))):
        kappa = (1.0 + norms[i]) / np.sqrt(1.0 - norms[i] * norms[i])
        if growth > 1.0 and growth * kappa > GROWTH_BOUND:
            frac, growth = _fraction(_quotient(frac, d), n, d), 1.0
        step = frac[:, :d] @ on_den[i]
        step[d:] += frac[:-d, d:] @ on_num[i]
        frac = step
        growth *= kappa
    return MatrixPowerSeries(_quotient(frac, d))


def _fraction(numerator: np.ndarray, n: int, d: int) -> np.ndarray:
    """The fraction 1^(-1) N on n+1 coefficients packed as [D | N], rows
    kd..kd+d-1 holding [D_k | N_k]; N is zero past the given coefficients."""
    frac = np.zeros(((n + 1) * d, 2 * d), dtype=np.complex128)
    frac[:d, :d] = np.eye(d)
    frac.reshape(n + 1, d, 2 * d)[: len(numerator), :, d:] = numerator
    return frac


def _quotient(frac: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of D^(-1) N of a packed fraction [D | N]."""
    packed = frac.reshape(-1, d, 2 * d)
    return left_divide(packed[:, :, :d], packed[:, :, d:])


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

    Every iterate is one mobius_step run over parameters m..stop-1, with
    stop = min(n, m + order + 1), seeded with the terminal when stop is n
    and with zero otherwise: coefficients the run would not reach drop out
    below the truncation.  Where the run divides its fraction depends only
    on the run's own parameters, so the m-th iterate of p and the series
    of iterate(p, m) are the same bits, whatever was requested before.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    key = (kind, order, m)
    hit = p._series.get(key)
    if hit is not None:
        return hit
    n, d = len(p), p.block_dim
    stop = min(n, m + order + 1)
    terminal = p.terminal if kind == "f" else np.eye(d)
    if terminal is not None and stop == n:
        seed = MatrixPowerSeries.constant(terminal, order)
    else:
        seed = MatrixPowerSeries.zero(d, order)
    alphas, rl, rr, rl_inv, rr_inv = p.stacks()
    if kind == "f":
        run = alphas[m:stop]
        defects = (rl[m:stop], rr[m:stop], rl_inv[m:stop], rr_inv[m:stop])
        norms = p._norms[m:stop]
    else:
        # parameters n-1-m down to n-stop; negation and adjoint are exact,
        # so this is the same bits as inverse_iterate
        rev = slice(n - stop, n - m)
        run = -alphas[rev][::-1].conj().swapaxes(1, 2)
        defects = (rr[rev][::-1], rl[rev][::-1], rr_inv[rev][::-1], rl_inv[rev][::-1])
        norms = p._norms[rev][::-1]
    f = mobius_step(run, seed, defects, norms, order)
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
    const = MatrixPowerSeries.constant
    alphas = []
    cur = f
    for _ in range(steps):
        a = np.array(cur.coeff(0))
        norm = op_norm(a)
        if norm > TERMINAL_DETECT:
            # read as the terminal, which SchurParameters certifies unitary
            return SchurParameters(d, tuple(alphas), a)
        alphas.append(a)
        nxt = ((cur - a) / (1 - const(a.conj().T, cur.order) * cur)).unshift(1, tol=np.inf)
        cur = const(np.linalg.inv(rho_right(a)), nxt.order) * nxt * const(rho_left(a), nxt.order)
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
    # every operation truncates to the shorter order, min(g.order, h.order)
    num = (g * h).shift() + u * g + v * h
    den = 1 + np.conj(v) * g.shift() + np.conj(u) * h.shift()
    return (num / den).mark_schur()


# -- random generation (used by tests and seeded campaigns) -------------------


def _random_contractions(d: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """(length, d, d) stack of complex Gaussian matrices, each rescaled to
    operator norm 0.9 r, r ~ U(0,1); a zero matrix stays zero.

    Each parameter draws its real part, its imaginary part and then r, in
    that order (one normal draw of shape (2, d, d), then rng.random(),
    which is the same bits as rng.uniform(0, 1)), so a seeded set is the
    same bits as drawing and scaling one parameter at a time.  All of them
    are rescaled after one batched norm.
    """
    parts, r = np.empty((length, 2, d, d)), np.empty(length)
    normal, uniform = rng.standard_normal, rng.random
    for j in range(length):
        normal((2, d, d), out=parts[j])
        r[j] = uniform()
    g = parts[:, 0] + 1j * parts[:, 1]
    norm = np.linalg.norm(g, 2, axis=(1, 2))
    scale = np.divide(0.9 * r, norm, out=np.zeros(length), where=norm > 0.0)
    return g * scale[:, None, None]


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
    if d < 1:
        raise ValueError(f"'d' must be positive, got {d}")
    if length < 0:
        raise ValueError(f"'length' must be nonnegative, got {length}")
    alphas = _random_contractions(d, length, rng)
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
