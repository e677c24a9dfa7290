"""The matrix Schur algorithm.

Forward direction: peel Schur parameters off a series kept as N D^(-1).
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

A set of n <= order + 1 parameters synthesizes its iterates f_0..f_{n-1}
at an order, or its inverse iterates b_1..b_n, from one run over the
whole set, whose fraction after each parameter is kept and divided in one
stacked left_divide; each iterate of a longer set is a run of its own,
over the order + 1 parameters its coefficients reach (see _series).

A set keeps what it computes once in one dict, its memo: "defects"
(stacks), ("iterate", kind, order, m) and ("run", kind, order) (_series)
here, and cmv's own keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    UNITARY_TOL,
    Unitary,
    as_integer,
    as_stack,
    certified_identity,
    certify,
    hermitian_psd_sqrt,
    is_unitary,
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
# Forward algorithm: the k-th coefficient is read to within about
# eps prod_{j<k} (1 - |a_j|^2)^(-1); one below TERMINAL_DETECT that is
# within TERMINAL_GUARD times that of norm 1 cannot be told from a
# terminal, and raises.
TERMINAL_GUARD = 1e4
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


def _defect_roots(stack: np.ndarray) -> tuple:
    """(rho_L, rho_R) of each parameter of an (n, d, d) stack, from one
    batched root of the (2n, d, d) stack [1 - a†a; 1 - aa†]; the same bits
    as rho_left and rho_right."""
    adj = stack.conj().swapaxes(-1, -2)
    roots = hermitian_psd_sqrt(np.eye(stack.shape[-1]) - np.concatenate([adj @ stack, stack @ adj]))
    return roots[: len(stack)], roots[len(stack) :]


@dataclass(frozen=True, eq=False)
class SchurParameters:
    """An ordered family of d x d strict contractions, optionally closed by
    a unitary terminal (the finitely supported case), stored once as one
    read-only (len, d, d) stack whose rows are ``alphas``."""

    block_dim: int
    alphas: tuple
    terminal: Optional[np.ndarray] = None
    # Derived data, kept out of repr and JSON: the operator norm of each
    # parameter, the parameter stack, the terminal's unitarity certificate
    # (which iterates hand on), and the memo, one dict in which stacks,
    # _series and cmv each keep what they compute once per set.
    _norms: tuple = field(default=(), init=False, repr=False)
    _stack: np.ndarray = field(default=None, init=False, repr=False)
    _certificate: Optional[Unitary] = field(default=None, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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
        whole set on first use: one batched root of both sides, checked
        Hermitian and PSD, and one batched inverse per side."""
        defects = self._memo.get("defects")
        if defects is None:
            rl, rr = _defect_roots(self._stack)
            defects = self._memo["defects"] = (rl, rr, np.linalg.inv(rl), np.linalg.inv(rr))
            for m in defects:
                m.setflags(write=False)
        return (self._stack, *defects)


def iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th Schur iterate: drop the first j entries.  The
    terminal keeps the parent's certificate."""
    j = as_integer(j, "iterate index")
    if j < 0 or j > len(p):
        raise ValueError(f"iterate index {j} outside 0..{len(p)}")
    return SchurParameters(p.block_dim, p._stack[j:], p._certificate)


def inverse_iterate(p: SchurParameters, j: int) -> SchurParameters:
    """Parameters of the j-th inverse iterate:
    (-a_{j-1}†, ..., -a_0†) closed by the identity terminal, which comes
    with its exact certificate."""
    j = as_integer(j, "inverse iterate index")
    if j < 0 or j > len(p):
        raise ValueError(f"inverse iterate index {j} outside 0..{len(p)}")
    rev = -p._stack[:j][::-1].conj().swapaxes(1, 2)
    return SchurParameters(p.block_dim, rev, certified_identity(p.block_dim))


def mobius_step(
    alpha, f: MatrixPowerSeries, defects=None, norms=None, order: int | None = None, every: bool = False
) -> MatrixPowerSeries | tuple:
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
    GROWTH_BOUND, and at the end; an empty run returns its seed undivided.

    ``defects`` and ``norms`` give the run's (rho_L, rho_R, rho_L^-1,
    rho_R^-1) as four (r, d, d) stacks and its operator norms when a
    SchurParameters has already validated the run; without them the run,
    or the lone parameter as a run of one, is validated as one.  The
    result is truncated at ``order``, by default f.order + r, the last
    coefficient the run determines.

    With ``every`` the result is the tuple of the r series the run passes
    through, the i-th the one whose leading parameter is a_i, all at that
    order: the fraction is kept after every parameter and the r of them
    are divided out in one stacked left_divide.  Where a run divides
    depends only on the parameters it has stepped over, so the i-th is the
    same bits as a run over a_i, ..., a_{r-1} alone.
    """
    d = f.block_dim
    if defects is None:
        p = SchurParameters(d, (alpha,) if np.ndim(alpha) == 2 else alpha)
        run, *defects = p.stacks()
        norms = p._norms
    else:
        run = as_stack(alpha)
    n = f.order + len(run) if order is None else as_integer(order, "order")
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > f.order + len(run):
        raise ValueError(f"the run determines coefficients 0..{f.order + len(run)} only")
    if not len(run):  # the seed, which 1^(-1) N would divide out bit for bit
        return () if every else MatrixPowerSeries(f.coeffs[: n + 1].copy())
    # the step constants of the whole run, one batched product per side:
    # [D' | N'] = D [rR^-1 | rR^-1 a] + z N [rL^-1 a† | rL^-1]
    _, _, rl_inv, rr_inv = defects
    on_den = np.concatenate([rr_inv, rr_inv @ run], axis=2)
    on_num = np.concatenate([rl_inv @ run.conj().swapaxes(1, 2), rl_inv], axis=2)
    frac = _fraction(f.coeffs[: n + 1], n, d)
    growth, kept = 1.0, []
    for i in reversed(range(len(run))):
        kappa = (1.0 + norms[i]) / np.sqrt(1.0 - norms[i] * norms[i])
        if growth > 1.0 and growth * kappa > GROWTH_BOUND:
            frac, growth = _fraction(_quotient(frac, d), n, d), 1.0
        step = frac[:, :d] @ on_den[i]
        step[d:] += frac[:-d, d:] @ on_num[i]
        frac = step
        growth *= kappa
        if every:
            kept.append(frac)
    if every:
        return tuple(MatrixPowerSeries(q) for q in _quotient(np.stack(kept[::-1]), d))
    return MatrixPowerSeries(_quotient(frac, d))


def _fraction(numerator: np.ndarray, n: int, d: int) -> np.ndarray:
    """The fraction 1^(-1) N on n+1 coefficients packed as [D | N], rows
    kd..kd+d-1 holding [D_k | N_k]; N is zero past the given coefficients."""
    frac = np.zeros(((n + 1) * d, 2 * d), dtype=np.complex128)
    frac[:d, :d] = np.eye(d)
    frac.reshape(n + 1, d, 2 * d)[: len(numerator), :, d:] = numerator
    return frac


def _quotient(frac: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of D^(-1) N of a packed fraction [D | N], or of each
    fraction of a stack of them in one left_divide."""
    packed = frac.reshape(*frac.shape[:-2], -1, d, 2 * d)
    return left_divide(packed[..., :d], packed[..., d:])


def synthesize(p: SchurParameters, order: int) -> MatrixPowerSeries:
    """Series of the measure with the given parameters, truncated at the
    stated order: iterate_series(p, 0, order), the read-only series shared
    with every other caller of p.

    Coefficient k depends only on a_0..a_k, so only a_0..a_order are used.
    """
    return iterate_series(p, 0, order)


def iterate_series(p: SchurParameters, j: int, order: int) -> MatrixPowerSeries:
    """synthesize(iterate(p, j), order), memoized on p."""
    j = as_integer(j, "iterate index")
    if j < 0 or j > len(p):
        raise ValueError(f"iterate index {j} outside 0..{len(p)}")
    if j == len(p) and p.terminal is None:
        raise ValueError("need at least one parameter or a terminal")
    return _series(p, "f", j, order)


def inverse_iterate_series(p: SchurParameters, j: int, order: int) -> MatrixPowerSeries:
    """synthesize(inverse_iterate(p, j), order), memoized on p."""
    j = as_integer(j, "inverse iterate index")
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

    Every iterate is the quotient of a mobius_step run over parameters
    m..stop-1, with stop = min(n, m + order + 1), seeded with the terminal
    when stop is n and with zero otherwise: coefficients the run would not
    reach drop out below the truncation.  Where the run divides its
    fraction depends only on the parameters it has stepped over, so the
    m-th iterate of p and the series of iterate(p, m) are the same bits,
    whatever was requested before.

    A set of n <= order + 1 parameters has stop = n for every m, so each
    iterate's run is the tail of the run over the whole set.  The first
    request for one of its iterates m < n takes that one run, with every,
    which divides all n fractions in one stacked left_divide; the n
    iterates are kept on p unmarked, and each is marked when first handed
    out, so one nobody asks for never raises.  A longer set shares a run
    only within a window of order + 1 parameters; a probe that computed
    the whole window on first touch read campaign-mix at 0.90x the cases
    per second in one process (faster in 3 of 30 cycles), so a longer set
    keeps one run per iterate.  The seed, m = n, takes no run.
    """
    order = as_integer(order, "order")
    if order < 0:
        raise ValueError("order must be nonnegative")
    key = ("iterate", kind, order, m)
    hit = p._memo.get(key)
    if hit is not None:
        return hit
    n = len(p)
    if m < n <= order + 1:
        run = p._memo.get(("run", kind, order))
        if run is None:
            run = p._memo["run", kind, order] = _run(p, kind, 0, n, order, every=True)
        f = run[m]
    else:
        f = _run(p, kind, m, min(n, m + order + 1), order)
    f.mark_schur().coeffs.setflags(write=False)
    p._memo[key] = f
    return f


def _run(p: SchurParameters, kind: str, m: int, stop: int, order: int, every: bool = False):
    """mobius_step over parameters m..stop-1 of p (kind "f") or of its
    reflection (kind "b"), seeded as _series says."""
    n, d = len(p), p.block_dim
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
    return mobius_step(run, seed, defects, norms, order, every)


def schur_forward(f: MatrixPowerSeries, steps: int) -> SchurParameters:
    """Run the Schur algorithm, peeling off one parameter per step.

    f is kept as a right fraction N D^(-1) with D_0 = 1, packed as one
    (2d x (n+1)d) array [D; N] with column blocks [D_k; N_k], so the next
    parameter a is N_0.  The step f' = z^(-1) rR^(-1) (f - a)(1 - a†f)^(-1) rL
    is linear: [D'; z N'] = [rL^(-1) (D - a† N); rR^(-1) (N - a D)].  N'
    then drops its factor z and every block is right-multiplied by D'_0^(-1).

    Stops early when a coefficient reaches the unit sphere, which closes
    the sequence with a unitary terminal.  The series order drops by one
    per step, so steps must not exceed the order of f.  Errors grow as
    eps prod_j (1 - |a_j|^2)^(-1), to at most 28, 431 and 228 times that
    at largest norms 0.5, 0.9 and 0.99 (2400 sets, d 1-4, lengths 1-20).
    A k-th coefficient at or below TERMINAL_DETECT but within
    G eps prod_{j<k} (1 - |a_j|^2)^(-1) of norm 1, G = TERMINAL_GUARD, may
    be a terminal lost to that error: it raises ArithmeticError rather
    than read it as a strict contraction.  The terminal is read to within
    the same error: one above TERMINAL_DETECT whose unitarity residual
    passes UNITARY_TOL, but whose singular values all lie within that
    error of 1, is returned as its polar factor, the nearest unitary; one
    off by more is no terminal, and SchurParameters refuses it as not
    unitary.
    """
    steps = as_integer(steps, "steps")
    if steps < 0 or steps > f.order:
        raise ValueError(f"steps must lie in 0..{f.order}")
    d = f.block_dim
    frac = np.concatenate([np.eye(d, (f.order + 1) * d), f.coeffs.transpose(1, 0, 2).reshape(d, -1)])
    # G eps prod_{j<k} (1 - |a_j|^2)^(-1) at step k
    alphas, guard = [], TERMINAL_GUARD * np.finfo(float).eps
    for k in range(steps):
        a = frac[d:, :d].copy()
        norm = op_norm(a)
        if norm > TERMINAL_DETECT:
            # read as the terminal and handed on with its residual, which
            # SchurParameters holds to UNITARY_TOL without a second product
            residual = is_unitary(a).residual
            if residual > UNITARY_TOL:
                u, sigma, vh = np.linalg.svd(a)
                if np.abs(sigma - 1.0).max() <= guard:
                    a = u @ vh
                    residual = is_unitary(a).residual
            a.flags.writeable = False
            return SchurParameters(d, tuple(alphas), Unitary(a, residual))
        if 1.0 - norm <= guard:
            raise ArithmeticError(
                f"Schur coefficient {k} has norm {norm:.12f}, within the forward error "
                f"{guard:.3e} of the unit sphere: cannot tell it from a terminal")
        alphas.append(a)
        guard /= 1.0 - norm * norm
        # D' on blocks 0..n-1; z N' on blocks 1..n, where block 0 vanishes
        rl, rr = _defect_roots(a[None])
        den = np.linalg.solve(rl[0], frac[:d, :-d] - a.conj().T @ frac[d:, :-d])
        num = np.linalg.solve(rr[0], frac[d:, d:] - a @ frac[:d, d:])
        # every block times D'_0^(-1): X D'_0 = B solved as D'_0^T X^T = B^T
        blocks = np.concatenate([den, num]).reshape(-1, d)
        frac = np.linalg.solve(den[:, :d].T, blocks.T).T.reshape(2 * d, -1)
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
